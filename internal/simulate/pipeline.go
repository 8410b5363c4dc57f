package simulate

// The walked replay: RunGroups' path for every replay no stream source
// compiles, that is a header-only trace, or a materialised one given no
// source. A producer goroutine reads the trace window by window
// (Trace.Chunks, which regenerates a header-only trace) and decodes each
// window's block events; the drive units then expand and elide their own
// stream's line spans as they drive their caches, so neither a whole-trace
// decode nor a compiled stream is ever materialised. Two window buffers
// alternate between a free list and the work queue, so the producer reads
// and decodes window k+1 while the units drive window k (double
// buffering). Memory is O(chunk), independent of trace length and of how
// many layout pairs one walk feeds.
//
// Bit-identity with the compiled path holds link by link: the trace source
// replays the identical event sequence (workload.Source); a unit expands
// each event's span exactly as CompileEvents does, eliding a span's first
// line when it repeats the previous span's last, the only place elision can
// strike, and carries that last line across windows in its own prev; and
// the per-window driveUnits barrier keeps every cache's access order
// sequential. Only the windowing differs, and the windowing is invisible to
// the caches.

import (
	"slices"

	"oslayout/internal/trace"
)

// walk is RunGroups' replay loop for every trace no stream source compiles.
// The caches and drive units arrive built, each unit holding its stream's
// span table, and the observers have begun; walk owns windowing, decoding
// and the producer/consumer handoff. A stream source is bypassed: a stream
// compiled to be driven once costs more than the walk, and holding one
// would break the O(chunk) bound a header-only trace was chosen for.
//
// The trace is read once, whatever the number of groups. Every unit walks
// every event of a window, and a window holds only its decoded events, 4
// bytes each. A replay with several groups carrying configurations splits
// each reader batch into parts windows, one per such group, so each of the
// two buffers holds about 1/parts of a batch, where whole-batch windows
// would put up to 4 MiB of decoded events per buffer per concurrent replay
// in flight. A one-group replay keeps the reader's batches as its windows.
func walk(t *trace.Trace, parts int, units []driveUnit, workers int) error {
	var refsTab [trace.NumDomains][]uint64
	refsTab[trace.DomainOS] = refsOf(t.OS)
	if t.App != nil {
		refsTab[trace.DomainApp] = refsOf(t.App)
	}

	// Double buffering: two window buffers cycle between the free list and
	// the work queue, so the producer decodes the next window while the
	// drive units replay the current one. Each buffer is sized on its first
	// window and reused, growing only when a later window is longer: the
	// O(chunk) bound.
	type item struct {
		d        *unitData
		err      error
		panicked any
	}
	free := make(chan *unitData, 2)
	for i := 0; i < 2; i++ {
		free <- &unitData{refsTab: refsTab}
	}
	work := make(chan item, 2)
	go func() {
		defer close(work)
		defer func() {
			if p := recover(); p != nil {
				work <- item{panicked: p}
			}
		}()
		r := t.Chunks()
		for {
			batch, err := r.Read()
			if err != nil {
				work <- item{err: err}
				return
			}
			if len(batch) == 0 {
				return
			}
			for p := 0; p < parts; p++ {
				part := batch[len(batch)*p/parts : len(batch)*(p+1)/parts]
				if len(part) == 0 {
					continue
				}
				d := <-free
				d.attrs = slices.Grow(d.attrs[:0], len(part))
				for _, e := range part {
					if e.IsBlock() {
						d.attrs = append(d.attrs, uint32(e.Domain())<<eventDomainShift|uint32(e.Block()))
					}
				}
				work <- item{d: d}
			}
		}
	}()

	// A panic on either side stops the driving but not the draining, so
	// the producer never blocks forever; it is re-raised here afterwards.
	var firstErr error
	var panicked any
	for it := range work {
		switch {
		case it.panicked != nil:
			panicked = it.panicked
			continue
		case it.err != nil:
			firstErr = it.err
			continue
		case firstErr == nil && panicked == nil:
			panicked = driveRecovering(units, it.d, workers)
		}
		free <- it.d
	}
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// driveRecovering is driveUnits returning a panic instead of raising it.
func driveRecovering(units []driveUnit, d *unitData, workers int) (panicked any) {
	defer func() { panicked = recover() }()
	driveUnits(units, d, workers)
	return nil
}
