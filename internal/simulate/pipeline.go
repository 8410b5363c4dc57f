package simulate

// The chunked replay pipeline: the constant-memory counterpart of the
// materialised compile-then-drive path. A header-only trace (trace.Source)
// is regenerated window by window; each window is decoded and compiled —
// per stream (layout pair and line size), carrying the one word of
// cross-chunk state repeat-elision needs — and handed to the drive units
// over a bounded channel, so the producer compiles window k+1 while the
// workers drive window k (double buffering: two window buffers alternate
// between the free list and the work queue). Memory is O(chunk),
// independent of trace length and of how many layout pairs one
// regeneration feeds.
//
// Bit-identity with the materialised path holds link by link: the trace
// source replays the identical event sequence (workload.Source), chunk-wise
// compilation concatenates to the identical access stream (elision can only
// strike a span's first line, so across windows only a window's first, and
// the carried prev is exactly the predecessor span's last line — the same
// invariant compile tests once per span), and the per-window driveUnits
// barrier keeps every cache's access order sequential. Only the windowing
// differs, and the windowing is invisible to the caches.

import (
	"fmt"
	"math/bits"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// chunkCompiler compiles successive event windows of one stream,
// carrying the repeat-elision state across windows: prev is the line address
// of the previous window's final span's last line (elided or not), exactly
// the value the drive-time comparison would hold at that point.
type chunkCompiler struct {
	spans [trace.NumDomains][]lineSpan
	prev  uint32
}

func newChunkCompiler(t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*chunkCompiler, error) {
	if lineSize <= 0 || bits.OnesCount(uint(lineSize)) != 1 {
		return nil, fmt.Errorf("simulate: line size %d not a positive power of two", lineSize)
	}
	spans, err := spanTables(t, osL, appL, lineSize)
	if err != nil {
		return nil, err
	}
	// No line address reaches ^uint32(0), so the first access is never
	// elided.
	return &chunkCompiler{spans: spans, prev: ^uint32(0)}, nil
}

// compile expands and elides one window of decoded block events into lw,
// reusing its buffers. The emitted accesses are exactly the corresponding
// slice of the whole-stream compilation; with counts, lw.counts holds each
// event's access count, which observed drives walk, and without it
// lw.counts is left nil.
//
// One walk writes the window straight into the buffer while it has room.
// Lines within a span strictly increase, so elision can strike only a
// span's first line, and it is tested once per span; an event's count is
// its span's length from the first line left after that test. When a
// window outgrows the buffer, the rest of the window is counted exactly
// (accessCount from the running prev) and the buffer grows to that total.
// A buffer is thus reallocated only when a window needs more than any
// before it, and its capacity is always the largest window's exact count.
func (cc *chunkCompiler) compile(attrs []uint32, lw *lineWindow, counts bool) {
	accs := lw.accs[:cap(lw.accs)]
	var cnt []uint8
	if counts {
		cnt = emptied(lw.counts, len(attrs))[:len(attrs)]
	}
	j := 0
	prev := cc.prev
	for i, a := range attrs {
		sp := cc.spans[a>>eventDomainShift][a&(1<<eventDomainShift-1)]
		dom := a & (1 << eventDomainShift)
		line := sp.First
		if line == prev {
			line++
		}
		prev = sp.Last
		if counts {
			cnt[i] = uint8(sp.Last + 1 - line)
		}
		for ; line <= sp.Last; line++ {
			if j == len(accs) {
				grown := make([]uint32, uint64(j)+uint64(sp.Last-line)+1+cc.accessCount(prev, attrs[i+1:]))
				copy(grown, accs[:j])
				accs = grown
			}
			accs[j] = dom | line
			j++
		}
	}
	cc.prev = prev
	lw.accs, lw.counts = accs[:j], cnt
}

// accessCount returns the exact number of accesses compile emits for attrs
// after a span ending on line prev: the span lengths minus the spans whose
// first line repeats the previous span's last, the only place elision can
// strike.
func (cc *chunkCompiler) accessCount(prev uint32, attrs []uint32) uint64 {
	var n uint64
	for _, a := range attrs {
		sp := cc.spans[a>>eventDomainShift][a&(1<<eventDomainShift-1)]
		n += uint64(sp.Last-sp.First) + 1
		if sp.First == prev {
			n--
		}
		prev = sp.Last
	}
	return n
}

// emptied returns s truncated to length zero with room for n elements,
// allocating only when its capacity falls short.
func emptied[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// runManyStreamed is RunGroups' replay loop for header-only traces. The
// caches, results and drive units arrive already built; this function owns
// windowing, incremental compilation and the producer/consumer handoff.
// Streaming deliberately bypasses opt.Streams: memoizing a stream that is
// never materialised would defeat the memory bound, which is the reason
// streaming was selected.
//
// The trace is regenerated once, whatever the number of groups. A window
// carries one compiled lineWindow per stream, so with several groups each
// reader batch is split into parts windows (one per group carrying
// configurations): a window then holds about 1/parts of the batch's events
// compiled once per group, and the compiled bytes in flight stay those of
// one group's full batch. A one-group replay keeps the reader's batches as
// its windows.
func runManyStreamed(t *trace.Trace, keys []streamKey, parts int,
	caches []*cache.Cache, results []*Result, obsAt func(int) obs.Observer,
	units []driveUnit, opt Options) ([]*Result, error) {

	compilers := make([]*chunkCompiler, len(keys))
	for s, k := range keys {
		cc, err := newChunkCompiler(t, k.os, k.app, k.line)
		if err != nil {
			return nil, err
		}
		compilers[s] = cc
	}
	// Only observed units walk a window event by event, so a stream no
	// observer reads is compiled without per-event access counts.
	counts := make([]bool, len(keys))
	for _, u := range units {
		counts[u.stream] = counts[u.stream] || u.ws != nil
	}

	var refsTab [trace.NumDomains][]uint64
	refsTab[trace.DomainOS] = refsOf(t.OS)
	if t.App != nil {
		refsTab[trace.DomainApp] = refsOf(t.App)
	}

	tot := t.Summarize()
	for i := range caches {
		if o := obsAt(i); o != nil {
			o.Begin(results[i].Config, tot.Blocks)
			caches[i].SetEvictionHook(o.Evict)
		}
	}

	// Double buffering: two window buffers cycle between the free list and
	// the work queue, so the producer decodes and compiles the next window
	// while the drive units replay the current one. Each buffer is sized on
	// its first window (event arrays from the window's length, access arrays
	// to the compiler's exact count) and reused thereafter, growing only to
	// a later window's exact need — the O(chunk) bound.
	type item struct {
		d        *unitData
		err      error
		panicked any
	}
	free := make(chan *unitData, 2)
	for i := 0; i < 2; i++ {
		free <- &unitData{refsTab: refsTab, lines: make([]lineWindow, len(keys))}
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
				d.attrs = emptied(d.attrs, len(part))
				for _, e := range part {
					if !e.IsBlock() {
						continue
					}
					d.attrs = append(d.attrs, uint32(e.Domain())<<eventDomainShift|uint32(e.Block()))
				}
				for s := range compilers {
					compilers[s].compile(d.attrs, &d.lines[s], counts[s])
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
			panicked = driveRecovering(units, it.d, opt.Workers)
		}
		free <- it.d
	}
	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	for i := range results {
		caches[i].Stats.Refs = tot.Refs
		results[i].Stats = caches[i].Stats
	}
	return results, nil
}

// driveRecovering is driveUnits returning a panic instead of raising it.
func driveRecovering(units []driveUnit, d *unitData, workers int) (panicked any) {
	defer func() { panicked = recover() }()
	driveUnits(units, d, workers)
	return nil
}
