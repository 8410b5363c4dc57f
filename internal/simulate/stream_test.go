package simulate

import (
	"hash/fnv"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
)

func TestCompileStreamProperties(t *testing.T) {
	tr, osL, appL := mixedTrace(20_000, 7)
	s, err := CompileEvents(Decode(tr), tr, osL, appL, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.LineSize() != 32 {
		t.Errorf("LineSize = %d, want 32", s.LineSize())
	}
	if s.Accesses() == 0 {
		t.Fatal("compiled stream has no accesses")
	}
	// Same-line elision is global: the compiled sequence can never contain
	// two consecutive identical line addresses.
	for j := 1; j < len(s.accs); j++ {
		if s.accs[j]&streamLineMask == s.accs[j-1]&streamLineMask {
			t.Fatalf("consecutive duplicate line %#x at access %d: elision failed", s.accs[j]&streamLineMask, j)
		}
	}
	// Every access word carries its event's domain in bit 31.
	j := 0
	for i, a := range s.ev.attrs {
		for end := j + int(s.counts[i]); j < end; j++ {
			if got, want := s.accs[j]>>eventDomainShift, a>>eventDomainShift; got != want {
				t.Fatalf("access %d of event %d: domain bit %d, event domain %d", j, i, got, want)
			}
		}
	}
	// There is one access count per block event, and the counts cover the
	// access array exactly.
	blocks := 0
	for _, e := range tr.Events {
		if e.IsBlock() {
			blocks++
		}
	}
	ev := s.Events()
	if ev.NumEvents() != blocks {
		t.Errorf("NumEvents = %d, want %d block events", ev.NumEvents(), blocks)
	}
	if len(s.counts) != ev.NumEvents() {
		t.Fatalf("%d access counts for %d events", len(s.counts), ev.NumEvents())
	}
	if j != s.Accesses() {
		t.Errorf("access counts sum to %d, want Accesses() = %d", j, s.Accesses())
	}
	if want := int64(4*s.Accesses() + ev.NumEvents()); s.Bytes() != want {
		t.Errorf("Bytes() = %d, want 4 × %d accesses + %d events = %d", s.Bytes(), s.Accesses(), ev.NumEvents(), want)
	}
	// Decoded reference totals must agree with the trace's own accounting.
	wantOS, wantApp := tr.Refs()
	refs := ev.Refs()
	if refs[trace.DomainOS] != wantOS || refs[trace.DomainApp] != wantApp {
		t.Errorf("Refs = %v, want OS %d / App %d", refs, wantOS, wantApp)
	}
	if ev.Bytes() <= 0 {
		t.Errorf("non-positive events size estimate %d", ev.Bytes())
	}
}

func TestCompileErrors(t *testing.T) {
	tr, osL, appL := mixedTrace(100, 3)
	if _, err := CompileEvents(Decode(tr), tr, osL, appL, 48); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	if _, err := CompileEvents(Decode(tr), tr, osL, appL, 0); err == nil {
		t.Error("zero line size accepted")
	}
	other, _, _ := mixedTrace(10, 4)
	foreign := layout.NewBase(other.OS, 0)
	if _, err := CompileEvents(Decode(tr), tr, foreign, appL, 32); err == nil {
		t.Error("foreign OS layout accepted")
	}
	if _, err := CompileEvents(Decode(tr), tr, osL, nil, 32); err == nil {
		t.Error("missing app layout accepted for two-domain trace")
	}

	// Line addresses must stay below the access word's domain bit: a block
	// at line 2^31 is rejected, materialised and streamed; one at line
	// 2^31-1 compiles and replays exactly as the per-event loop does.
	two, _ := conflictTrace(2)
	cfg := cache.Config{Size: 64, Line: 32, Assoc: 1}
	for _, line := range []uint64{1 << 31, 1<<31 - 1} {
		l := layout.New("far", two.OS, 0)
		l.Place(0, 0)
		l.Place(1, line*32)
		_, cerr := CompileEvents(Decode(two), two, l, nil, 32)
		got, rerr := RunManyOpt(two.ChunkView(1), l, nil, []cache.Config{cfg}, Options{})
		if accept := line < 1<<31; (cerr == nil) != accept || (rerr == nil) != accept {
			t.Errorf("block at line %#x: compile error %v, streamed replay error %v; want accepted = %v", line, cerr, rerr, accept)
			continue
		}
		if rerr != nil {
			continue
		}
		want, err := Run(two, l, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("block at line %#x: streamed %+v, per-event %+v", line, got[0].Stats, want.Stats)
		}
	}

	// An event's access count is one byte: a block spanning 256 lines is
	// rejected, materialised and streamed; one spanning 255 compiles and
	// replays, observed, exactly as the per-event loop does.
	tiny := cache.Config{Size: 64, Line: 4, Assoc: 1}
	for _, lines := range []int32{256, 255} {
		p, _ := progtest.Linear(2, 4*lines)
		l := layout.NewBase(p, 0)
		wide := &trace.Trace{Name: "wide", OS: p}
		for i := 0; i < 3; i++ {
			wide.Events = append(wide.Events, trace.BlockEvent(trace.DomainOS, 0), trace.BlockEvent(trace.DomainOS, 1))
		}
		_, cerr := CompileEvents(Decode(wide), wide, l, nil, 4)
		got, rerr := RunManyOpt(wide.ChunkView(1), l, nil, []cache.Config{tiny}, Options{})
		if accept := lines <= 255; (cerr == nil) != accept || (rerr == nil) != accept {
			t.Errorf("%d-line block: compile error %v, streamed replay error %v; want accepted = %v", lines, cerr, rerr, accept)
			continue
		}
		if rerr != nil {
			continue
		}
		observed, err := RunManyOpt(wide, l, nil, []cache.Config{tiny},
			Options{Observers: []obs.Observer{obs.NewSimStats(2)}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(wide, l, nil, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], want) || !reflect.DeepEqual(observed[0], want) {
			t.Errorf("%d-line block: streamed %+v, observed %+v, per-event %+v", lines, got[0].Stats, observed[0].Stats, want.Stats)
		}
	}
}

// TestParallelDriveBitIdentical is the core equivalence contract of the
// parallel drive: fanning the 13-config mixed grid across a worker pool
// must reproduce the sequential results bit for bit, at every pool width.
func TestParallelDriveBitIdentical(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	seq, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range equivalenceGrid {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Errorf("workers=%d %v: parallel result differs from sequential\n  seq: %+v\n  par: %+v",
					workers, cfg, seq[i].Stats, par[i].Stats)
			}
		}
	}
}

// seqObserver digests its entire call sequence into one running FNV hash,
// so two replays saw identical observer traffic iff their digests match.
type seqObserver struct {
	n      uint64
	digest uint64
}

func (o *seqObserver) mix(vals ...uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	o.digest = o.digest*1099511628211 + h.Sum64()
	o.n++
}

func (o *seqObserver) Begin(cfg cache.Config, totalEvents int) {
	o.mix(0, uint64(cfg.Size), uint64(cfg.Line), uint64(cfg.Assoc), uint64(totalEvents))
}
func (o *seqObserver) Event(d trace.Domain, block uint32, refs uint64) {
	o.mix(1, uint64(d), uint64(block), refs)
}
func (o *seqObserver) Miss(line uint64, d trace.Domain, class cache.MissClass, block uint32) {
	o.mix(2, line, uint64(d), uint64(class), uint64(block))
}
func (o *seqObserver) Evict(victimLine uint64, set int, evictor trace.Domain) {
	o.mix(3, victimLine, uint64(set), uint64(evictor))
}

// TestParallelDriveObservedBitIdentical extends the contract to observers:
// each observer belongs to exactly one drive unit, so its Begin/Event/Miss/
// Evict sequence — digested order-sensitively — must be identical whether
// units run sequentially or across a pool.
func TestParallelDriveObservedBitIdentical(t *testing.T) {
	tr, osL, appL := mixedTrace(20_000, 11)
	mkObs := func() []obs.Observer {
		out := make([]obs.Observer, len(equivalenceGrid))
		for i := range out {
			if i%2 == 0 { // every other config observed: gating must stay per unit
				out[i] = &seqObserver{}
			}
		}
		return out
	}
	seqObs := mkObs()
	seq, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Observers: seqObs})
	if err != nil {
		t.Fatal(err)
	}
	parObs := mkObs()
	par, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Observers: parObs, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range equivalenceGrid {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%v: observed parallel result differs from sequential", cfg)
		}
		if seqObs[i] == nil {
			continue
		}
		so := seqObs[i].(*seqObserver)
		po := parObs[i].(*seqObserver)
		if so.n != po.n || so.digest != po.digest {
			t.Errorf("%v: observer sequence differs: seq %d calls digest %#x, par %d calls digest %#x",
				cfg, so.n, so.digest, po.n, po.digest)
		}
		if so.n == 0 {
			t.Errorf("%v: observer saw no calls", cfg)
		}
	}
}

// countingSource wraps direct compilation, counting how many times the
// engine asks for a stream.
type countingSource struct {
	calls int
	ev    *Events
}

func (c *countingSource) Stream(t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*Stream, error) {
	c.calls++
	if c.ev == nil {
		c.ev = Decode(t)
	}
	return CompileEvents(c.ev, t, osL, appL, lineSize)
}

func TestRunManyOptStreamSource(t *testing.T) {
	tr, osL, appL := mixedTrace(15_000, 5)
	want, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{}
	got, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Streams: src, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range equivalenceGrid {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%v: sourced result differs from direct", equivalenceGrid[i])
		}
	}
	distinct := map[int]bool{}
	for _, cfg := range equivalenceGrid {
		distinct[cfg.Line] = true
	}
	if src.calls != len(distinct) {
		t.Errorf("source called %d times, want once per distinct line size (%d)", src.calls, len(distinct))
	}
}
