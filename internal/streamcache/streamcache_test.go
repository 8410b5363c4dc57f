package streamcache

import (
	"math/rand"
	"sync"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
)

// testTrace builds a small OS-only trace with varied block sizes.
func testTrace(events int, seed int64) *trace.Trace {
	sizes := []int32{4, 12, 32, 60, 100, 8, 24, 144}
	p := program.New("os")
	r := p.AddRoutine("r")
	for i := 0; i < 32; i++ {
		p.AddBlock(r, sizes[i%len(sizes)])
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "t", OS: p}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, program.BlockID(rng.Intn(p.NumBlocks()))))
	}
	return tr
}

// TestCompileOnSecondRequest pins the reuse rule: a first request compiles
// nothing and adds no stream bytes, only the decode and the sighting
// record; the second compiles, dropping the record; the third is a hit on
// the same stream.
func TestCompileOnSecondRequest(t *testing.T) {
	tr := testTrace(5_000, 7)
	osL := layout.NewBase(tr.OS, 0)
	ev := simulate.Decode(tr)
	c := New(0)
	k := streamKey{tr: tr, osL: osL, line: 32}

	first, err := c.Stream(tr, osL, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accesses() != 0 || first.Events().NumEvents() != ev.NumEvents() {
		t.Errorf("first request served %d accesses over %d events, want the uncompiled decode of %d events",
			first.Accesses(), first.Events().NumEvents(), ev.NumEvents())
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("after a first sighting: hits %d, misses %d, want 0 and 0", hits, misses)
	}
	if got, want := c.Bytes(), ev.Bytes()+k.pinned(); got != want {
		t.Errorf("after a first sighting: %d bytes, want the decode and the record, %d", got, want)
	}

	second, err := c.Stream(tr, osL, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if second.Accesses() == 0 || second.Events() != first.Events() {
		t.Error("second request did not compile over the shared decode")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("after the second request: hits %d, misses %d, want 0 and 1", hits, misses)
	}
	if got, want := c.Bytes(), ev.Bytes()+second.Bytes(); got != want || len(c.seen) != 0 {
		t.Errorf("after the compile: %d bytes and %d records, want %d and none", got, len(c.seen), want)
	}

	third, err := c.Stream(tr, osL, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Error("third request got a different stream")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after the third request: hits %d, misses %d, want 1 and 1", hits, misses)
	}
}

// TestSingleFlight: after a key's first sighting, many goroutines racing
// on its second request must share a single compile — one miss,
// pointer-identical compiled streams for everyone.
func TestSingleFlight(t *testing.T) {
	tr := testTrace(5_000, 1)
	osL := layout.NewBase(tr.OS, 0)
	c := New(0)
	if _, err := c.Stream(tr, osL, nil, 32); err != nil {
		t.Fatal(err)
	}
	const n = 16
	got := make([]*simulate.Stream, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			s, err := c.Stream(tr, osL, nil, 32)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different stream pointer", i)
		}
	}
	if got[0] == nil || got[0].Accesses() == 0 {
		t.Fatal("the racing requests were not served a compiled stream")
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compile", misses)
	}
	if hits != n-1 {
		t.Errorf("hits = %d, want %d", hits, n-1)
	}
}

// TestConcurrentGrid drives a compare-grid-shaped workload — several
// layouts crossed with several line sizes, each cell requested once and
// then by several goroutines at once — and asserts exactly one compile per
// (layout, line size) cell.
func TestConcurrentGrid(t *testing.T) {
	tr := testTrace(5_000, 2)
	layouts := make([]*layout.Layout, 4)
	for i := range layouts {
		layouts[i] = layout.NewBase(tr.OS, 0)
	}
	lineSizes := []int{16, 32, 64}
	const perCell = 4
	c := New(0)
	for _, l := range layouts {
		for _, ls := range lineSizes {
			if _, err := c.Stream(tr, l, nil, ls); err != nil {
				t.Fatal(err)
			}
		}
	}
	type cell struct {
		l    *layout.Layout
		line int
	}
	results := sync.Map{}
	var wg sync.WaitGroup
	for _, l := range layouts {
		for _, ls := range lineSizes {
			for r := 0; r < perCell; r++ {
				wg.Add(1)
				go func(l *layout.Layout, ls int) {
					defer wg.Done()
					s, err := c.Stream(tr, l, nil, ls)
					if err != nil {
						t.Error(err)
						return
					}
					if prev, loaded := results.LoadOrStore(cell{l, ls}, s); loaded && prev != s {
						t.Errorf("cell (%p, %d): two distinct streams", l, ls)
					}
				}(l, ls)
			}
		}
	}
	wg.Wait()
	cells := uint64(len(layouts) * len(lineSizes))
	hits, misses := c.Stats()
	if misses != cells {
		t.Errorf("misses = %d, want one compile per cell (%d)", misses, cells)
	}
	if hits != cells*(perCell-1) {
		t.Errorf("hits = %d, want %d", hits, cells*(perCell-1))
	}
}

// TestErrorsNotCached: a failing key (foreign layout) must be refused on
// every request, its first included, instead of pinning the error. A
// refused request leaves no sighting record, so no later request compiles
// it.
func TestErrorsNotCached(t *testing.T) {
	tr := testTrace(100, 3)
	other := testTrace(100, 4)
	foreign := layout.NewBase(other.OS, 0)
	c := New(0)
	for i := 1; i <= 3; i++ {
		if _, err := c.Stream(tr, foreign, nil, 32); err == nil {
			t.Fatalf("request %d: foreign layout accepted", i)
		}
		if hits, misses := c.Stats(); hits != 0 || misses != 0 || len(c.seen) != 0 {
			t.Errorf("after failure %d: hits %d, misses %d, %d records, want none (errors must not cache)",
				i, hits, misses, len(c.seen))
		}
	}
}

// TestEvictionLRU pins the byte bound and the recency order: with room for
// three streams, touching A before inserting D must push out B, not A.
// Each stream is requested twice to compile it; an evicted stream's next
// request is a first sighting again.
func TestEvictionLRU(t *testing.T) {
	tr := testTrace(5_000, 5)
	mk := func() *layout.Layout { return layout.NewBase(tr.OS, 0) }
	lA, lB, lC, lD := mk(), mk(), mk(), mk()

	// Learn the entry sizes, then bound the cache to exactly the decode
	// plus three streams (all four streams have identical geometry).
	ev := simulate.Decode(tr)
	probe, err := simulate.CompileEvents(ev, tr, lA, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := New(ev.Bytes() + 3*probe.Bytes())

	twice := func(l *layout.Layout) {
		t.Helper()
		for r := 0; r < 2; r++ {
			if _, err := c.Stream(tr, l, nil, 32); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, l := range []*layout.Layout{lA, lB, lC} {
		twice(l)
	}
	if _, err := c.Stream(tr, lA, nil, 32); err != nil { // refresh A's recency
		t.Fatal(err)
	}
	twice(lD) // must evict B
	if c.Evictions() == 0 {
		t.Fatal("no eviction despite exceeding the byte bound")
	}
	if c.Bytes() > ev.Bytes()+3*probe.Bytes() {
		t.Errorf("footprint %d exceeds bound %d", c.Bytes(), ev.Bytes()+3*probe.Bytes())
	}
	hits0, misses0 := c.Stats()
	if _, err := c.Stream(tr, lA, nil, 32); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != hits0+1 {
		t.Error("recently-touched A was evicted; LRU order wrong")
	}
	s, err := c.Stream(tr, lB, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != hits0+1 || misses != misses0 || s.Accesses() != 0 {
		t.Error("least-recently-used B survived; LRU order wrong")
	}
}

// TestSightingRecordsBounded: a run of one-off layouts, each requested
// once, must keep its sighting records within the byte bound, evicting the
// oldest first, and compile nothing.
func TestSightingRecordsBounded(t *testing.T) {
	tr := testTrace(2_000, 8)
	ev := simulate.Decode(tr)
	layouts := make([]*layout.Layout, 100)
	for i := range layouts {
		layouts[i] = layout.NewBase(tr.OS, 0)
	}
	const room = 10
	bound := ev.Bytes() + room*streamKey{osL: layouts[0]}.pinned()
	c := New(bound)
	for _, l := range layouts {
		if _, err := c.Stream(tr, l, nil, 32); err != nil {
			t.Fatal(err)
		}
		if c.Bytes() > bound || len(c.seen) > room {
			t.Fatalf("%d bytes in %d records, bound %d bytes", c.Bytes(), len(c.seen), bound)
		}
	}
	if len(c.seen) != room || c.Evictions() != uint64(len(layouts)-room) {
		t.Errorf("%d records after %d evictions, want %d after %d",
			len(c.seen), c.Evictions(), room, len(layouts)-room)
	}
	for _, l := range []*layout.Layout{layouts[0], layouts[len(layouts)-1]} {
		if _, err := c.Stream(tr, l, nil, 32); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("hits %d, misses %d: want the newest layout's second request alone to compile", hits, misses)
	}
}

// TestStreamSourceIntegration runs the engine end to end through the cache
// and checks results match direct compilation.
func TestStreamSourceIntegration(t *testing.T) {
	tr := testTrace(10_000, 6)
	osL := layout.NewBase(tr.OS, 0)
	cfgs := []cache.Config{
		{Size: 1 << 10, Line: 16, Assoc: 1},
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 2},
	}
	c := New(0)
	for round := 0; round < 2; round++ {
		for _, cfg := range cfgs {
			want, err := simulate.Run(tr, osL, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := simulate.RunManyOpt(tr, osL, nil,
				[]cache.Config{cfg}, simulate.Options{Streams: c})
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats != got[0].Stats {
				t.Errorf("round %d %v: cached-stream result differs", round, cfg)
			}
		}
	}
	// Each of the 2 distinct line sizes compiles once, on its second
	// request; the first round's requests for line 16 and the first for
	// line 32 walk the decode.
	_, misses := c.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want one compile per distinct line size (2)", misses)
	}
}
