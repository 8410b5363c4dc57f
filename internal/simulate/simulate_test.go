package simulate

import (
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
)

// conflictTrace builds a two-block OS program whose blocks conflict in a
// tiny direct-mapped cache, and a trace alternating between them.
func conflictTrace(reps int) (*trace.Trace, *layout.Layout) {
	p, _ := progtest.Linear(2, 32) // two 32-byte blocks
	l := layout.New("conflict", p, 0)
	l.Place(0, 0)
	l.Place(1, 64) // same set in a 64-byte direct-mapped cache
	tr := &trace.Trace{Name: "t", OS: p}
	for i := 0; i < reps; i++ {
		tr.Events = append(tr.Events,
			trace.BlockEvent(trace.DomainOS, 0),
			trace.BlockEvent(trace.DomainOS, 1))
	}
	return tr, l
}

func TestRunCountsConflictMisses(t *testing.T) {
	tr, l := conflictTrace(10)
	res, err := Run(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 20 block events, each one line: 2 cold + 18 self-conflict misses.
	st := &res.Stats
	if st.Misses[trace.DomainOS] != 20 {
		t.Fatalf("misses = %d, want 20", st.Misses[trace.DomainOS])
	}
	if st.Cold[trace.DomainOS] != 2 || st.Self[trace.DomainOS] != 18 {
		t.Fatalf("cold/self = %d/%d, want 2/18", st.Cold[trace.DomainOS], st.Self[trace.DomainOS])
	}
	// References: 32-byte blocks = 8 words each, 20 executions.
	if st.Refs[trace.DomainOS] != 160 {
		t.Fatalf("refs = %d, want 160", st.Refs[trace.DomainOS])
	}
	// Per-block attribution, from an attached observer.
	blocks := obs.NewBlockMisses(tr)
	if _, err := runObserved(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1}, blocks); err != nil {
		t.Fatal(err)
	}
	if blocks.Misses[trace.DomainOS][0] != 10 || blocks.Misses[trace.DomainOS][1] != 10 {
		t.Fatalf("block misses = %v", blocks.Misses[trace.DomainOS])
	}
	if blocks.Self[trace.DomainOS][0] != 9 || blocks.Self[trace.DomainOS][1] != 9 {
		t.Fatalf("block self = %v", blocks.Self[trace.DomainOS])
	}
}

func TestRunNoConflictAfterRelayout(t *testing.T) {
	tr, _ := conflictTrace(10)
	l := layout.New("fixed", tr.OS, 0)
	l.Place(0, 0)
	l.Place(1, 32) // adjacent: different sets
	res, err := Run(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Misses[trace.DomainOS] != 2 {
		t.Fatalf("misses = %d, want 2 cold only", res.Stats.Misses[trace.DomainOS])
	}
}

func TestRunBlockSpanningLines(t *testing.T) {
	p, _ := progtest.Linear(1, 64) // one 64-byte block spans two 32B lines
	l := layout.NewBase(p, 0)
	tr := &trace.Trace{Name: "t", OS: p,
		Events: []trace.Event{trace.BlockEvent(trace.DomainOS, 0)}}
	res, err := Run(tr, l, nil, cache.Config{Size: 1 << 10, Line: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Misses[trace.DomainOS] != 2 {
		t.Fatalf("misses = %d, want 2 (two lines)", res.Stats.Misses[trace.DomainOS])
	}
	if res.Stats.Refs[trace.DomainOS] != 16 {
		t.Fatalf("refs = %d, want 16", res.Stats.Refs[trace.DomainOS])
	}
}

func TestRunRequiresAppLayout(t *testing.T) {
	p, _ := progtest.Linear(1, 8)
	app, _ := progtest.Linear(1, 8)
	tr := &trace.Trace{Name: "t", OS: p, App: app,
		Events: []trace.Event{trace.BlockEvent(trace.DomainApp, 0)}}
	l := layout.NewBase(p, 0)
	if _, err := Run(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1}); err == nil {
		t.Fatal("missing app layout accepted")
	}
}

func TestRunRejectsForeignLayout(t *testing.T) {
	p, _ := progtest.Linear(1, 8)
	other, _ := progtest.Linear(1, 8)
	tr := &trace.Trace{Name: "t", OS: p}
	if _, err := Run(tr, layout.NewBase(other, 0), nil, cache.Config{Size: 64, Line: 32, Assoc: 1}); err == nil {
		t.Fatal("layout for another program accepted")
	}
}

func TestPartitionedSplitIsolatesDomains(t *testing.T) {
	// OS and app blocks that would conflict in a shared cache do not in a
	// way-partitioned one (the paper's Sep setup).
	osP, _ := progtest.Linear(1, 32)
	appP, _ := progtest.Linear(1, 32)
	osL := layout.New("os", osP, 0)
	osL.Place(0, 0)
	appL := layout.New("app", appP, AppBase)
	appL.Place(0, AppBase) // same cache set as the OS block in a 64B cache
	tr := &trace.Trace{Name: "t", OS: osP, App: appP}
	for i := 0; i < 10; i++ {
		tr.Events = append(tr.Events,
			trace.BlockEvent(trace.DomainOS, 0),
			trace.BlockEvent(trace.DomainApp, 0))
	}
	shared, err := Run(tr, osL, appL, cache.Config{Size: 64, Line: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	splitCfg := cache.Config{Size: 64, Line: 32, Assoc: 2,
		Part: cache.Partition{OSWays: 1, AppWays: 1}}
	ress, err := RunManyOpt(tr, osL, appL, []cache.Config{splitCfg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split := ress[0]
	if shared.Stats.TotalMisses() != 20 {
		t.Fatalf("shared misses = %d, want 20 (full thrash)", shared.Stats.TotalMisses())
	}
	if split.Stats.TotalMisses() != 2 {
		t.Fatalf("split misses = %d, want 2 cold", split.Stats.TotalMisses())
	}
	if split.Config.Size != 64 {
		t.Fatalf("split result config size = %d, want combined 64", split.Config.Size)
	}
}

func TestPartitionedReservedRoutesReservedLines(t *testing.T) {
	// Two OS blocks at conflicting addresses; reserving one of them routes
	// it to a dedicated way region and eliminates the conflict.
	tr, l := conflictTrace(10)
	cfg := cache.Config{Size: 128, Line: 32, Assoc: 2,
		Part: cache.Partition{ResvWays: 1}}
	setup := func(c *cache.Cache) error {
		// Block 1 sits at address 64 = line 2 under the 32B line size.
		return c.SetReservedLines([]uint64{2})
	}
	ress, err := RunManyOpt(tr, l, nil, []cache.Config{cfg},
		Options{Setups: []CacheSetup{setup}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ress[0].Stats.TotalMisses(); got != 2 {
		t.Fatalf("reserved-route misses = %d, want 2 cold", got)
	}
}

func TestMissAndRefHistograms(t *testing.T) {
	tr, l := conflictTrace(5)
	blocks := obs.NewBlockMisses(tr)
	if _, err := runObserved(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1}, blocks); err != nil {
		t.Fatal(err)
	}
	h := HistogramOf(blocks.Misses[trace.DomainOS], l, 64)
	// Block 0 at 0 (bucket 0), block 1 at 64 (bucket 1).
	if len(h) != 2 || h[0] != 5 || h[1] != 5 {
		t.Fatalf("miss histogram = %v", h)
	}
	hs := HistogramOf(blocks.Self[trace.DomainOS], l, 64)
	if hs[0] != 4 || hs[1] != 4 {
		t.Fatalf("self histogram = %v", hs)
	}
	tr.OS.Blocks[0].Weight = 5
	tr.OS.Blocks[1].Weight = 5
	hr := RefHistogram(tr.OS, l, 64)
	if hr[0] != 40 || hr[1] != 40 { // 5 executions × 8 words
		t.Fatalf("ref histogram = %v", hr)
	}
}

func TestRunUtilTracksLineUsage(t *testing.T) {
	// One 8-byte block (2 words) in a 32-byte-line cache: each eviction
	// should report 2 of 8 words used.
	p, _ := progtest.Linear(2, 8)
	l := layout.New("u", p, 0)
	l.Place(0, 0)
	l.Place(1, 64) // conflicts in a 64B DM cache
	tr := &trace.Trace{Name: "t", OS: p}
	for i := 0; i < 10; i++ {
		tr.Events = append(tr.Events,
			trace.BlockEvent(trace.DomainOS, 0),
			trace.BlockEvent(trace.DomainOS, 1))
	}
	res, util, err := RunUtil(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMisses() != 20 {
		t.Fatalf("misses = %d, want 20", res.Stats.TotalMisses())
	}
	// 19 evictions (the final resident line is not counted), each 2/8.
	if util.Evictions != 19 {
		t.Fatalf("evictions = %d, want 19", util.Evictions)
	}
	if got := util.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25 (2 of 8 words)", got)
	}
}

func TestRunUtilFullLineUsage(t *testing.T) {
	// A 32-byte block fills its line exactly: utilization 1.0.
	p, _ := progtest.Linear(2, 32)
	l := layout.New("u", p, 0)
	l.Place(0, 0)
	l.Place(1, 64)
	tr := &trace.Trace{Name: "t", OS: p}
	for i := 0; i < 5; i++ {
		tr.Events = append(tr.Events,
			trace.BlockEvent(trace.DomainOS, 0),
			trace.BlockEvent(trace.DomainOS, 1))
	}
	_, util, err := RunUtil(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := util.Utilization(); got != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
}

// trackedCache returns a cache of cfg with a utilization tracker attached,
// and a fetch that accesses an OS line and marks words [from, to] of it.
func trackedCache(t *testing.T, cfg cache.Config) (*cache.Cache, *utilTracker, func(line uint64, from, to int)) {
	t.Helper()
	c := cache.MustNew(cfg)
	u, err := trackUtil(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, u, func(line uint64, from, to int) {
		u.mark(line, c.AccessLine(line, trace.DomainOS), from, to)
	}
}

func wantUtil(t *testing.T, u *utilTracker, evictions, used, total uint64) {
	t.Helper()
	if want := (UtilStats{Evictions: evictions, WordsUsed: used, WordsTotal: total}); u.UtilStats != want {
		t.Fatalf("util = %+v, want %+v", u.UtilStats, want)
	}
}

// TestTrackUtilWideLine is the regression test for the line-utilization
// truncation bug: a 32-bit mask silently dropped use bits for words 32 and
// up, so lines over 128B under-reported utilization.
func TestTrackUtilWideLine(t *testing.T) {
	// 64 words per line; 4KB/256B DM has 16 sets, so lines 0, 16 and 32
	// share set 0.
	c, u, fetch := trackedCache(t, cache.Config{Size: 4 << 10, Line: 256, Assoc: 1})
	fetch(0, 32, 63) // entirely in the upper half of the mask
	fetch(16, 0, 63) // full line
	wantUtil(t, u, 1, 32, 64)
	// Evict the full-marked line too and check all 64 bits survived.
	c.AccessLine(32, trace.DomainOS)
	wantUtil(t, u, 2, 32+64, 128)
}

func TestTrackUtilRejectsOverwideLines(t *testing.T) {
	c := cache.MustNew(cache.Config{Size: 8 << 10, Line: 512, Assoc: 1}) // 128 words > 64-bit mask
	if _, err := trackUtil(c); err == nil {
		t.Fatal("512B line accepted for utilization tracking; mask would truncate")
	}
	c = cache.MustNew(cache.Config{Size: 8 << 10, Line: 256, Assoc: 1}) // exactly 64 words: fine
	if _, err := trackUtil(c); err != nil {
		t.Fatalf("256B line rejected: %v", err)
	}
}

// TestTrackUtilRefetchRestartsMask: in a 2-way LRU set, a line's mask
// accumulates over hits, is counted when the line is evicted, and restarts
// when the line is fetched again.
func TestTrackUtilRefetchRestartsMask(t *testing.T) {
	// 2 sets of 2 ways, 8 words per line: lines 0, 2 and 4 share set 0.
	_, u, fetch := trackedCache(t, cache.Config{Size: 128, Line: 32, Assoc: 2})
	fetch(0, 0, 1)
	fetch(0, 4, 5) // hit: line 0 has used 4 words
	fetch(2, 0, 0)
	fetch(4, 0, 0) // evicts line 0, the LRU way
	wantUtil(t, u, 1, 4, 8)
	fetch(0, 7, 7) // refetch: its mask restarts at one word; evicts line 2
	wantUtil(t, u, 2, 5, 16)
	fetch(4, 1, 1) // hit: line 0 is LRU again
	fetch(2, 0, 0) // evicts line 0 with one word used, not five
	wantUtil(t, u, 3, 6, 24)
}

// TestTrackUtilPartitionDrop: a line that a repartition drops is not
// counted, since the cache reports no eviction for it, and its mask restarts
// on its next fetch.
func TestTrackUtilPartitionDrop(t *testing.T) {
	// One set of 4 ways, 8 words per line.
	c, u, fetch := trackedCache(t, cache.Config{Size: 128, Line: 32, Assoc: 4,
		Part: cache.Partition{OSWays: 2, AppWays: 2}})
	fetch(0, 0, 3)
	fetch(1, 0, 0)
	// The OS region shrinks to one way: it keeps line 1, its MRU line, and
	// drops line 0.
	if err := c.SetPartition(cache.Partition{OSWays: 1, AppWays: 3}, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Repartitions().Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	wantUtil(t, u, 0, 0, 0)
	fetch(0, 0, 0) // misses, restarting line 0's mask; evicts line 1
	wantUtil(t, u, 1, 1, 8)
	fetch(1, 0, 0) // evicts line 0 with one word used, not four
	wantUtil(t, u, 2, 2, 16)
}
