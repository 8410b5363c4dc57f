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
