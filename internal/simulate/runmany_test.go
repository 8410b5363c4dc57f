package simulate

import (
	"math/rand"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// mixedTrace builds a representative two-domain trace: an OS program and an
// application program with varied block sizes (1 to 5 lines each at 32B),
// a locality-skewed random event stream, and invocation markers sprinkled
// in (RunManyOpt must skip them exactly like Run does).
func mixedTrace(events int, seed int64) (*trace.Trace, *layout.Layout, *layout.Layout) {
	sizes := []int32{4, 8, 12, 20, 32, 36, 64, 100, 144, 8, 16, 24, 60}
	build := func(name string, n int) *program.Program {
		p := program.New(name)
		r := p.AddRoutine("r")
		for i := 0; i < n; i++ {
			p.AddBlock(r, sizes[i%len(sizes)])
		}
		return p
	}
	osP := build("os", 48)
	appP := build("app", 24)
	osL := layout.NewBase(osP, 0)
	appL := layout.NewBase(appP, AppBase)

	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "mixed", OS: osP, App: appP}
	hotOS := []program.BlockID{1, 2, 3, 7, 11}
	for i := 0; i < events; i++ {
		switch {
		case i%97 == 0:
			tr.Events = append(tr.Events, trace.BeginEvent(program.SeedClass(rng.Intn(2))))
		case i%97 == 50:
			tr.Events = append(tr.Events, trace.EndEvent())
		case rng.Intn(3) == 0:
			b := program.BlockID(rng.Intn(appP.NumBlocks()))
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainApp, b))
		case rng.Intn(2) == 0:
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, hotOS[rng.Intn(len(hotOS))]))
		default:
			b := program.BlockID(rng.Intn(osP.NumBlocks()))
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, b))
		}
	}
	return tr, osL, appL
}

// equivalenceGrid mixes line sizes, direct-mapped and 2/4-way geometries,
// power-of-two and modulo set counts, and LRU and random replacement.
var equivalenceGrid = []cache.Config{
	{Size: 1 << 10, Line: 16, Assoc: 1},
	// Nested direct-mapped power-of-two sizes at one line size, listed out
	// of order: these form the inclusion chain inside RunManyOpt.
	{Size: 4 << 10, Line: 32, Assoc: 1},
	{Size: 1 << 10, Line: 32, Assoc: 1},
	{Size: 2 << 10, Line: 32, Assoc: 1},
	{Size: 1536, Line: 32, Assoc: 1}, // 48 sets: modulo indexing
	{Size: 2 << 10, Line: 32, Assoc: 2},
	{Size: 2 << 10, Line: 64, Assoc: 4},
	{Size: 2 << 10, Line: 32, Assoc: 4, Policy: cache.RandomReplacement},
	{Size: 1536, Line: 16, Assoc: 2, Policy: cache.RandomReplacement},
	{Size: 4 << 10, Line: 128, Assoc: 1},
	{Size: 4 << 10, Line: 256, Assoc: 2},
	// The 32 B chain's two extremes: one set, where every line change
	// conflicts, and 1M sets spanning both images (the application sits at
	// AppBase = 16 MB), where nothing is ever evicted.
	{Size: 32, Line: 32, Assoc: 1},
	{Size: 32 << 20, Line: 32, Assoc: 1},
}

func TestRunManyMatchesIndividualRuns(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	many, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(equivalenceGrid) {
		t.Fatalf("got %d results for %d configs", len(many), len(equivalenceGrid))
	}
	for i, cfg := range equivalenceGrid {
		one, err := Run(tr, osL, appL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, many[i]) {
			t.Errorf("%v: RunManyOpt result differs from Run\n  Run:        %+v\n  RunManyOpt: %+v",
				cfg, one.Stats, many[i].Stats)
		}
		if many[i].Stats.TotalMisses() == 0 {
			t.Errorf("%v: degenerate run with zero misses", cfg)
		}
	}
}

func TestRunManyOSOnlyTrace(t *testing.T) {
	tr, osL := conflictTrace(10)
	cfgs := []cache.Config{
		{Size: 64, Line: 32, Assoc: 1},
		{Size: 128, Line: 32, Assoc: 1},
		{Size: 64, Line: 64, Assoc: 1},
	}
	many, err := RunManyOpt(tr, osL, nil, cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		one, err := Run(tr, osL, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, many[i]) {
			t.Errorf("%v: mismatch (many %+v, one %+v)", cfg, many[i].Stats, one.Stats)
		}
	}
	// The 64B DM cache thrashes; the 128B one holds both lines.
	if many[0].Stats.TotalMisses() != 20 || many[1].Stats.TotalMisses() != 2 {
		t.Errorf("misses = %d/%d, want 20/2", many[0].Stats.TotalMisses(), many[1].Stats.TotalMisses())
	}
}

func TestRunManyValidation(t *testing.T) {
	tr, osL := conflictTrace(2)
	if _, err := RunManyOpt(tr, osL, nil, []cache.Config{{Size: 100, Line: 32, Assoc: 1}}, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	other, _, _ := mixedTrace(10, 1)
	foreign := layout.NewBase(other.OS, 0)
	if _, err := RunManyOpt(tr, foreign, nil, []cache.Config{{Size: 64, Line: 32, Assoc: 1}}, Options{}); err == nil {
		t.Error("foreign layout accepted")
	}
	res, err := RunManyOpt(tr, osL, nil, nil, Options{})
	if err != nil || len(res) != 0 {
		t.Errorf("empty config list: res=%v err=%v", res, err)
	}
}
