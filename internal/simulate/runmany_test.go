package simulate

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
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

// TestBuildUnitsDealsItems checks the drive's unit rule: a stream's
// inclusion chain is one item, each other cache another, and the items are
// dealt round-robin into min(items, ⌈workers/streams⌉) units. Whatever the
// split, every config lands in exactly one unit, and a chain stays whole,
// in ascending set order, in its stream's first unit.
func TestBuildUnitsDealsItems(t *testing.T) {
	rest := cache.Config{Size: 8 << 10, Line: 32, Assoc: 8}
	chain := []cache.Config{
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 1},
	}
	repeat := func(c cache.Config, n int) []cache.Config {
		out := make([]cache.Config, n)
		for i := range out {
			out[i] = c
		}
		return out
	}
	cases := []struct {
		name    string
		streams [][]cache.Config
		workers int
		sizes   []int // configs per unit, in unit order
	}{
		{"two streams x three rest", [][]cache.Config{repeat(rest, 3), repeat(rest, 3)}, 2, []int{3, 3}},
		{"one stream x eight rest", [][]cache.Config{repeat(rest, 8)}, 2, []int{4, 4}},
		{"chain plus one rest", [][]cache.Config{append(append([]cache.Config{}, chain...), rest)}, 2, []int{3, 1}},
		{"chain plus three rest", [][]cache.Config{append(append([]cache.Config{}, chain...), rest, rest, rest)}, 2, []int{4, 2}},
		{"chain only, workers 2", [][]cache.Config{chain, chain}, 2, []int{3, 3}},
		{"chain only, workers 64", [][]cache.Config{chain, chain}, 64, []int{3, 3}},
		{"workers 1", [][]cache.Config{append(append([]cache.Config{}, chain...), rest, rest), repeat(rest, 4)}, 1, []int{5, 4}},
		{"more workers than caches", [][]cache.Config{repeat(rest, 3)}, 8, []int{1, 1, 1}},
	}
	for _, c := range cases {
		var caches []*cache.Cache
		var members [][]int
		var observers []obs.Observer
		owner := map[obs.Observer]int{}
		for _, cfgs := range c.streams {
			var idx []int
			for _, cfg := range cfgs {
				o := &seqObserver{}
				owner[o] = len(caches)
				idx = append(idx, len(caches))
				caches = append(caches, cache.MustNew(cfg))
				observers = append(observers, o)
			}
			members = append(members, idx)
		}
		units := buildUnits(members, caches, func(i int) obs.Observer { return observers[i] }, c.workers)
		if len(units) != len(c.sizes) {
			t.Errorf("%s: %d units, want %d", c.name, len(units), len(c.sizes))
			continue
		}
		seen := make([]int, len(caches))
		for u, unit := range units {
			if n := len(unit.chain) + len(unit.rest); n != c.sizes[u] {
				t.Errorf("%s: unit %d holds %d configs, want %d", c.name, u, n, c.sizes[u])
			}
			sets := 0
			for _, r := range unit.chain {
				i := owner[r.obs]
				if !caches[i].DirectMappedPow2() || caches[i].Sets() <= sets {
					t.Errorf("%s: unit %d chain out of ascending set order", c.name, u)
				}
				sets = caches[i].Sets()
			}
			// Every config here has an observer, so the runners' observers
			// name the configs the unit drives, and ws lists them all.
			var driven []obs.Observer
			for _, r := range unit.chain {
				driven = append(driven, r.obs)
			}
			for _, r := range unit.rest {
				driven = append(driven, r.obs)
			}
			for _, o := range driven {
				i := owner[o]
				seen[i]++
				if !slices.Contains(members[unit.stream], i) {
					t.Errorf("%s: config %d driven from stream %d", c.name, i, unit.stream)
				}
			}
			if !slices.Equal(unit.ws, driven) {
				t.Errorf("%s: unit %d watches %d observers, not its %d runners' in order", c.name, u, len(unit.ws), len(driven))
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("%s: config %d is in %d units", c.name, i, n)
			}
		}
	}
}
