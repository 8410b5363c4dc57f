package strategy_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"oslayout"
	"oslayout/internal/core"
	"oslayout/internal/expt"
	"oslayout/internal/strategy"
)

// TestCacheConcurrentBuilds hammers one Cache from many goroutines — the
// serve daemon's concurrent-jobs shape — mixing repeated requests for the
// same key with distinct keys (different strategies, sizes and custom
// builds). Run under -race: layout construction mutates the kernel
// program's weight fields, so every build must serialise under the cache
// lock, and SetRecorder and Loops must be safe against in-flight builds.
// Every plan must share the cache's one loop analysis.
func TestCacheConcurrentBuilds(t *testing.T) {
	st := testStudy(t)
	c := strategy.NewCache(st)

	var wg sync.WaitGroup
	rec := oslayout.NewRecorder()
	names := []string{"base", "ch", "ph", "opts"}
	sizes := []int{4 << 10, 8 << 10}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Flip the recorder mid-flight from half the goroutines.
			if g%2 == 0 {
				c.SetRecorder(rec)
			}
			for i := 0; i < 6; i++ {
				if (g+i)%3 == 0 && len(c.Loops()) == 0 {
					t.Error("the kernel has no loops")
					return
				}
				name := names[(g+i)%len(names)]
				size := sizes[i%len(sizes)]
				b, err := c.Build(name, strategy.Params{CacheSize: size})
				if err != nil {
					t.Errorf("%s/%d: %v", name, size, err)
					return
				}
				if err := b.Layout.Validate(); err != nil {
					t.Errorf("%s/%d: invalid layout: %v", name, size, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Memoization must have collapsed the hammering to one build per
	// distinct key: base/ch/ph are size-independent (1 each), opts is
	// size-dependent (2).
	hits, misses := c.Stats()
	if want := uint64(5); misses != want {
		t.Errorf("cache misses = %d, want %d (one per distinct key)", misses, want)
	}
	if hits == 0 {
		t.Error("concurrent hammering produced no cache hits")
	}

	// Same key requested twice returns the identical product.
	a, err := c.Build("opts", strategy.Params{CacheSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build("opts", strategy.Params{CacheSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated Build returned distinct products")
	}
	for _, size := range sizes {
		b, err := c.Build("opts", strategy.Params{CacheSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if loops := c.Loops(); &b.Plan.Loops[0] != &loops[0] || len(b.Plan.Loops) != len(loops) {
			t.Errorf("opts/%d: plan does not share the cache's loop analysis", size)
		}
	}
}

// TestConcurrentBuildStrategy is the public-API face of the same property:
// concurrent Study.BuildStrategy and Study.Optimize calls — same key and
// different keys — must be safe and deterministic. Before builds were
// routed through the study's cache, this raced on the kernel program's
// weight fields. The Optimize calls use a non-default SelfConfFree cutoff,
// a parameter variant outside the strategy registry.
func TestConcurrentBuildStrategy(t *testing.T) {
	st := testStudy(t)
	params := oslayout.DefaultPlacementParams(8 << 10)
	params.Name = "OptS-scf0.01"
	params.SelfConfFreeCutoff = 0.01
	build := func(st *oslayout.Study, name string) (*oslayout.Layout, error) {
		if name == "optimize" {
			plan, err := st.Optimize(params)
			if err != nil {
				return nil, err
			}
			return plan.Layout, nil
		}
		l, _, err := st.BuildStrategy(name, 8<<10)
		return l, err
	}
	names := []string{"ch", "opts", "optimize"}

	// Reference placements, built serially on a second identical study.
	ref := testStudy(t)
	refAddr := map[string][]uint64{}
	for _, name := range names {
		l, err := build(ref, name)
		if err != nil {
			t.Fatal(err)
		}
		refAddr[name] = l.Addr
	}

	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := names[g%len(names)]
			l, err := build(st, name)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			want := refAddr[name]
			if len(l.Addr) != len(want) {
				t.Errorf("%s: %d placed blocks, want %d", name, len(l.Addr), len(want))
				return
			}
			for blk, addr := range l.Addr {
				if want[blk] != addr {
					t.Errorf("%s: block %d at %#x, want %#x — concurrent builds perturbed placement",
						name, blk, addr, want[blk])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSkeletonBuilds builds every registered strategy at every
// size, and Figure 16's parameter sets, concurrently on one study, as the
// serve daemon's parallel jobs do. Every goroutine requests every build, in
// its own order, so the first request for the averaged profile's skeleton
// races the others. Each placement must match the serial build on a second
// identical study, each distinct key must build once, and every placement
// must share the one skeleton's sequences. Run under -race.
func TestConcurrentSkeletonBuilds(t *testing.T) {
	type request struct {
		name   string
		size   int
		params *oslayout.PlacementParams
	}
	var reqs []request
	sizes := []int{4 << 10, 8 << 10, 16 << 10}
	for _, name := range strategy.Names() {
		for _, size := range sizes {
			reqs = append(reqs, request{name: name, size: size})
		}
	}
	for _, size := range sizes {
		for _, cut := range expt.Figure16Cutoffs {
			p := oslayout.DefaultPlacementParams(size)
			p.SelfConfFreeCutoff = cut
			p.Name = fmt.Sprintf("OptS-scf%g", cut)
			reqs = append(reqs, request{name: p.Name, size: size, params: &p})
		}
	}
	build := func(st *oslayout.Study, r request) (*oslayout.Layout, *oslayout.Plan, error) {
		if r.params == nil {
			return st.BuildStrategy(r.name, r.size)
		}
		plan, err := st.Optimize(*r.params)
		if err != nil {
			return nil, nil, err
		}
		return plan.Layout, plan, nil
	}

	ref := testStudy(t)
	want := make([][]uint64, len(reqs))
	for i, r := range reqs {
		l, _, err := build(ref, r)
		if err != nil {
			t.Fatalf("%s/%d: %v", r.name, r.size, err)
		}
		want[i] = l.Addr
	}

	st := testStudy(t)
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range reqs {
				i := (j + g*len(reqs)/workers) % len(reqs)
				r := reqs[i]
				l, _, err := build(st, r)
				if err != nil {
					t.Errorf("%s/%d: %v", r.name, r.size, err)
					return
				}
				if !slices.Equal(l.Addr, want[i]) {
					t.Errorf("%s/%d: concurrent build placed blocks differently from the serial one", r.name, r.size)
				}
			}
		}(g)
	}
	wg.Wait()

	// Five size-independent strategies, three optimisers at three sizes
	// and fifteen Figure 16 parameter sets.
	if _, misses := st.StrategyCache().Stats(); misses != 5+9+15 {
		t.Errorf("cache misses = %d, want %d (one per distinct key)", misses, 5+9+15)
	}
	var seqs *core.Sequence
	for _, r := range reqs {
		_, plan, err := build(st, r)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil {
			continue
		}
		if seqs == nil {
			seqs = &plan.Sequences[0]
		} else if &plan.Sequences[0] != seqs {
			t.Errorf("%s/%d: plan does not share the averaged profile's skeleton", r.name, r.size)
		}
	}
}
