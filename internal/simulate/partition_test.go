package simulate

import (
	"errors"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/trace"
)

// partitionedGrid extends the equivalence grid with way-partitioned
// organisations: the Sep-style static split, a reserved+shared layout and a
// wider asymmetric split.
func partitionedGrid() []cache.Config {
	grid := append([]cache.Config{}, equivalenceGrid...)
	return append(grid,
		cache.Config{Size: 2 << 10, Line: 32, Assoc: 2,
			Part: cache.Partition{OSWays: 1, AppWays: 1}},
		cache.Config{Size: 4 << 10, Line: 32, Assoc: 4,
			Part: cache.Partition{ResvWays: 1}},
		cache.Config{Size: 8 << 10, Line: 32, Assoc: 8,
			Part: cache.Partition{OSWays: 5, AppWays: 2}},
	)
}

// TestPartitionNeutralityAndWorkers drives the equivalence grid plus
// partitioned configs through every engine mode (materialised and streamed,
// workers 1/2/8) and checks all runs are bit-identical to the sequential
// materialised reference — a partitioned cache's repartitioning touches
// only its own cache, whichever drive unit it shares, so parallel fan-out
// must not perturb it, and unpartitioned configs must be
// byte-for-byte what they were before the partition refactor (they share
// the batch with partitioned ones here).
func TestPartitionNeutralityAndWorkers(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 99)
	cfgs := partitionedGrid()
	want, err := RunManyOpt(tr, osL, appL, cfgs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if !cfg.Part.Enabled() {
			one, err := Run(tr, osL, appL, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, want[i]) {
				t.Errorf("%v: batched result differs from direct Run", cfg)
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, streamed := range []bool{false, true} {
			src := tr
			if streamed {
				src = tr.ChunkView(1 << 10)
			}
			got, err := RunManyOpt(src, osL, appL, cfgs, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Errorf("workers=%d streamed=%v %v: result differs from reference",
						workers, streamed, cfgs[i])
				}
			}
		}
	}
}

// legacySplitReplay reproduces the deleted RunSplit model exactly: two
// independent caches, fetches routed by domain, statistics summed, with the
// oracle's per-block attribution.
func legacySplitReplay(tr *trace.Trace, osL, appL *layout.Layout, osCfg, appCfg cache.Config) (cache.Stats, *obs.BlockMisses) {
	osc := cache.MustNew(osCfg)
	apc := cache.MustNew(appCfg)
	blocks := blockOracle(tr, osL, appL, func(d trace.Domain) *cache.Cache {
		if d == trace.DomainApp {
			return apc
		}
		return osc
	})
	st := osc.Stats
	st.Add(&apc.Stats)
	return st, blocks
}

// TestPartitionedSplitMatchesLegacyTwoCache pins the Sep migration: folding
// two equal direct-mapped halves into one way-partitioned cache
// (oslayout.CombineSplit's geometry) reproduces the historical two-cache
// replay bit for bit — same per-block miss attribution, same per-domain
// stats.
func TestPartitionedSplitMatchesLegacyTwoCache(t *testing.T) {
	tr, osL, appL := mixedTrace(25_000, 4)
	half := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	legacy, legacyBlocks := legacySplitReplay(tr, osL, appL, half, half)

	combined := cache.Config{Size: 2 << 10, Line: 32, Assoc: 2,
		Part: cache.Partition{OSWays: 1, AppWays: 1}}
	blocks := obs.NewBlockMisses(tr)
	got, err := runObserved(tr, osL, appL, combined, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != legacy {
		t.Fatalf("partitioned stats %+v, legacy two-cache %+v", got.Stats, legacy)
	}
	if !reflect.DeepEqual(blocks, legacyBlocks) {
		t.Fatal("partitioned per-block miss attribution differs from legacy two-cache replay")
	}
}

// TestDynamicPartitionStreamedMatchesMaterialised checks a dynamic
// repartitioning controller is deterministic across engine modes: windows
// are event-count based, so a streamed replay repartitions at exactly the
// same points as a materialised one, at any worker count.
func TestDynamicPartitionStreamedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(40_000, 13)
	sp, err := partition.Parse("interval,every=2,grain=1")
	if err != nil {
		t.Fatal(err)
	}
	sp, err = sp.WithDefaults(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{Size: 8 << 10, Line: 32, Assoc: 8, Part: sp.Initial()}

	type runOut struct {
		res  *Result
		ctrl *partition.Controller
	}
	do := func(src *trace.Trace, workers int) runOut {
		ctrl := partition.NewController(sp, 16, nil)
		ress, err := RunManyOpt(src, osL, appL, []cache.Config{cfg}, Options{
			Observers: []obs.Observer{ctrl},
			Setups:    []CacheSetup{ctrl.Bind},
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Err(); err != nil {
			t.Fatal(err)
		}
		return runOut{ress[0], ctrl}
	}
	want := do(tr, 1)
	if want.ctrl.Events().Events == 0 {
		t.Fatal("controller never repartitioned; the scenario exercises nothing")
	}
	for _, workers := range []int{2, 8} {
		for _, streamed := range []bool{false, true} {
			src := tr
			if streamed {
				src = tr.ChunkView(1 << 10)
			}
			got := do(src, workers)
			if !reflect.DeepEqual(want.res, got.res) {
				t.Errorf("workers=%d streamed=%v: result differs", workers, streamed)
			}
			if want.ctrl.Final() != got.ctrl.Final() || want.ctrl.Events() != got.ctrl.Events() {
				t.Errorf("workers=%d streamed=%v: controller state differs (final %v vs %v, events %+v vs %+v)",
					workers, streamed, want.ctrl.Final(), got.ctrl.Final(), want.ctrl.Events(), got.ctrl.Events())
			}
		}
	}
}

// TestSetupErrorsPropagate: a failing CacheSetup aborts the run, and a
// mis-sized Setups slice is rejected up front.
func TestSetupErrorsPropagate(t *testing.T) {
	tr, osL, appL := mixedTrace(1_000, 3)
	cfg := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	boom := errors.New("boom")
	_, err := RunManyOpt(tr, osL, appL, []cache.Config{cfg}, Options{
		Setups: []CacheSetup{func(*cache.Cache) error { return boom }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("setup error not propagated: %v", err)
	}
	_, err = RunManyOpt(tr, osL, appL, []cache.Config{cfg, cfg}, Options{
		Setups: []CacheSetup{nil},
	})
	if err == nil {
		t.Fatal("mis-sized Setups accepted")
	}
}
