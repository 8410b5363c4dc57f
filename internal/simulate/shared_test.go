package simulate

import (
	"fmt"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/trace"
)

// asMulti wraps a materialised trace as a multi-CPU trace with a synthetic
// round-robin run schedule of varying lengths (1, 2, 3, ... events per
// turn, cycling the CPUs), covering every event exactly once.
func asMulti(tr *trace.Trace, cpus int) *trace.MultiTrace {
	mt := &trace.MultiTrace{Trace: tr, CPUs: cpus}
	n := len(tr.Events)
	pos, turn := 0, 0
	for pos < n {
		run := trace.CPURun{CPU: turn % cpus, Events: min(turn%7+1, n-pos)}
		for _, e := range tr.Events[pos : pos+run.Events] {
			if e.IsBlock() {
				run.Blocks++
			}
		}
		mt.Runs = append(mt.Runs, run)
		pos += run.Events
		turn++
	}
	return mt
}

// TestSharedSingleCPUMatchesRunMany is the bit-identity guarantee: with one
// CPU the shared drive must reproduce the single-CPU engine's results
// exactly — same stats, same per-class miss counts — over the full
// equivalence grid, even with the CPU schedule chopped into many runs.
func TestSharedSingleCPUMatchesRunMany(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	want, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunShared(asMulti(tr, 1), []Group{{OS: osL, App: appL, Configs: equivalenceGrid}}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range equivalenceGrid {
		if !reflect.DeepEqual(want[i], got[i].Result) {
			t.Errorf("%v: shared single-CPU result differs from RunManyOpt\n  want: %+v\n  got:  %+v",
				equivalenceGrid[i], want[i].Stats, got[i].Stats)
		}
	}
}

// TestSharedWorkerIdentity checks that results — including the per-CPU
// books and the eviction attribution matrix — are bit-identical at every
// worker count.
func TestSharedWorkerIdentity(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 7)
	mt := asMulti(tr, 3)
	want, err := RunShared(mt, []Group{{OS: osL, App: appL, Configs: equivalenceGrid}}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := RunShared(mt, []Group{{OS: osL, App: appL, Configs: equivalenceGrid}}, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range equivalenceGrid {
				if !reflect.DeepEqual(want[i].Result, got[i].Result) {
					t.Errorf("%v: stats differ across worker counts", equivalenceGrid[i])
				}
				if !reflect.DeepEqual(want[i].CPU, got[i].CPU) {
					t.Errorf("%v: per-CPU books differ across worker counts", equivalenceGrid[i])
				}
				if want[i].Evictions != got[i].Evictions {
					t.Errorf("%v: eviction counts differ across worker counts", equivalenceGrid[i])
				}
			}
		})
	}
}

// TestSharedStreamedMatchesMaterialised checks the merged stream replays
// identically through the chunked header-only pipeline.
func TestSharedStreamedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 11)
	mt := asMulti(tr, 4)
	want, err := RunShared(mt, []Group{{OS: osL, App: appL, Configs: equivalenceGrid}}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1 << 10, 64 << 10, len(tr.Events) + 1} {
		view := &trace.MultiTrace{Trace: tr.ChunkView(chunk), CPUs: mt.CPUs, Runs: mt.Runs}
		got, err := RunShared(view, []Group{{OS: osL, App: appL, Configs: equivalenceGrid}}, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range equivalenceGrid {
			if !reflect.DeepEqual(want[i].Result, got[i].Result) ||
				!reflect.DeepEqual(want[i].CPU, got[i].CPU) ||
				want[i].Evictions != got[i].Evictions {
				t.Errorf("chunk %d %v: streamed shared replay differs from materialised",
					chunk, equivalenceGrid[i])
			}
		}
	}
}

// TestSharedGroupsMatchPerGroupRuns is the grouped shared replay's
// contract: one RunShared under several layout pairs equals one RunShared
// per group — the same Results, per-CPU books and eviction counts and, for
// every observed configuration, the same Begin/Event/Miss/Evict sequence
// reaching the observer the books wrap. The groups are layoutGroups'
// (partition controllers bound as setups) over a 3-CPU schedule; the
// grouped replay runs materialised and header-only at chunk sizes that
// split unevenly across the groups, at workers 1 and 8, and must open a
// header-only trace's source exactly once.
func TestSharedGroupsMatchPerGroupRuns(t *testing.T) {
	tr, osL, appL := mixedTrace(12_000, 42)
	mt := asMulti(tr, 3)
	groups, sp := layoutGroups(t, osL, appL)

	var want groupRun
	var wantShared []*SharedResult
	for _, g := range groups {
		observers, setups, run := attachObservers(sp, g.Configs)
		res, err := RunShared(mt, []Group{g}, Options{Observers: observers, Setups: setups})
		if err != nil {
			t.Fatal(err)
		}
		wantShared = append(wantShared, res...)
		want.seqs = append(want.seqs, run.seqs...)
		want.ctrls = append(want.ctrls, run.ctrls...)
	}
	var all []cache.Config
	for _, g := range groups {
		all = append(all, g.Configs...)
	}
	if !repartitioned(want) {
		t.Fatal("no controller repartitioned; the dynamic group exercises nothing")
	}

	for _, chunk := range []int{0, 100, 333, 1 << 10} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("chunk=%d/workers=%d", chunk, workers), func(t *testing.T) {
				src, opens := mt, 0
				if chunk > 0 {
					view := tr.ChunkView(chunk)
					open := view.Source
					view.Source = func() trace.Reader {
						opens++
						return open()
					}
					src = &trace.MultiTrace{Trace: view, CPUs: mt.CPUs, Runs: mt.Runs}
				}
				observers, setups, got := attachObservers(sp, all)
				res, err := RunShared(src, groups, Options{Observers: observers, Setups: setups, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if chunk > 0 && opens != 1 {
					t.Errorf("header-only merged trace opened %d times in one call, want once", opens)
				}
				for i, cfg := range all {
					w, g := wantShared[i], res[i]
					if !reflect.DeepEqual(w.Result, g.Result) || !reflect.DeepEqual(w.CPU, g.CPU) || w.Evictions != g.Evictions {
						t.Errorf("config %d %v: grouped shared result differs from its group's RunShared\n  want: %+v (%d evictions)\n  got:  %+v (%d evictions)",
							i, cfg, w.Stats, w.Evictions, g.Stats, g.Evictions)
					}
					checkObserved(t, i, cfg, want, got)
				}
			})
		}
	}
}

// TestSharedEvictionAttribution checks the attribution invariant on small,
// conflict-heavy caches — partitioned and not: the (installer, evictor)
// matrix sums exactly to the replay's eviction count, cross-CPU evictions
// never exceed it, and per-CPU refs/misses sum to the cache totals.
func TestSharedEvictionAttribution(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 23)
	mt := asMulti(tr, 3)
	cfgs := []cache.Config{
		{Size: 512, Line: 32, Assoc: 1},
		{Size: 1 << 10, Line: 32, Assoc: 4},
		{Size: 1 << 10, Line: 32, Assoc: 4, Part: cache.Partition{OSWays: 3, AppWays: 1}},
	}
	ress, err := RunShared(mt, []Group{{OS: osL, App: appL, Configs: cfgs}}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range ress {
		if res.Evictions == 0 {
			t.Errorf("%v: no evictions on a conflict-heavy cache", cfgs[i])
		}
		if got := res.CPU.EvictionTotal(); got != res.Evictions {
			t.Errorf("%v: attribution matrix sums to %d of %d evictions", cfgs[i], got, res.Evictions)
		}
		if cross := res.CPU.CrossEvictions(); cross > res.Evictions {
			t.Errorf("%v: %d cross-CPU evictions exceed the %d total", cfgs[i], cross, res.Evictions)
		}
		var refs, misses uint64
		for cpu := 0; cpu < mt.CPUs; cpu++ {
			refs += res.CPU.Refs[cpu][0] + res.CPU.Refs[cpu][1]
			misses += res.CPU.Misses[cpu][0] + res.CPU.Misses[cpu][1]
		}
		if refs != res.Stats.TotalRefs() {
			t.Errorf("%v: per-CPU refs sum to %d, cache counted %d", cfgs[i], refs, res.Stats.TotalRefs())
		}
		if misses != res.Stats.TotalMisses() {
			t.Errorf("%v: per-CPU misses sum to %d, cache counted %d", cfgs[i], misses, res.Stats.TotalMisses())
		}
	}
}

// TestSharedRejectsBadSchedule checks the schedule gating: a schedule that
// does not cover the stream, in raw events or in block events, is refused
// up front.
func TestSharedRejectsBadSchedule(t *testing.T) {
	tr, osL, appL := mixedTrace(1_000, 3)
	groups := []Group{{OS: osL, App: appL, Configs: equivalenceGrid[:1]}}
	mt := asMulti(tr, 2)
	mt.Runs = mt.Runs[:len(mt.Runs)-1]
	if _, err := RunShared(mt, groups, Options{}); err == nil {
		t.Fatal("schedule short of the stream accepted")
	}
	mt = asMulti(tr, 2)
	for i := range mt.Runs {
		if mt.Runs[i].Blocks > 0 {
			mt.Runs[i].Blocks--
			break
		}
	}
	if _, err := RunShared(mt, groups, Options{}); err == nil {
		t.Fatal("schedule short of the stream's block events accepted")
	}
}
