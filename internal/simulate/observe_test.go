package simulate

import (
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// runObserved replays one configuration with one observer attached.
func runObserved(t *trace.Trace, osL, appL *layout.Layout, cfg cache.Config, o obs.Observer) (*Result, error) {
	ress, err := RunManyOpt(t, osL, appL, []cache.Config{cfg}, Options{Observers: []obs.Observer{o}})
	if err != nil {
		return nil, err
	}
	return ress[0], nil
}

// TestRunManyObserverNeutrality is the observer-neutrality guard: across
// the mixed 13-config equivalence grid, RunManyOpt with a recording
// observer on every configuration and RunManyOpt with nil observers must
// produce bit-identical Results — observation may only read, never perturb.
// The cases also cover partial attachment (only some configs observed) and
// a single observed configuration.
func TestRunManyObserverNeutrality(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	plain, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		attach func(i int) obs.Observer
	}{
		{"all-observed", func(i int) obs.Observer { return obs.NewSimStats(16) }},
		{"every-other", func(i int) obs.Observer {
			if i%2 == 0 {
				return obs.NewSimStats(8)
			}
			return nil
		}},
		{"single", func(i int) obs.Observer {
			if i == 3 {
				return obs.NewSimStats(0)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			observers := make([]obs.Observer, len(equivalenceGrid))
			stats := make([]*obs.SimStats, len(equivalenceGrid))
			for i := range observers {
				o := tc.attach(i)
				observers[i] = o
				if o != nil {
					stats[i] = o.(*obs.SimStats)
				}
			}
			observed, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Observers: observers})
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range equivalenceGrid {
				if !reflect.DeepEqual(plain[i], observed[i]) {
					t.Errorf("%v: observed result differs from the unobserved replay\n  plain:    %+v\n  observed: %+v",
						cfg, plain[i].Stats, observed[i].Stats)
				}
				s := stats[i]
				if s == nil {
					continue
				}
				// The observer's own books must agree with the result.
				if got, want := s.TotalMisses(), plain[i].Stats.TotalMisses(); got != want {
					t.Errorf("%v: observer counted %d misses, result has %d", cfg, got, want)
				}
				cold, self, cross := s.Provenance()
				st := &plain[i].Stats
				if cold != st.Cold[0]+st.Cold[1] || self != st.Self[0]+st.Self[1] || cross != st.Cross[0]+st.Cross[1] {
					t.Errorf("%v: observer provenance %d/%d/%d, result %v/%v/%v",
						cfg, cold, self, cross, st.Cold, st.Self, st.Cross)
				}
				var winRefs, winMisses uint64
				for _, w := range s.Windows {
					winRefs += w.Refs
					winMisses += w.Misses
				}
				if winRefs != st.TotalRefs() || winMisses != st.TotalMisses() {
					t.Errorf("%v: windowed series sums to %d refs/%d misses, result has %d/%d",
						cfg, winRefs, winMisses, st.TotalRefs(), st.TotalMisses())
				}
				var setCold uint64
				for _, n := range s.SetCold {
					setCold += n
				}
				if setCold == 0 {
					t.Errorf("%v: observer saw no cold misses", cfg)
				}
				if s.Evictions > 0 && len(s.TopPairs(5)) == 0 {
					t.Errorf("%v: %d evictions but no conflict pairs", cfg, s.Evictions)
				}
			}
		})
	}

	// A single observed configuration must match Run.
	for _, cfg := range equivalenceGrid[:3] {
		one, err := Run(tr, osL, appL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ob := obs.NewSimStats(0)
		got, err := runObserved(tr, osL, appL, cfg, ob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, got) {
			t.Errorf("%v: observed replay differs from Run", cfg)
		}
		if ob.TotalMisses() != one.Stats.TotalMisses() {
			t.Errorf("%v: observer misses %d, want %d", cfg, ob.TotalMisses(), one.Stats.TotalMisses())
		}
	}
}

func TestRunManyObservedValidation(t *testing.T) {
	tr, osL := conflictTrace(4)
	cfgs := []cache.Config{{Size: 64, Line: 32, Assoc: 1}}
	if _, err := RunManyOpt(tr, osL, nil, cfgs, Options{Observers: make([]obs.Observer, 2)}); err == nil {
		t.Error("mismatched observer count accepted")
	}
}

// BenchmarkRunManyNilObserver is the regression guard for the nil-observer
// fast path: a Figure 15/17-style mixed grid driven with observers
// explicitly nil. Compare across commits — any growth here is observer
// gating leaking onto the unobserved hot path. (The root package's
// BenchmarkRunMany guards the same property on the paper's Shell trace.)
func BenchmarkRunManyNilObserver(b *testing.B) {
	tr, osL, appL := mixedTrace(200_000, 7)
	grid := []cache.Config{
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 1},
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 16 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 2},
		{Size: 8 << 10, Line: 64, Assoc: 1},
		{Size: 8 << 10, Line: 16, Assoc: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunManyOpt(tr, osL, appL, grid, Options{Observers: nil}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunObservedWindowFlush streams a real replay through a SimStats with
// the window-flush hook installed: the hook must deliver every window but
// the last, in strictly increasing order, with contents identical to the
// final Windows series, and the hook must not perturb the replay result.
func TestRunObservedWindowFlush(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	cfg := cache.Config{Size: 4 << 10, Line: 32, Assoc: 1}

	plain, err := Run(tr, osL, appL, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const windows = 8
	s := obs.NewSimStats(windows)
	var idxs []int
	var flushed []obs.Window
	s.OnWindowFlush = func(idx int, w obs.Window) {
		idxs = append(idxs, idx)
		flushed = append(flushed, w)
	}
	got, err := runObserved(tr, osL, appL, cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Error("window-flush hook perturbed the replay result")
	}
	if len(idxs) != windows-1 {
		t.Fatalf("flushed %d windows, want %d (all but the last)", len(idxs), windows-1)
	}
	for i, idx := range idxs {
		if idx != i {
			t.Fatalf("flush order %v — not strictly increasing from 0", idxs)
		}
		if flushed[i] != s.Windows[i] {
			t.Errorf("flushed window %d = %+v, final Windows[%d] = %+v", i, flushed[i], i, s.Windows[i])
		}
		if flushed[i].Refs == 0 {
			t.Errorf("flushed window %d carries no references", i)
		}
	}
}
