package expt

import (
	"sync"
	"testing"

	"oslayout/internal/obs"
)

func TestCrossProfileShape(t *testing.T) {
	e := testEnv(t)
	x, err := e.RunCrossProfile()
	if err != nil {
		t.Fatal(err)
	}
	n := len(x.Workloads)
	if len(x.Normalised) != n+1 {
		t.Fatalf("%d rows, want %d (workloads + averaged)", len(x.Normalised), n+1)
	}
	// Every layout (even one built from a foreign profile) must beat Base
	// on every workload: the popular routines are shared.
	for i, row := range x.Normalised {
		for j, v := range row {
			if v >= 1.0 {
				t.Errorf("profile %d on workload %s: %.2f of Base (no improvement)",
					i, x.Workloads[j], v)
			}
		}
	}
	// The averaged-profile row must be within a modest margin of the
	// self-profiled diagonal on every workload.
	avg := x.Normalised[n]
	for j := range x.Workloads {
		diag := x.Normalised[j][j]
		if avg[j] > diag*1.35+0.02 {
			t.Errorf("averaged layout on %s: %.2f vs self-profiled %.2f",
				x.Workloads[j], avg[j], diag)
		}
	}
}

func TestBaselinesOrdering(t *testing.T) {
	e := testEnv(t)
	b, err := e.RunBaselines()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for k, name := range b.Strategies {
		idx[name] = k
	}
	for _, name := range []string{"base", "shuffle", "mcf", "ph", "ch", "opts"} {
		if _, ok := idx[name]; !ok {
			t.Fatalf("strategy %q missing from the baselines ladder", name)
		}
	}
	for i, w := range b.Workloads {
		r := b.Rates[i]
		base, shuffle := r[idx["base"]], r[idx["shuffle"]]
		mcf, ph, ch, opts := r[idx["mcf"]], r[idx["ph"]], r[idx["ch"]], r[idx["opts"]]
		// A blind shuffle stays in Base's league (within 40% either way)...
		if shuffle < base*0.6 || shuffle > base*1.4 {
			t.Errorf("%s: Shuffle (%.3f) far from Base (%.3f); a blind permutation should not matter much", w, shuffle, base)
		}
		// ...while each structured family improves on the previous. The two
		// call-graph orderings (McF, PH) land in the same band; both must
		// beat Base and lose to the intra-routine and cross-routine layouts.
		if !(base > mcf) {
			t.Errorf("%s: McF (%.3f) did not beat Base (%.3f)", w, mcf, base)
		}
		if !(base > ph) {
			t.Errorf("%s: PH (%.3f) did not beat Base (%.3f)", w, ph, base)
		}
		if !(mcf > ch) {
			t.Errorf("%s: C-H (%.3f) did not beat McF (%.3f)", w, ch, mcf)
		}
		if !(ph > ch) {
			t.Errorf("%s: C-H (%.3f) did not beat PH (%.3f)", w, ch, ph)
		}
		if !(ch > opts) {
			t.Errorf("%s: OptS (%.3f) did not beat C-H (%.3f)", w, opts, ch)
		}
	}
}

func TestAblationIngredients(t *testing.T) {
	e := testEnv(t)
	a, err := e.RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	vi := map[string]int{}
	for i, v := range a.Variants {
		vi[v] = i
	}
	def := a.Normalised[vi["OptS (default)"]]
	sum := func(row []float64) float64 {
		var s float64
		for _, v := range row {
			s += v
		}
		return s
	}
	// Removing the SelfConfFree area must cost misses overall.
	if sum(a.Normalised[vi["no SelfConfFree"]]) <= sum(def) {
		t.Error("removing the SelfConfFree area did not cost misses")
	}
	// A single seed must cost misses overall (the other entry classes'
	// code degrades to weight-ordered leftovers).
	if sum(a.Normalised[vi["single seed (interrupt)"]]) <= sum(def) {
		t.Error("dropping three of the four seeds did not cost misses")
	}
	// Every variant still beats Base everywhere.
	for v, row := range a.Normalised {
		for w, x := range row {
			if x >= 1.0 {
				t.Errorf("variant %q on %s: %.2f of Base", a.Variants[v], a.Workloads[w], x)
			}
		}
	}
}

// TestAblationBesideStrategyBuilds runs the ablation beside registered
// strategy builds on one study. Every variant builds under the strategy
// cache's lock, which serialises all profile application on the study, so
// the race detector finds nothing and the table renders as it does alone.
func TestAblationBesideStrategyBuilds(t *testing.T) {
	ref, err := NewEnv(Options{OSRefs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnv(Options{OSRefs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	// Each goroutine announces it is running before it builds, so the
	// builds overlap the ablation's first variant with no ordering between
	// them but the cache's lock.
	var started, done sync.WaitGroup
	for _, name := range []string{"ch", "ph", "mcf"} {
		started.Add(1)
		done.Add(1)
		go func(name string) {
			defer done.Done()
			started.Done()
			if _, _, err := e.St.BuildStrategy(name, 0); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}(name)
	}
	started.Wait()
	got, err := e.RunAblation()
	done.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if obs.Digest(got.Render()) != obs.Digest(want.Render()) {
		t.Errorf("ablation beside strategy builds rendered\n%s\nalone\n%s", got.Render(), want.Render())
	}
}

func TestMultiCPUVariation(t *testing.T) {
	e := testEnv(t)
	m, err := e.RunMultiCPU()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m.Workloads {
		gap := m.MeanBase[i] - m.MeanOptS[i]
		if gap <= 0 {
			t.Errorf("%s: OptS mean (%.4f) not below Base mean (%.4f)", w, m.MeanOptS[i], m.MeanBase[i])
		}
		// Per-CPU spread must be small relative to the improvement, or the
		// paper's per-processor averaging would be unsound.
		if m.SpreadBase[i] > gap {
			t.Errorf("%s: per-CPU spread %.4f exceeds the Base-OptS gap %.4f",
				w, m.SpreadBase[i], gap)
		}
	}
}

func TestNoiseDegradesGracefully(t *testing.T) {
	e := testEnv(t)
	n, err := e.RunNoise()
	if err != nil {
		t.Fatal(err)
	}
	for li := range n.Levels {
		for wi, w := range n.Workloads {
			v := n.Normalised[li][wi]
			if v >= 1.0 {
				t.Errorf("%s at noise ±%.0f%%: %.2f of Base (no improvement)",
					w, 100*n.Levels[li], v)
			}
		}
	}
	// Even ±90%% noise must stay within 2x of the clean layout's misses.
	for wi, w := range n.Workloads {
		clean, noisy := n.Normalised[0][wi], n.Normalised[len(n.Levels)-1][wi]
		if noisy > 2*clean {
			t.Errorf("%s: noisy layout %.2f vs clean %.2f — degradation too steep", w, noisy, clean)
		}
	}
}

func TestReplacementPolicyConclusionsHold(t *testing.T) {
	e := testEnv(t)
	r, err := e.RunReplacementPolicy()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range r.Workloads {
		x := r.Rates[i] // BaseLRU, BaseRand, OptSLRU, OptSRand
		if x[2] >= x[0] {
			t.Errorf("%s: OptS/LRU did not beat Base/LRU", w)
		}
		if x[3] >= x[1] {
			t.Errorf("%s: OptS/random did not beat Base/random", w)
		}
		if x[1] < x[0] {
			t.Errorf("%s: random replacement beat LRU for Base (%.4f < %.4f)", w, x[1], x[0])
		}
	}
}

func TestOverheadIsSmall(t *testing.T) {
	e := testEnv(t)
	o, err := e.RunOverhead()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range o.Workloads {
		for li, l := range o.Layouts {
			v := o.Pct[i][li]
			// Paper: "the increase in dynamic size is, on average, as low
			// as 2.0%". Anything beyond ±5% would mean the layouts mangle
			// fall-through structure.
			if v < -5 || v > 5 {
				t.Errorf("%s/%s: dynamic overhead %+.1f%%, paper ~2%%", w, l, v)
			}
		}
	}
}

func TestLineUtilMechanism(t *testing.T) {
	e := testEnv(t)
	u, err := e.RunLineUtil()
	if err != nil {
		t.Fatal(err)
	}
	for li := range u.Lines {
		for wi, w := range u.Workloads {
			r := u.Util[li][wi]
			if !(r[2] > r[0]) {
				t.Errorf("%s at %dB: OptS utilization (%.2f) not above Base (%.2f)",
					w, u.Lines[li], r[2], r[0])
			}
			for k, v := range r {
				if v <= 0 || v > 1 {
					t.Errorf("%s at %dB: utilization[%d]=%v out of (0,1]", w, u.Lines[li], k, v)
				}
			}
		}
	}
	// The OptS-vs-Base utilization gap widens with line size.
	first := u.Util[0]
	last := u.Util[len(u.Lines)-1]
	var gFirst, gLast float64
	for wi := range u.Workloads {
		gFirst += first[wi][2] - first[wi][0]
		gLast += last[wi][2] - last[wi][0]
	}
	if gLast <= gFirst {
		t.Errorf("utilization gap shrank with line size: %.3f -> %.3f", gFirst, gLast)
	}
}

func TestFragmentationSignature(t *testing.T) {
	e := testEnv(t)
	fr, err := e.RunFragmentation()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, l := range fr.Layouts {
		byName[l] = i
	}
	// Base never splits a routine.
	if fr.MeanFrags[byName["Base"]] != 1 || fr.PctSplit[byName["Base"]] != 0 {
		t.Errorf("Base fragmentation = %.2f mean / %.1f%% split, want 1 / 0%%",
			fr.MeanFrags[byName["Base"]], fr.PctSplit[byName["Base"]])
	}
	// C-H keeps each routine's blocks together too.
	if fr.PctSplit[byName["C-H"]] > 1 {
		t.Errorf("C-H splits %.1f%% of routines; trace selection stays within routines",
			fr.PctSplit[byName["C-H"]])
	}
	// OptS splits a substantial share of executed routines: the paper's
	// cross-routine sequences.
	if fr.PctSplit[byName["OptS"]] < 20 {
		t.Errorf("OptS splits only %.1f%% of routines; sequences should cross routine boundaries",
			fr.PctSplit[byName["OptS"]])
	}
	if fr.MeanFrags[byName["OptS"]] <= fr.MeanFrags[byName["C-H"]] {
		t.Error("OptS should fragment more than C-H")
	}
}

func TestSizeMismatchStillWins(t *testing.T) {
	e := testEnv(t)
	m, err := e.RunSizeMismatch()
	if err != nil {
		t.Fatal(err)
	}
	for si := range m.Sizes {
		for wi, w := range m.Workloads {
			if m.Tuned8K[si][wi] >= 1.0 {
				t.Errorf("%s at %dKB: mistuned layout %.2f of Base (no win)",
					w, m.Sizes[si]>>10, m.Tuned8K[si][wi])
			}
		}
	}
	// At 8KB the two columns are the same layout.
	for wi := range m.Workloads {
		if m.Matched[1][wi] != m.Tuned8K[1][wi] {
			t.Error("at the tuned size both columns must coincide")
		}
	}
}
