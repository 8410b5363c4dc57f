package expt

import (
	"strings"
	"sync"
	"testing"

	"oslayout/internal/program"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// testEnv builds one shared environment for the whole shape suite (study
// construction dominates the cost; experiments reuse its caches).
func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(Options{OSRefs: 1_500_000})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestRegistryCoversEveryExperiment(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig18x",
		"fig19",
		// extensions
		"xprofile", "baselines", "ablation", "cpus", "policy",
		"overhead", "lineutil", "noise", "fragments", "sizemismatch",
	}
	for _, n := range want {
		if !Has(n) {
			t.Errorf("experiment %q missing from registry", n)
		}
	}
	if got := len(Names()); got != len(want) {
		t.Errorf("registry has %d entries, want %d", got, len(want))
	}
	if _, err := Run(testEnv(t), "nonsense"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestNamesNaturalOrder checks the numeric-aware ordering: fig2 must precede
// fig12 so `oslayout list` and `all` follow paper order.
func TestNamesNaturalOrder(t *testing.T) {
	names := Names()
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	ordered := []string{"fig1", "fig2", "fig8", "fig12", "fig18"}
	for i := 1; i < len(ordered); i++ {
		if pos[ordered[i-1]] >= pos[ordered[i]] {
			t.Errorf("%s listed at %d, not before %s at %d",
				ordered[i-1], pos[ordered[i-1]], ordered[i], pos[ordered[i]])
		}
	}
	if pos["table1"] >= pos["table2"] || pos["table2"] >= pos["table4"] {
		t.Error("tables out of order")
	}
}

// TestSharedRunnerMemoized checks that fig4 and fig5, which share one
// runner, compute once per Env and return the identical result.
func TestSharedRunnerMemoized(t *testing.T) {
	e := testEnv(t)
	r4, err := Run(e, "fig4")
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Run(e, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r5 {
		t.Error("fig4 and fig5 returned distinct results; the shared runner ran twice")
	}
}

func TestTable1Shape(t *testing.T) {
	e := testEnv(t)
	tb, err := e.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tb.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range tb.Rows {
		byName[r.Workload] = r
		// Paper: 3.4-13.1% of the kernel executed.
		if r.ExecBytesPct < 2 || r.ExecBytesPct > 16 {
			t.Errorf("%s executes %.1f%% of the kernel; paper range 3.4-13.1%%", r.Workload, r.ExecBytesPct)
		}
	}
	// TRFD_4 executes the least code; it has no system calls.
	if byName["TRFD_4"].ExecBytes >= byName["Shell"].ExecBytes {
		t.Error("TRFD_4 should execute less OS code than Shell")
	}
	if byName["TRFD_4"].InvocationPct[program.SeedSysCall] > 0.5 {
		t.Error("TRFD_4 makes no system calls")
	}
	// Shell is syscall-dominated; TRFD_4 interrupt-dominated.
	if byName["Shell"].InvocationPct[program.SeedSysCall] < 40 {
		t.Error("Shell should be syscall-dominated")
	}
	if byName["TRFD_4"].InvocationPct[program.SeedInterrupt] < 60 {
		t.Error("TRFD_4 should be interrupt-dominated")
	}
	if !strings.Contains(tb.Render(), "Executed OS Code") {
		t.Error("render missing headline row")
	}
}

func TestFigure1SelfInterferenceDominates(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: self-interference misses are over 90% of OS misses. Allow a
	// little slack for the synthetic substrate.
	if f.SelfShare < 0.75 {
		t.Errorf("self-interference share %.2f, paper >0.9", f.SelfShare)
	}
	var selfSum, crossSum uint64
	for i := range f.Self {
		selfSum += f.Self[i]
		crossSum += f.Cross[i]
	}
	if selfSum <= crossSum {
		t.Error("self-interference histogram should dominate cross")
	}
	// The peak attribution must name conflicting routine pairs, and the
	// hottest leaves should appear among them (the paper's peaks involve
	// tiny ubiquitous routines like the timer and mul/div helpers).
	if len(f.TopConflicts) == 0 {
		t.Fatal("no conflict pairs attributed")
	}
}

func TestFigure2ReferencesSpreadAcrossImage(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure2()
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range f.Hists {
		// References must be scattered over the image, not packed at the
		// front (the kernel mixes cold drivers among hot subsystems):
		// expect nonzero buckets beyond the middle.
		mid := len(h) / 2
		var back uint64
		for _, v := range h[mid:] {
			back += v
		}
		if back == 0 {
			t.Errorf("%s: no references in the upper half of the image", f.Workloads[i])
		}
	}
}

func TestFigure3Bimodality(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 73.6% of arcs >= 0.99 probability, 6.9% <= 0.01.
	if f.Stats.FracHigh < 0.55 || f.Stats.FracHigh > 0.9 {
		t.Errorf("high-probability arcs %.1f%%, paper 73.6%%", 100*f.Stats.FracHigh)
	}
	if f.Stats.FracLow < 0.02 || f.Stats.FracLow > 0.2 {
		t.Errorf("low-probability arcs %.1f%%, paper 6.9%%", 100*f.Stats.FracLow)
	}
}

func TestTable2SequencePredictability(t *testing.T) {
	e := testEnv(t)
	tb, err := e.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range tb.Workloads {
		c, r := tb.CoreRows[i], tb.RegRows[i]
		// Paper core: P(any) 0.95-0.99, P(next) 0.71-0.77. The synthetic
		// kernel's ubiquitous leaf helpers (called from out-of-set code,
		// returning out of the set) pull P(any) down a little, most for the
		// syscall-broad Shell.
		if c.ProbAnyInSeq < 0.75 {
			t.Errorf("%s core P(any)=%.2f, paper 0.95-0.99", w, c.ProbAnyInSeq)
		}
		if c.ProbNextInSeq < 0.45 {
			t.Errorf("%s core P(next)=%.2f, paper 0.71-0.77", w, c.ProbNextInSeq)
		}
		// Sequences cause a disproportionate share of misses: miss% >
		// static%.
		if c.MissPct <= c.StaticPct {
			t.Errorf("%s: core sequences cause %.1f%% misses <= %.1f%% static share",
				w, c.MissPct, c.StaticPct)
		}
		// Regular is a superset: shares must not shrink.
		if r.RefsPct < c.RefsPct-0.5 || r.MissPct < c.MissPct-0.5 {
			t.Errorf("%s: regular shares below core shares", w)
		}
	}
	if tb.Core.Bytes > 8<<10 || tb.Regular.Bytes > 16<<10 {
		t.Error("sequence sets exceed their capacity bounds")
	}
}

func TestTable3LoopFractions(t *testing.T) {
	e := testEnv(t)
	tb, err := e.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range tb.Workloads {
		r := tb.Rows[i]
		// Paper: 28.9-39.4% dynamic, ~3% of executed static, <0.5% of all.
		if r.DynFrac < 0.1 || r.DynFrac > 0.6 {
			t.Errorf("%s dynamic loop fraction %.2f, paper ~0.29-0.39", w, r.DynFrac)
		}
		if r.StaticExecFrac > 0.2 {
			t.Errorf("%s static/exec %.2f, paper ~0.03", w, r.StaticExecFrac)
		}
		if r.StaticFrac > 0.02 {
			t.Errorf("%s static/all %.4f, paper ~0.001-0.004", w, r.StaticFrac)
		}
	}
}

func TestFigure45LoopShapes(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure45()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.CallFree) < 30 || len(f.WithCalls) < 10 {
		t.Fatalf("loops: %d call-free / %d with calls; too few", len(f.CallFree), len(f.WithCalls))
	}
	// Figure 4: call-free loops are small (<=~400B) and often short.
	for _, lb := range f.CallFree {
		if lb.Size > 500 {
			t.Errorf("call-free loop of %dB, paper max ~300B", lb.Size)
		}
	}
	// Figure 5: loops with calls are much bigger including callees.
	var big int
	for _, lb := range f.WithCalls {
		if lb.Size > 1000 {
			big++
		}
	}
	if big == 0 {
		t.Error("no loop-with-calls exceeds 1KB; paper median ~2KB")
	}
}

func TestFigure6and8Skew(t *testing.T) {
	e := testEnv(t)
	f6, err := e.RunFigure6()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range f6.Workloads {
		if f6.Executed[i] < 50 {
			t.Errorf("%s: only %d routines invoked", w, f6.Executed[i])
		}
		// The top routine dominates.
		if f6.Top[i][0] < 3 {
			t.Errorf("%s: top routine only %.1f%% of invocations", w, f6.Top[i][0])
		}
	}
	f8, err := e.RunFigure8()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the top block reaches ~5%; a few blocks dominate; thousands
	// are executed less than 0.01%.
	if f8.Skew.Shares[0] < 2 || f8.Skew.Shares[0] > 10 {
		t.Errorf("top block share %.2f%%, paper ~5%%", f8.Skew.Shares[0])
	}
	if f8.Skew.Over3Pct < 2 {
		t.Errorf("blocks >3%%: %d, paper 22", f8.Skew.Over3Pct)
	}
	if f8.Skew.UnderPt01Pct < f8.Skew.Executed/3 {
		t.Errorf("only %d of %d blocks below 0.01%%", f8.Skew.UnderPt01Pct, f8.Skew.Executed)
	}
}

func TestFigure7TemporalLocality(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure7()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~25% of reuses within 100 words, ~70% within 1000, ~9% never
	// reused within the invocation.
	within1000 := f.Avg.Buckets[0] + f.Avg.Buckets[1]
	if within1000 < 40 {
		t.Errorf("reuse within 1000 words = %.1f%%, paper ~70%%", within1000)
	}
	if f.Avg.LastInv > 40 {
		t.Errorf("last-invocation share %.1f%%, paper ~9%%", f.Avg.LastInv)
	}
	if len(f.Routines) != 10 {
		t.Errorf("tracked %d routines, want 10", len(f.Routines))
	}
}

func TestTable4ScheduleShape(t *testing.T) {
	e := testEnv(t)
	tb, err := e.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Sequences) < 8 {
		t.Fatalf("only %d sequences", len(tb.Sequences))
	}
	// The interrupt seed joins first.
	if tb.Sequences[0].Seed != program.SeedInterrupt {
		t.Errorf("first sequence from seed %v, want Interrupt", tb.Sequences[0].Seed)
	}
	// Thresholds decrease monotonically per seed.
	last := map[program.SeedClass]float64{}
	for _, s := range tb.Sequences {
		if prev, ok := last[s.Seed]; ok && s.Thresh.Exec > prev {
			t.Errorf("seed %v thresholds rose: %g after %g", s.Seed, s.Thresh.Exec, prev)
		}
		last[s.Seed] = s.Thresh.Exec
	}
}

func TestFigure12LayoutOrdering(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure12()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range f.Workloads {
		bars := map[string]LayoutBars{}
		for _, b := range f.Bars[i] {
			bars[b.Layout] = b
		}
		if bars["Base"].Total != 1.0 {
			t.Errorf("%s: Base not normalised to 1.0", w)
		}
		// Paper: C-H reduces misses to 0.43-0.62 of Base; OptS below C-H.
		if bars["C-H"].Total >= 0.95 {
			t.Errorf("%s: C-H = %.2f of Base, expected substantial reduction", w, bars["C-H"].Total)
		}
		if bars["OptS"].Total >= bars["C-H"].Total {
			t.Errorf("%s: OptS (%.2f) did not beat C-H (%.2f)", w, bars["OptS"].Total, bars["C-H"].Total)
		}
		// OptL performs about the same as OptS (paper: slightly worse or
		// slightly better).
		if d := bars["OptL"].Total - bars["OptS"].Total; d > 0.1 || d < -0.1 {
			t.Errorf("%s: OptL (%.2f) far from OptS (%.2f)", w, bars["OptL"].Total, bars["OptS"].Total)
		}
		// OptA never hurts relative to OptS.
		if bars["OptA"].Total > bars["OptS"].Total+0.02 {
			t.Errorf("%s: OptA (%.2f) worse than OptS (%.2f)", w, bars["OptA"].Total, bars["OptS"].Total)
		}
	}
}

func TestFigure13ClassesExplainMisses(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure13()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range f.Workloads {
		base := f.MissPct[i][0]
		total := base[0] + base[1] + base[2] + base[3]
		if total < 99.9 || total > 100.1 {
			t.Errorf("%s: Base misses sum to %.1f%%", w, total)
		}
		// Paper: loops cause practically no misses.
		if base[2] > 15 {
			t.Errorf("%s: loop blocks cause %.1f%% of Base misses; paper ~0", w, base[2])
		}
		// OptS eliminates most SelfConfFree misses.
		opts := f.MissPct[i][2]
		if base[1] > 1 && opts[1] > base[1]*0.5 {
			t.Errorf("%s: OptS leaves %.1f%% SelfConfFree misses of %.1f%%", w, opts[1], base[1])
		}
	}
}

func TestFigure14PeaksShrink(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure14()
	if err != nil {
		t.Fatal(err)
	}
	if !(f.PeakBase > f.PeakCH && f.PeakCH > f.PeakOptS) {
		t.Errorf("peaks Base=%d C-H=%d OptS=%d; paper: strictly shrinking",
			f.PeakBase, f.PeakCH, f.PeakOptS)
	}
}

func TestFigure15CacheSizeTrends(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure15()
	if err != nil {
		t.Fatal(err)
	}
	for wi, w := range f.Workloads {
		for si := 1; si < len(f.Sizes); si++ {
			for li := 0; li < 3; li++ {
				if f.Rates[si][wi][li] > f.Rates[si-1][wi][li]*1.05 {
					t.Errorf("%s layout %d: miss rate rose from %d to %dKB",
						w, li, f.Sizes[si-1]>>10, f.Sizes[si]>>10)
				}
			}
		}
		// OptS beats Base everywhere; C-H and OptS converge at 32KB
		// (within a factor).
		for si := range f.Sizes {
			if f.Rates[si][wi][2] >= f.Rates[si][wi][0] {
				t.Errorf("%s at %dKB: OptS did not beat Base", w, f.Sizes[si]>>10)
			}
		}
		// Speedups are positive and grow with the penalty.
		for si := range f.Sizes {
			s := f.SpeedupPct[si][wi]
			if s[0] <= 0 || s[1] <= s[0] || s[2] <= s[1] {
				t.Errorf("%s at %dKB: speedups %v not increasing in penalty", w, f.Sizes[si]>>10, s)
			}
		}
	}
}

func TestFigure16SelfConfFreeSweep(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure16()
	if err != nil {
		t.Fatal(err)
	}
	// Area sizes grow as the cutoff drops.
	for si := range f.Sizes {
		for k := 2; k < len(f.Cutoffs); k++ {
			if f.AreaBytes[si][k] < f.AreaBytes[si][k-1] {
				t.Errorf("area bytes not monotone in cutoff: %v", f.AreaBytes[si])
			}
		}
	}
	// The default cutoff (index 2) should beat "None" (index 0) in most
	// cells; count violations.
	var worse, cells int
	for si := range f.Sizes {
		for wi := range f.Workloads {
			cells++
			if f.Normalised[si][wi][2] > f.Normalised[si][wi][0] {
				worse++
			}
		}
	}
	if worse > cells/3 {
		t.Errorf("default SelfConfFree area loses to None in %d/%d cells", worse, cells)
	}
	// An oversized area must eventually hurt on the smallest cache
	// (paper: "once the SelfConfFree area is larger than a certain value,
	// the second effect dominates").
	last := len(f.Cutoffs) - 1
	var hurt bool
	for wi := range f.Workloads {
		if f.Normalised[0][wi][last] > f.Normalised[0][wi][2] {
			hurt = true
		}
	}
	if !hurt {
		t.Error("oversized SelfConfFree area never hurts on the 4KB cache")
	}
}

func TestFigure17LineAndAssociativity(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure17()
	if err != nil {
		t.Fatal(err)
	}
	// Relative OptS gains grow with line size.
	gain := func(r [3]float64) float64 { return 1 - r[2]/r[0] }
	for wi, w := range f.Workloads {
		if gain(f.LineRates[len(f.Lines)-1][wi]) <= gain(f.LineRates[0][wi])-0.05 {
			t.Errorf("%s: OptS gain shrank with line size (%.2f -> %.2f)",
				w, gain(f.LineRates[0][wi]), gain(f.LineRates[len(f.Lines)-1][wi]))
		}
		// Gains shrink with associativity.
		if gain(f.AssocRates[3][wi]) > gain(f.AssocRates[0][wi])+0.05 {
			t.Errorf("%s: OptS gain grew with associativity", w)
		}
	}
	// The paper's headline: direct-mapped OptS beats 8-way Base. Checked on
	// the workload average — TRFD+Make's unoptimised application misses
	// (which neither layout touches, and associativity does) can flip the
	// individual comparison.
	var optsDM, base8 float64
	for wi := range f.Workloads {
		optsDM += f.AssocRates[0][wi][2]
		base8 += f.AssocRates[3][wi][0]
	}
	if optsDM >= base8 {
		t.Errorf("average direct-mapped OptS (%.3f%%) does not beat 8-way Base (%.3f%%)",
			100*optsDM/4, 100*base8/4)
	}
}

func TestFigure18Alternatives(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure18()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, s := range f.Setups {
		idx[s] = i
	}
	for wi, w := range f.Workloads {
		row := f.Normalised[wi]
		// Paper: Sep and Resv lose to OptA; Call increases misses over
		// OptA.
		if row[idx["Sep"]] <= row[idx["OptA"]] {
			t.Errorf("%s: Sep (%.2f) beat OptA (%.2f)", w, row[idx["Sep"]], row[idx["OptA"]])
		}
		if row[idx["Resv"]] <= row[idx["OptA"]] {
			t.Errorf("%s: Resv (%.2f) beat OptA (%.2f)", w, row[idx["Resv"]], row[idx["OptA"]])
		}
		if row[idx["Call"]] <= row[idx["OptA"]] {
			t.Errorf("%s: Call (%.2f) beat OptA (%.2f); paper: Call loses", w, row[idx["Call"]], row[idx["OptA"]])
		}
	}
}

// TestFigure18XPolicies checks the reconfigurable-cache sweep: every policy
// column present, the static row reproducing the Sep-style penalty (worse
// than shared under these balanced workloads), and at least one dynamic row
// that repartitions, records its windowed-feedback trajectory, and beats
// the frozen static split somewhere on the grid.
func TestFigure18XPolicies(t *testing.T) {
	e := testEnv(t)
	r, err := Run(e, "fig18x")
	if err != nil {
		t.Fatal(err)
	}
	f := r.(*Figure18X)
	wantLabels := []string{"shared", "static", "reserved",
		"int-e2g1", "int-e4g1", "int-e4g2", "md-e4g1", "md-e4g2"}
	if len(f.Labels) != len(wantLabels) {
		t.Fatalf("labels = %v, want %v", f.Labels, wantLabels)
	}
	idx := map[string]int{}
	for i, l := range f.Labels {
		if l != wantLabels[i] {
			t.Errorf("label[%d] = %q, want %q", i, l, wantLabels[i])
		}
		idx[l] = i
	}
	dynamicBeatsStatic := false
	for wi, w := range f.Workloads {
		if got := f.Norm[wi][idx["shared"]]; got != 1 {
			t.Errorf("%s: shared row normalises to %.3f, want 1", w, got)
		}
		for _, l := range []string{"shared", "static", "reserved"} {
			if f.Events[wi][idx[l]] != 0 {
				t.Errorf("%s: %s row repartitioned %d times", w, l, f.Events[wi][idx[l]])
			}
		}
		for _, l := range wantLabels[3:] {
			r := idx[l]
			if f.Events[wi][r] > 0 {
				if f.Traj[wi][r] == "" {
					t.Errorf("%s/%s: repartitioned but trajectory empty", w, l)
				}
				if f.Final[wi][r] == "" {
					t.Errorf("%s/%s: no final split recorded", w, l)
				}
			}
			if f.Norm[wi][r] < f.Norm[wi][idx["static"]] {
				dynamicBeatsStatic = true
			}
		}
	}
	if !dynamicBeatsStatic {
		t.Error("no dynamic policy beats the static split on any workload")
	}
	out := f.Render()
	for _, l := range wantLabels {
		if !strings.Contains(out, l) {
			t.Errorf("rendering missing policy column %q", l)
		}
	}
	if !strings.Contains(out, "Repartition dynamics") {
		t.Error("rendering missing the repartition dynamics section")
	}
}

// TestComparePartitioned runs a small compare grid under a dynamic
// partition and checks the controller state reaches the result (and that
// the reserved policy, which needs a SelfConfFree set, is refused).
func TestComparePartitioned(t *testing.T) {
	e := testEnv(t)
	c, err := e.RunCompareOpts([]string{"base", "opts"}, []int{8 << 10}, 32, 8,
		CompareOptions{Partition: "interval,every=4,grain=1"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Partition != "interval,os=4,app=4,every=4,grain=1" {
		t.Errorf("Partition = %q", c.Partition)
	}
	if c.PartEvents == nil || c.PartFinal == nil {
		t.Fatal("partition dynamics not recorded")
	}
	moved := false
	for wi := range c.Workloads {
		for k := range c.Strategies {
			if c.PartEvents[0][wi][k] > 0 {
				moved = true
				if c.PartFinal[0][wi][k] == "" {
					t.Errorf("cell (%d,%d) moved but has no final split", wi, k)
				}
			}
		}
	}
	if !moved {
		t.Error("no grid cell ever repartitioned")
	}
	out := c.Render()
	if !strings.Contains(out, "partition interval,os=4,app=4,every=4,grain=1") {
		t.Errorf("header missing partition spec:\n%s", out)
	}
	if moved && !strings.Contains(out, "Repartition dynamics") {
		t.Error("rendering missing the repartition dynamics section")
	}
	if _, err := e.RunCompareOpts([]string{"base"}, []int{8 << 10}, 32, 8,
		CompareOptions{Partition: "reserved"}); err == nil {
		t.Error("reserved policy accepted on the compare grid")
	}
	if _, err := e.RunCompareOpts([]string{"base"}, []int{8 << 10}, 32, 8,
		CompareOptions{Partition: "bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAllExperimentsRender(t *testing.T) {
	e := testEnv(t)
	// Each experiment's rendering must carry its identifying content.
	markers := map[string]string{
		"table1":       "Size of Executed OS Code",
		"table2":       "P(any)",
		"table3":       "loops without procedure calls",
		"table4":       "ExecThresh/BranchThresh",
		"fig1":         "self-interference share",
		"fig2":         "references vs virtual address",
		"fig3":         "probability an outgoing arc",
		"fig4":         "iterations/invocation",
		"fig5":         "WITH procedure calls",
		"fig6":         "routine invocation counts",
		"fig7":         "between consecutive calls",
		"fig8":         "invocation skew",
		"fig12":        "normalised misses",
		"fig13":        "SelfConfFree",
		"fig14":        "miss distribution",
		"fig15":        "estimated speed increase",
		"fig16":        "SelfConfFree area",
		"fig17":        "associativity",
		"fig18":        "alternative setups",
		"fig18x":       "way-partition policies",
		"fig19":        "shared-cache multiprocessor replay",
		"xprofile":     "cross-profile",
		"baselines":    "baseline families",
		"ablation":     "ablations",
		"cpus":         "per-CPU",
		"policy":       "replacement policy",
		"overhead":     "dynamic-size increase",
		"lineutil":     "line utilization",
		"noise":        "noise",
		"fragments":    "fragmentation",
		"sizemismatch": "mismatch",
	}
	for _, name := range Names() {
		r, err := Run(e, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := r.Render()
		if len(out) < 40 {
			t.Errorf("%s renders only %d bytes", name, len(out))
		}
		marker, ok := markers[name]
		if !ok {
			t.Errorf("no content marker registered for %s; add one", name)
			continue
		}
		if !strings.Contains(out, marker) {
			t.Errorf("%s rendering missing %q:\n%s", name, marker, out)
		}
	}
}
