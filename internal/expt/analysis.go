package expt

import (
	"fmt"
	"strings"

	"oslayout/internal/cache"
	"oslayout/internal/metrics"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/textplot"
	"oslayout/internal/trace"
)

// Table1 reproduces the paper's Table 1: characteristics of the operating
// system instruction references per workload.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one workload column of Table 1.
type Table1Row struct {
	Workload      string
	ExecBytes     int64
	ExecBytesPct  float64
	ExecBBPct     float64
	ExecRoutines  int
	InvocationPct [program.NumSeedClasses]float64
}

// RunTable1 computes Table 1.
func (e *Env) RunTable1() (*Table1, error) {
	t := &Table1{}
	for _, d := range e.St.Data {
		row := Table1Row{Workload: d.Workload.Name}
		if err := e.St.WithProfile(d.OSProfile, func(k *program.Program) error {
			row.ExecBytes = k.ExecutedCodeSize()
			row.ExecBytesPct = 100 * float64(k.ExecutedCodeSize()) / float64(k.CodeSize())
			row.ExecBBPct = 100 * float64(k.ExecutedBlocks()) / float64(k.NumBlocks())
			row.ExecRoutines = k.ExecutedRoutines()
			return nil
		}); err != nil {
			return nil, err
		}
		total := float64(d.OSProfile.TotalInvocations())
		for c := 0; c < program.NumSeedClasses; c++ {
			if total > 0 {
				row.InvocationPct[c] = 100 * float64(d.OSProfile.ClassInv[c]) / total
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Render formats Table 1 like the paper.
func (t *Table1) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Characteristics of the OS instruction references (per workload)\n")
	fmt.Fprintf(&sb, "%-34s", "OS Code Characteristics")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, " %12s", r.Workload)
	}
	sb.WriteString("\n")
	row := func(label string, f func(Table1Row) string) {
		fmt.Fprintf(&sb, "%-34s", label)
		for _, r := range t.Rows {
			fmt.Fprintf(&sb, " %12s", f(r))
		}
		sb.WriteString("\n")
	}
	row("Size of Executed OS Code (Bytes)", func(r Table1Row) string { return fmt.Sprintf("%d", r.ExecBytes) })
	row("Size of Executed OS Code (%)", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.ExecBytesPct) })
	row("Number of Executed OS BBs (%)", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.ExecBBPct) })
	row("Executed OS Routines", func(r Table1Row) string { return fmt.Sprintf("%d", r.ExecRoutines) })
	labels := []string{"Interrupt Invoc. (%)", "Page Fault Invoc. (%)", "SysCall Invoc. (%)", "Other Invoc. (%)"}
	for c := 0; c < program.NumSeedClasses; c++ {
		c := c
		row(labels[c], func(r Table1Row) string { return fmt.Sprintf("%.1f", r.InvocationPct[c]) })
	}
	return sb.String()
}

// Figure1 reproduces Figure 1: OS misses as a function of virtual address
// for TRFD+Make on a 16 KB direct-mapped cache, decomposed into total,
// self-interference and interference-with-application components.
type Figure1 struct {
	Workload string
	Total    []uint64
	Self     []uint64
	Cross    []uint64
	// SelfShare is the self-interference share of OS misses.
	SelfShare float64
	// TopConflicts names the routine pairs behind the biggest peaks (the
	// paper attributes its two highest peaks to timer-vs-mul/div and
	// user/system-transition-vs-syscall-start conflicts).
	TopConflicts []string
}

// RunFigure1 computes Figure 1.
func (e *Env) RunFigure1() (*Figure1, error) {
	const workloadIdx = 1 // TRFD+Make
	cfg := cache.Config{Size: 16 << 10, Line: 32, Assoc: 1}
	base := e.Base()
	_, blocks, err := e.EvalBlocks(workloadIdx, base, nil, cfg)
	if err != nil {
		return nil, err
	}
	bucket := uint64(1 << 10)
	f := &Figure1{Workload: e.Workloads()[workloadIdx]}
	f.Total = simulate.HistogramOf(blocks.Misses[trace.DomainOS], base, bucket)
	f.Self = simulate.HistogramOf(blocks.Self[trace.DomainOS], base, bucket)
	f.Cross = simulate.HistogramOf(blocks.Cross[trace.DomainOS], base, bucket)
	var self, total uint64
	for _, v := range blocks.Self[trace.DomainOS] {
		self += v
	}
	for _, v := range blocks.Misses[trace.DomainOS] {
		total += v
	}
	f.SelfShare = ratio(self, total)

	// Attribute the peaks: rank the routine pairs sharing cache sets under
	// the Base layout, weighted by this workload's profile.
	if err := e.St.WithProfile(e.St.Data[workloadIdx].OSProfile, func(k *program.Program) error {
		for _, pr := range metrics.ConflictPairs(k, base, cfg, 5) {
			f.TopConflicts = append(f.TopConflicts,
				fmt.Sprintf("%s <-> %s (weight %d)",
					k.Routine(pr.A).Name, k.Routine(pr.B).Name, pr.Weight))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Render draws the three miss profiles.
func (f *Figure1) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: OS misses vs virtual address (%s, 16KB DM, 1KB buckets)\n", f.Workload)
	sb.WriteString(textplot.Profile("(a) total OS misses", f.Total, 100))
	sb.WriteString(textplot.Profile("(b) self-interference", f.Self, 100))
	sb.WriteString(textplot.Profile("(c) interference with application", f.Cross, 100))
	fmt.Fprintf(&sb, "self-interference share of OS misses: %s (paper: >90%%)\n", pct(f.SelfShare))
	sb.WriteString("top conflicting routine pairs under Base (the paper's peak attribution,\n")
	sb.WriteString("e.g. timer routines vs multiply/divide):\n")
	for _, c := range f.TopConflicts {
		fmt.Fprintf(&sb, "  %s\n", c)
	}
	return sb.String()
}

// Figure2 reproduces Figure 2: OS references vs virtual address per
// workload.
type Figure2 struct {
	Workloads []string
	Hists     [][]uint64
}

// RunFigure2 computes Figure 2.
func (e *Env) RunFigure2() (*Figure2, error) {
	f := &Figure2{Workloads: e.Workloads()}
	base := e.Base()
	for _, d := range e.St.Data {
		if err := e.St.WithProfile(d.OSProfile, func(k *program.Program) error {
			f.Hists = append(f.Hists, simulate.RefHistogram(k, base, 1<<10))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Render draws the per-workload reference profiles.
func (f *Figure2) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: OS references vs virtual address (1KB buckets)\n")
	for i, w := range f.Workloads {
		sb.WriteString(textplot.Profile(w, f.Hists[i], 100))
	}
	return sb.String()
}

// Figure3 reproduces Figure 3: the distribution of arc probabilities.
type Figure3 struct {
	Stats metrics.ArcProbStats
}

// RunFigure3 computes Figure 3 over the union of the workload profiles.
func (e *Env) RunFigure3() (*Figure3, error) {
	f := &Figure3{}
	if err := e.St.WithProfile(e.St.AvgOS, func(k *program.Program) error {
		f.Stats = metrics.ArcProbabilities(k)
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Render draws the histogram and headline fractions.
func (f *Figure3) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: probability an outgoing arc is used given its block executes\n")
	labels := make([]string, len(f.Stats.Buckets))
	values := make([]float64, len(f.Stats.Buckets))
	for i, c := range f.Stats.Buckets {
		labels[i] = fmt.Sprintf("[%.2f,%.2f)", float64(i)/20, float64(i+1)/20)
		values[i] = float64(c)
	}
	sb.WriteString(textplot.BarGroup("", labels, values, func(v float64) string {
		return fmt.Sprintf("%d arcs (%.1f%%)", int(v), 100*v/float64(f.Stats.TotalArcs))
	}))
	fmt.Fprintf(&sb, "arcs with probability >= 0.99: %s (paper: 73.6%%)\n", pct(f.Stats.FracHigh))
	fmt.Fprintf(&sb, "arcs with probability <= 0.01: %s (paper: 6.9%%)\n", pct(f.Stats.FracLow))
	return sb.String()
}

// Table2 reproduces Table 2: predictability and weight of the core (8 KB)
// and regular (16 KB) sequences.
type Table2 struct {
	Core, Regular struct {
		NumBlocks, NumRoutines int
		Bytes                  int64
	}
	Workloads []string
	CoreRows  []metrics.SeqCharacterization
	RegRows   []metrics.SeqCharacterization
}

// RunTable2 computes Table 2. Sequences are built from the averaged profile;
// each workload's transition and weight statistics come from its own trace
// and profile; the miss column uses the Alliant-like 16 KB direct-mapped
// cache under the Base layout.
func (e *Env) RunTable2() (*Table2, error) {
	plan, err := e.Plan("opts", DefaultCache.Size)
	if err != nil {
		return nil, err
	}
	k := e.St.Kernel.Prog
	coreSet := metrics.NewSeqSet(k, plan.Sequences, 8<<10)
	regSet := metrics.NewSeqSet(k, plan.Sequences, 16<<10)
	t := &Table2{Workloads: e.Workloads()}
	t.Core.NumBlocks, t.Core.NumRoutines, t.Core.Bytes = coreSet.NumBlocks, coreSet.NumRoutines, coreSet.Bytes
	t.Regular.NumBlocks, t.Regular.NumRoutines, t.Regular.Bytes = regSet.NumBlocks, regSet.NumRoutines, regSet.Bytes

	cfg := cache.Config{Size: 16 << 10, Line: 32, Assoc: 1}
	base := e.Base()
	for i, d := range e.St.Data {
		_, blocks, err := e.EvalBlocks(i, base, nil, cfg)
		if err != nil {
			return nil, err
		}
		osMisses := blocks.Misses[trace.DomainOS]
		coreRow, regRow := metrics.Transitions(d.Trace, coreSet), metrics.Transitions(d.Trace, regSet)
		if err := e.St.WithProfile(d.OSProfile, func(k *program.Program) error {
			coreRow.AddShares(k, coreSet, osMisses)
			regRow.AddShares(k, regSet, osMisses)
			return nil
		}); err != nil {
			return nil, err
		}
		t.CoreRows = append(t.CoreRows, coreRow)
		t.RegRows = append(t.RegRows, regRow)
	}
	return t, nil
}

// Render formats Table 2.
func (t *Table2) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: sequence characteristics\n")
	fmt.Fprintf(&sb, "  core:    %d BBs, %d routines, %d bytes (fits 8KB)\n",
		t.Core.NumBlocks, t.Core.NumRoutines, t.Core.Bytes)
	fmt.Fprintf(&sb, "  regular: %d BBs, %d routines, %d bytes (fits 16KB)\n",
		t.Regular.NumBlocks, t.Regular.NumRoutines, t.Regular.Bytes)
	sb.WriteString("               |------------- core -------------||----------- regular ------------|\n")
	sb.WriteString("  workload       P(any)  P(next)  stat%   refs%  miss%   P(any)  P(next)  stat%   refs%  miss%\n")
	for i, w := range t.Workloads {
		c, r := t.CoreRows[i], t.RegRows[i]
		fmt.Fprintf(&sb, "  %-12s   %5.2f   %5.2f   %5.1f  %5.1f  %5.1f    %5.2f   %5.2f   %5.1f  %5.1f  %5.1f\n",
			w, c.ProbAnyInSeq, c.ProbNextInSeq, c.StaticPct, c.RefsPct, c.MissPct,
			r.ProbAnyInSeq, r.ProbNextInSeq, r.StaticPct, r.RefsPct, r.MissPct)
	}
	sb.WriteString("  (paper core: P(any) 0.95-0.99, P(next) 0.71-0.77, stat 7-28%, refs 23-67%, miss 35-75%)\n")
	return sb.String()
}

// Table3 reproduces Table 3: the fraction of OS instructions in loops
// without procedure calls.
type Table3 struct {
	Workloads []string
	Rows      []metrics.LoopFractions
}

// RunTable3 computes Table 3.
func (e *Env) RunTable3() (*Table3, error) {
	t := &Table3{Workloads: e.Workloads()}
	loops := e.layouts.Loops()
	for _, d := range e.St.Data {
		if err := e.St.WithProfile(d.OSProfile, func(k *program.Program) error {
			t.Rows = append(t.Rows, metrics.CallFreeLoopFractions(k, loops))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Render formats Table 3.
func (t *Table3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: OS instructions in loops without procedure calls\n")
	sb.WriteString("  workload       dyn/dynOS%   static/execOS%   static/allOS%\n")
	for i, w := range t.Workloads {
		r := t.Rows[i]
		fmt.Fprintf(&sb, "  %-12s   %9.1f   %13.1f   %12.2f\n",
			w, 100*r.DynFrac, 100*r.StaticExecFrac, 100*r.StaticFrac)
	}
	sb.WriteString("  (paper: dyn 28.9-39.4%, static/exec ~3%, static/all ~0.1-0.4%)\n")
	return sb.String()
}

// Figure45 reproduces Figures 4 and 5: behaviour of OS loops without and
// with procedure calls (iterations per invocation; static executed size).
type Figure45 struct {
	CallFree, WithCalls []metrics.LoopBehavior
}

// RunFigure45 computes Figures 4 and 5 over the averaged profile.
func (e *Env) RunFigure45() (*Figure45, error) {
	loops := e.layouts.Loops()
	f := &Figure45{}
	if err := e.St.WithProfile(e.St.AvgOS, func(k *program.Program) error {
		f.CallFree, f.WithCalls = metrics.LoopBehaviors(k, loops)
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Render draws the four distributions.
func (f *Figure45) Render() string {
	var sb strings.Builder
	iterBounds := []float64{2, 6, 10, 25, 50, 100}
	iterLabels := []string{"<2", "2-6", "6-10", "10-25", "25-50", "50-100", ">=100"}
	sizeBounds4 := []float64{50, 100, 200, 300, 400}
	sizeLabels4 := []string{"<50B", "50-100B", "100-200B", "200-300B", "300-400B", ">=400B"}
	sizeBounds5 := []float64{512, 1024, 2048, 4096, 8192, 16384}
	sizeLabels5 := []string{"<0.5K", "0.5-1K", "1-2K", "2-4K", "4-8K", "8-16K", ">=16K"}

	trips := func(lb metrics.LoopBehavior) float64 { return lb.Trips }
	size := func(lb metrics.LoopBehavior) float64 { return float64(lb.Size) }

	fmt.Fprintf(&sb, "Figure 4: loops WITHOUT procedure calls (%d executed loops)\n", len(f.CallFree))
	h := metrics.Histogram(metrics.Values(f.CallFree, trips), iterBounds)
	sb.WriteString(renderHist("  iterations/invocation", iterLabels, h))
	h = metrics.Histogram(metrics.Values(f.CallFree, size), sizeBounds4)
	sb.WriteString(renderHist("  executed static size", sizeLabels4, h))
	fmt.Fprintf(&sb, "  median iterations: %.1f (paper: 50%% <=6); max size %.0fB (paper: <=300B)\n",
		metrics.Quantile(f.CallFree, 0.5, trips), metrics.Quantile(f.CallFree, 1.0, size))

	fmt.Fprintf(&sb, "Figure 5: loops WITH procedure calls (%d executed loops)\n", len(f.WithCalls))
	h = metrics.Histogram(metrics.Values(f.WithCalls, trips), iterBounds)
	sb.WriteString(renderHist("  iterations/invocation", iterLabels, h))
	h = metrics.Histogram(metrics.Values(f.WithCalls, size), sizeBounds5)
	sb.WriteString(renderHist("  executed size w/callees", sizeLabels5, h))
	fmt.Fprintf(&sb, "  median iterations: %.1f (paper: usually <=10); median size %.0fB (paper: ~2KB)\n",
		metrics.Quantile(f.WithCalls, 0.5, trips), metrics.Quantile(f.WithCalls, 0.5, size))
	return sb.String()
}

func renderHist(title string, labels []string, counts []int) string {
	values := make([]float64, len(counts))
	for i, c := range counts {
		values[i] = float64(c)
	}
	return textplot.BarGroup(title, labels, values, func(v float64) string {
		return fmt.Sprintf("%d", int(v))
	})
}

// Figure6 reproduces Figure 6: routine invocation skew per workload.
type Figure6 struct {
	Workloads []string
	// Top holds each workload's normalised invocation shares, most
	// frequent first (truncated for rendering).
	Top [][]float64
	// Executed counts the routines invoked at least once.
	Executed []int
}

// RunFigure6 computes Figure 6.
func (e *Env) RunFigure6() (*Figure6, error) {
	f := &Figure6{Workloads: e.Workloads()}
	for _, d := range e.St.Data {
		var skew []float64
		if err := e.St.WithProfile(d.OSProfile, func(k *program.Program) error {
			skew = metrics.InvocationSkew(k)
			return nil
		}); err != nil {
			return nil, err
		}
		f.Executed = append(f.Executed, len(skew))
		if len(skew) > 15 {
			skew = skew[:15]
		}
		f.Top = append(f.Top, skew)
	}
	return f, nil
}

// Render draws the skew curves.
func (f *Figure6) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: routine invocation counts, most to least frequent (normalised to 100)\n")
	for i, w := range f.Workloads {
		fmt.Fprintf(&sb, "  %-12s (%3d routines invoked) top-15 shares:", w, f.Executed[i])
		for _, v := range f.Top[i] {
			fmt.Fprintf(&sb, " %5.1f", v)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  (paper: ~600 routines executed; a few account for most invocations)\n")
	return sb.String()
}

// Figure7 reproduces Figure 7: temporal reuse distance of the ten most
// frequently invoked routines, averaged over the workloads.
type Figure7 struct {
	Avg      metrics.ReuseStats
	Routines []string
}

// RunFigure7 computes Figure 7.
func (e *Env) RunFigure7() (*Figure7, error) {
	var top []program.RoutineID
	if err := e.St.WithProfile(e.St.AvgOS, func(k *program.Program) error {
		top = metrics.TopRoutines(k, 10)
		return nil
	}); err != nil {
		return nil, err
	}
	var rs []metrics.ReuseStats
	for i := range e.St.Data {
		rs = append(rs, metrics.TemporalReuse(e.St.Data[i].Trace, top))
	}
	f := &Figure7{Avg: metrics.MergeReuse(rs)}
	for _, r := range top {
		f.Routines = append(f.Routines, e.St.Kernel.Prog.Routine(r).Name)
	}
	return f, nil
}

// Render draws the reuse histogram.
func (f *Figure7) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: OS instruction words between consecutive calls to the same routine\n")
	fmt.Fprintf(&sb, "  (10 hottest routines: %s)\n", strings.Join(f.Routines, ", "))
	labels := []string{"<100", "100-1K", "1K-10K", "10K-100K", ">=100K"}
	values := f.Avg.Buckets
	labels = append(labels, "Last Inv")
	values = append(append([]float64{}, values...), f.Avg.LastInv)
	sb.WriteString(textplot.BarGroup("", labels, values, func(v float64) string {
		return fmt.Sprintf("%.1f%%", v)
	}))
	sb.WriteString("  (paper: ~25% <100 words, ~70% <1000 words, ~9% last-in-invocation)\n")
	return sb.String()
}

// Figure8 reproduces Figure 8: basic-block invocation skew with loops
// counted once per invocation.
type Figure8 struct {
	Skew metrics.BlockSkew
}

// RunFigure8 computes Figure 8 over the averaged (union) profile.
func (e *Env) RunFigure8() (*Figure8, error) {
	loops := e.layouts.Loops()
	f := &Figure8{}
	if err := e.St.WithProfile(e.St.AvgOS, func(k *program.Program) error {
		f.Skew = metrics.BlockInvocationSkew(k, loops)
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Render summarises the skew.
func (f *Figure8) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: basic-block invocation skew (loops counted once per invocation)\n")
	top := f.Skew.Shares
	if len(top) > 20 {
		top = top[:20]
	}
	fmt.Fprintf(&sb, "  executed blocks: %d; top shares:", f.Skew.Executed)
	for _, v := range top {
		fmt.Fprintf(&sb, " %.2f", v)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  blocks >3%%: %d (paper: 22); >1%%: %d (paper: 157); <0.01%%: %d (paper: ~6000)\n",
		f.Skew.Over3Pct, f.Skew.Over1Pct, f.Skew.UnderPt01Pct)
	return sb.String()
}
