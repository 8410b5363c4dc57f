package expt

// Extension experiments beyond the paper's tables and figures: robustness
// and ablation studies that the paper's methodology implies but does not
// print. Each is registered like the paper experiments and is reproducible
// the same way (`oslayout xprofile`, `oslayout ablation`, ...).

import (
	"fmt"
	"math"
	"strings"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/cfa"
	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
	"oslayout/internal/workload"
)

// CrossProfile is the cross-profile robustness matrix: the OptS layout is
// built from workload i's profile alone and evaluated on workload j's
// trace, plus the paper's averaged-profile row. The paper derives its
// layouts "after taking the average of the profiles of all the workloads";
// this experiment quantifies why that is safe (Section 3.2: "different
// workloads generally exercise the same popular routines").
type CrossProfile struct {
	Workloads []string
	// Normalised[i][j]: misses of workload j under the layout built from
	// profile i, normalised to workload j's Base misses. Row len(Workloads)
	// is the averaged-profile layout.
	Normalised [][]float64
}

// RunCrossProfile computes the matrix at the default cache.
func (e *Env) RunCrossProfile() (*CrossProfile, error) {
	cfg := DefaultCache
	x := &CrossProfile{Workloads: e.Workloads()}
	n := len(e.St.Data)

	baseTotals := make([]uint64, n)
	for j := range e.St.Data {
		res, err := e.Eval(j, e.Base(), nil, cfg)
		if err != nil {
			return nil, err
		}
		baseTotals[j] = res.Stats.TotalMisses()
	}

	evalRow := func(plan *oslayout.Plan) ([]float64, error) {
		row := make([]float64, n)
		for j := range e.St.Data {
			res, err := e.Eval(j, plan.Layout, nil, cfg)
			if err != nil {
				return nil, err
			}
			row[j] = ratio(res.Stats.TotalMisses(), baseTotals[j])
		}
		return row, nil
	}

	for i, d := range e.St.Data {
		params := oslayout.DefaultPlacementParams(cfg.Size)
		params.Name = fmt.Sprintf("OptS-from-%s", x.Workloads[i])
		plan, err := e.St.OptimizeFrom(d.OSProfile, params)
		if err != nil {
			return nil, err
		}
		row, err := evalRow(plan)
		if err != nil {
			return nil, err
		}
		x.Normalised = append(x.Normalised, row)
	}
	avgPlan, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	row, err := evalRow(avgPlan)
	if err != nil {
		return nil, err
	}
	x.Normalised = append(x.Normalised, row)
	return x, nil
}

// Render formats the matrix.
func (x *CrossProfile) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: cross-profile robustness (misses normalised to each workload's Base)\n")
	sb.WriteString("  layout profile \\ evaluated on")
	for _, w := range x.Workloads {
		fmt.Fprintf(&sb, " %11s", w)
	}
	sb.WriteString("\n")
	labels := append(append([]string{}, x.Workloads...), "averaged")
	for i, row := range x.Normalised {
		fmt.Fprintf(&sb, "  %-28s", labels[i])
		for _, v := range row {
			fmt.Fprintf(&sb, " %11.2f", v)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  (diagonal = self-profiled optimum; the averaged row should track it closely,\n")
	sb.WriteString("   justifying the paper's averaged-profile methodology)\n")
	return sb.String()
}

// Baselines compares the layout families at the default cache: the original
// layout, a shuffle control, the McFarling-style and Pettis-Hansen
// call-graph baselines, Chang-Hwu, and the paper's OptS — each requested
// from the strategy registry by name.
type Baselines struct {
	Workloads []string
	// Strategies holds the registry names; Layouts the display labels.
	Strategies []string
	Layouts    []string
	// Rates[w][l] are total miss rates.
	Rates [][]float64
}

// baselineLadder is the comparison ladder, weakest family first.
var baselineLadder = []struct{ name, label string }{
	{"base", "Base"},
	{"shuffle", "Shuffle"},
	{"mcf", "McF"},
	{"ph", "PH"},
	{"ch", "C-H"},
	{"opts", "OptS"},
}

// RunBaselines computes the comparison.
func (e *Env) RunBaselines() (*Baselines, error) {
	cfg := DefaultCache
	b := &Baselines{Workloads: e.Workloads()}
	var layouts []*layout.Layout
	for _, s := range baselineLadder {
		l, err := e.Layout(s.name, cfg.Size)
		if err != nil {
			return nil, err
		}
		if err := l.Validate(); err != nil {
			return nil, err
		}
		b.Strategies = append(b.Strategies, s.name)
		b.Layouts = append(b.Layouts, s.label)
		layouts = append(layouts, l)
	}
	for i := range e.St.Data {
		var row []float64
		for _, l := range layouts {
			res, err := e.Eval(i, l, nil, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Stats.MissRate())
		}
		b.Rates = append(b.Rates, row)
	}
	return b, nil
}

// Render formats the comparison.
func (b *Baselines) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: baseline families, 8KB DM, 32B lines (total miss rate %)\n")
	fmt.Fprintf(&sb, "  %-12s", "workload")
	for _, l := range b.Layouts {
		fmt.Fprintf(&sb, " %7s", l)
	}
	sb.WriteString("\n")
	for i, w := range b.Workloads {
		fmt.Fprintf(&sb, "  %-12s", w)
		for _, v := range b.Rates[i] {
			fmt.Fprintf(&sb, " %6.2f%%", 100*v)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  (expected: {Base, Shuffle} > McF >= PH > C-H > OptS — a random routine\n")
	sb.WriteString("   shuffle is no cure, call-graph procedure ordering helps, intra-routine\n")
	sb.WriteString("   traces help more, cross-routine sequences + SelfConfFree most)\n")
	return sb.String()
}

// Ablation evaluates OptS design choices in isolation at the default cache:
// the SelfConfFree area, the threshold schedule granularity, the seed count
// and the loop-extraction trip threshold.
type Ablation struct {
	Workloads []string
	Variants  []string
	// Normalised[v][w]: misses under variant v normalised to Base.
	Normalised [][]float64
}

// ablationVariant is one row of the ablation: OptS parameters at the
// default cache, named after the row, and whether the sequences grow from
// the interrupt seed alone.
type ablationVariant struct {
	params     core.Params
	singleSeed bool
}

// ablationVariants lists the ablation's rows.
func ablationVariants() []ablationVariant {
	coarse := core.StaggeredSchedule([]float64{0.001, 0}, []float64{0.1, 0})
	var out []ablationVariant
	add := func(name string, singleSeed bool, mutate func(*core.Params)) {
		params := oslayout.DefaultPlacementParams(DefaultCache.Size)
		params.Name = name
		if mutate != nil {
			mutate(&params)
		}
		out = append(out, ablationVariant{params: params, singleSeed: singleSeed})
	}
	add("OptS (default)", false, nil)
	add("no SelfConfFree", false, func(p *core.Params) { p.SelfConfFreeCutoff = 0 })
	add("paper Table-4 ladder", false, func(p *core.Params) { p.Schedule = core.Table4Schedule() })
	add("coarse 2-pass ladder", false, func(p *core.Params) { p.Schedule = coarse })
	add("single seed (interrupt)", true, nil)
	add("OptL trips>=2", false, func(p *core.Params) { p.LoopExtract = true; p.LoopMinTrips = 2 })
	add("OptL trips>=20", false, func(p *core.Params) { p.LoopExtract = true; p.LoopMinTrips = 20 })
	add("seq cap 2KB", false, func(p *core.Params) { p.MaxSeqBytes = 2 << 10 })
	add("seq cap 512B", false, func(p *core.Params) { p.MaxSeqBytes = 512 })
	return out
}

// interruptSeedOnly returns the kernel's seed entries with every seed but
// the interrupt one removed.
func interruptSeedOnly(p *program.Program) [program.NumSeedClasses]program.BlockID {
	var out [program.NumSeedClasses]program.BlockID
	for c := range out {
		out[c] = program.NoBlock
	}
	out[program.SeedInterrupt] = core.SeedEntries(p)[program.SeedInterrupt]
	return out
}

// ablationPlan builds one ablation row through the strategy cache, under
// the lock that serialises every profile application and layout build on
// the study. Rows on the kernel's seeds place from its skeletons of the
// averaged profile; only the single-seed row runs the whole algorithm.
func (e *Env) ablationPlan(v ablationVariant) (*oslayout.Plan, error) {
	var b *strategy.Built
	var err error
	if v.singleSeed {
		b, err = e.layouts.Custom("ablation:"+v.params.Name, func(_ strategy.Study, loops []cfa.Loop) (*layout.Layout, *core.Plan, error) {
			prog := e.St.Kernel.Prog
			if err := e.St.AvgOS.Apply(prog); err != nil {
				return nil, nil, err
			}
			plan, err := core.Optimize(prog, loops, interruptSeedOnly(prog), 0, v.params)
			if err != nil {
				return nil, nil, err
			}
			return plan.Layout, plan, nil
		})
	} else {
		b, err = e.layouts.Place(v.params)
	}
	if err != nil {
		return nil, err
	}
	return b.Plan, nil
}

// RunAblation computes the ablation table.
func (e *Env) RunAblation() (*Ablation, error) {
	cfg := DefaultCache
	a := &Ablation{Workloads: e.Workloads()}
	for _, v := range ablationVariants() {
		a.Variants = append(a.Variants, v.params.Name)
		plan, err := e.ablationPlan(v)
		if err != nil {
			return nil, err
		}
		var row []float64
		for i := range e.St.Data {
			baseRes, err := e.Eval(i, e.Base(), nil, cfg)
			if err != nil {
				return nil, err
			}
			res, err := e.Eval(i, plan.Layout, nil, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, ratio(res.Stats.TotalMisses(), baseRes.Stats.TotalMisses()))
		}
		a.Normalised = append(a.Normalised, row)
	}
	return a, nil
}

// Render formats the ablation table.
func (a *Ablation) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: OptS ablations, 8KB DM (misses normalised to Base)\n")
	fmt.Fprintf(&sb, "  %-26s", "variant")
	for _, w := range a.Workloads {
		fmt.Fprintf(&sb, " %11s", w)
	}
	sb.WriteString("\n")
	for v, name := range a.Variants {
		fmt.Fprintf(&sb, "  %-26s", name)
		for _, x := range a.Normalised[v] {
			fmt.Fprintf(&sb, " %11.2f", x)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  (each removed ingredient should cost misses relative to the default)\n")
	return sb.String()
}

// MultiCPU mirrors the paper's methodology note that "for most of the
// experiments, we take the average of the four processors in the machine":
// four per-CPU traces of each workload (distinct walker seeds) are evaluated
// under Base and OptS, reporting the mean and spread of the miss rates.
type MultiCPU struct {
	Workloads []string
	// MeanBase/MeanOptS are per-workload mean miss rates over the CPUs;
	// Spread* are (max-min) over the CPUs.
	MeanBase, SpreadBase, MeanOptS, SpreadOptS []float64
	CPUs                                       int
}

// RunMultiCPU computes the per-CPU statistics. The per-CPU traces are the
// same ones fig19 interleaves (the multi-source's walker-seed family, at
// the study's reference target), each replayed independently through the
// batched engine — honouring the environment's streaming mode, worker
// bound, recorder and live-progress hook.
func (e *Env) RunMultiCPU() (*MultiCPU, error) {
	cpus := e.cpus
	cfg := DefaultCache
	plan, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	m := &MultiCPU{Workloads: e.Workloads(), CPUs: cpus}
	nw := len(e.St.Data)

	// Sources are built serially (application image construction is not
	// replay work); the cpus×workloads replay grid fans out below.
	srcs := make([]*workload.MultiSource, nw)
	for i := range srcs {
		if srcs[i], err = e.multiSource(i, cpus); err != nil {
			return nil, err
		}
	}

	layouts := []*layout.Layout{e.Base(), plan.Layout}
	rates := make([][2][]float64, nw)
	for i := range rates {
		rates[i][0] = make([]float64, cpus)
		rates[i][1] = make([]float64, cpus)
	}
	if err := e.parEach(nw*cpus, func(j int) error {
		i, cpu := j/cpus, j%cpus
		tr, err := e.cpuTrace(srcs[i], cpu)
		if err != nil {
			return err
		}
		appL := appBaseOf(srcs[i])
		for li, osL := range layouts {
			var observers []obs.Observer
			if e.onWindow != nil {
				observers = []obs.Observer{e.progressObserver(i, cfg)}
			}
			start := time.Now()
			ress, err := simulate.RunManyOpt(tr, osL, appL,
				[]cache.Config{cfg}, simulate.Options{Observers: observers, Workers: e.par})
			if err != nil {
				return err
			}
			e.recordReplay(tr, 1, start, ress...)
			rates[i][li][cpu] = ress[0].Stats.MissRate()
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for i := range rates {
		mb, sb := meanSpread(rates[i][0])
		mo, so := meanSpread(rates[i][1])
		m.MeanBase = append(m.MeanBase, mb)
		m.SpreadBase = append(m.SpreadBase, sb)
		m.MeanOptS = append(m.MeanOptS, mo)
		m.SpreadOptS = append(m.SpreadOptS, so)
	}
	return m, nil
}

// Render formats the per-CPU table.
func (m *MultiCPU) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: per-CPU variation over %d simulated CPUs, 8KB DM (miss rate %%)\n", m.CPUs)
	sb.WriteString("  workload          Base mean±spread     OptS mean±spread\n")
	for i, w := range m.Workloads {
		fmt.Fprintf(&sb, "  %-12s     %8.2f ± %.2f      %8.2f ± %.2f\n",
			w, 100*m.MeanBase[i], 100*m.SpreadBase[i], 100*m.MeanOptS[i], 100*m.SpreadOptS[i])
	}
	sb.WriteString("  (per-CPU spread should be small relative to the Base-to-OptS gap,\n")
	sb.WriteString("   validating the paper's averaging over processors)\n")
	return sb.String()
}

// ReplacementPolicy checks that the layout conclusions are not artefacts of
// LRU replacement: Base and OptS are compared under LRU and random
// replacement on a 4-way cache.
type ReplacementPolicy struct {
	Workloads []string
	// Rates[w] = [BaseLRU, BaseRand, OptSLRU, OptSRand] miss rates.
	Rates [][4]float64
}

// RunReplacementPolicy computes the comparison.
func (e *Env) RunReplacementPolicy() (*ReplacementPolicy, error) {
	lru := cache.Config{Size: 8 << 10, Line: 32, Assoc: 4}
	rnd := cache.Config{Size: 8 << 10, Line: 32, Assoc: 4, Policy: cache.RandomReplacement}
	plan, err := e.Plan("opts", 8<<10)
	if err != nil {
		return nil, err
	}
	r := &ReplacementPolicy{Workloads: e.Workloads()}
	r.Rates = make([][4]float64, len(e.St.Data))
	// Both policies share each (trace, layout) pair: batch them through the
	// single-pass engine, in parallel over workload × layout.
	layouts := []*layout.Layout{e.Base(), plan.Layout}
	cfgs := []cache.Config{lru, rnd}
	if err := e.parEach(len(e.St.Data)*2, func(j int) error {
		i, li := j/2, j%2
		ress, err := e.EvalMany(i, []simulate.Group{{OS: layouts[li], Configs: cfgs}}, e.progress(i, cfgs), nil)
		if err != nil {
			return err
		}
		r.Rates[i][2*li] = ress[0].Stats.MissRate()
		r.Rates[i][2*li+1] = ress[1].Stats.MissRate()
		return nil
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Render formats the policy comparison.
func (r *ReplacementPolicy) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension: replacement policy, 8KB 4-way (miss rate %)\n")
	sb.WriteString("  workload       Base/LRU  Base/rand  OptS/LRU  OptS/rand\n")
	for i, w := range r.Workloads {
		x := r.Rates[i]
		fmt.Fprintf(&sb, "  %-12s    %6.2f     %6.2f    %6.2f     %6.2f\n",
			w, 100*x[0], 100*x[1], 100*x[2], 100*x[3])
	}
	sb.WriteString("  (OptS should beat Base under both policies; random replacement is a bit\n")
	sb.WriteString("   worse than LRU for both layouts)\n")
	return sb.String()
}

// meanSpread returns the mean and max-min spread of the finite values;
// NaN and Inf entries (a zero-reference replay's 0/0) are skipped, and an
// empty or all-non-finite input yields (0, 0) rather than NaN.
func meanSpread(vals []float64) (mean, spread float64) {
	n := 0
	var mn, mx float64
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if n == 0 {
			mn, mx = v, v
		}
		n++
		mean += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if n == 0 {
		return 0, 0
	}
	return mean / float64(n), mx - mn
}
