package expt

import (
	"fmt"
	"strings"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/simulate"
	"oslayout/internal/timing"
)

// Figure15 reproduces Figure 15: total miss rates for 4-32 KB caches under
// Base, C-H and OptS (chart a), and the estimated execution speed increase
// of OptS over Base under the simple timing model with 10/30/50-cycle miss
// penalties (chart b).
type Figure15 struct {
	Sizes     []int
	Workloads []string
	// Rates[s][w][l]: miss rate for size s, workload w, layout l in
	// {Base, C-H, OptS}.
	Rates [][][3]float64
	// Penalties and SpeedupPct[s][w][p]: OptS-over-Base speed increase.
	Penalties  []float64
	SpeedupPct [][][]float64
}

// RunFigure15 computes Figure 15.
func (e *Env) RunFigure15() (*Figure15, error) {
	f := &Figure15{
		Sizes:     []int{4 << 10, 8 << 10, 16 << 10, 32 << 10},
		Workloads: e.Workloads(),
		Penalties: []float64{10, 30, 50},
	}
	ch, err := e.Layout("ch", 0)
	if err != nil {
		return nil, err
	}
	// Build every layout first (builds serialise under the strategy-cache
	// lock, which owns the kernel weights), then evaluate the whole grid in
	// parallel.
	base := e.Base()
	layoutsBySize := make([][3]*layout.Layout, len(f.Sizes))
	for si, size := range f.Sizes {
		plan, err := e.Plan("opts", size)
		if err != nil {
			return nil, err
		}
		layoutsBySize[si] = [3]*layout.Layout{base, ch, plan.Layout}
	}
	nw := len(e.St.Data)
	f.Rates = make([][][3]float64, len(f.Sizes))
	for si := range f.Rates {
		f.Rates[si] = make([][3]float64, nw)
	}
	// Batch grid points sharing a (trace, layout) pair through the
	// single-pass engine: Base and C-H are size-independent, so all cache
	// sizes ride one trace replay; OptS is rebuilt per size, so each size
	// is its own (single-config) batch.
	type task struct {
		wi, li int
		sis    []int
	}
	allSizes := make([]int, len(f.Sizes))
	for si := range f.Sizes {
		allSizes[si] = si
	}
	var tasks []task
	for wi := 0; wi < nw; wi++ {
		tasks = append(tasks, task{wi, 0, allSizes}, task{wi, 1, allSizes})
		for si := range f.Sizes {
			tasks = append(tasks, task{wi, 2, []int{si}})
		}
	}
	err = e.parEach(len(tasks), func(j int) error {
		tk := tasks[j]
		cfgs := make([]cache.Config, len(tk.sis))
		for k, si := range tk.sis {
			cfgs[k] = cache.Config{Size: f.Sizes[si], Line: 32, Assoc: 1}
		}
		ress, err := e.EvalMany(tk.wi, []simulate.Group{{OS: layoutsBySize[tk.sis[0]][tk.li], Configs: cfgs}}, e.progress(tk.wi, cfgs), nil)
		if err != nil {
			return err
		}
		for k, si := range tk.sis {
			f.Rates[si][tk.wi][tk.li] = ress[k].Stats.MissRate()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si := range f.Sizes {
		var speedups [][]float64
		for wi := 0; wi < nw; wi++ {
			row := f.Rates[si][wi]
			var sp []float64
			for _, p := range f.Penalties {
				sp = append(sp, timing.PaperModel(p).SpeedupPct(row[0], row[2]))
			}
			speedups = append(speedups, sp)
		}
		f.SpeedupPct = append(f.SpeedupPct, speedups)
	}
	return f, nil
}

// Render formats both charts.
func (f *Figure15) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 15-(a): total miss rates (%), 32B lines, direct-mapped\n")
	sb.WriteString("  size    workload       Base     C-H    OptS\n")
	for si, size := range f.Sizes {
		for wi, w := range f.Workloads {
			r := f.Rates[si][wi]
			fmt.Fprintf(&sb, "  %3dKB   %-12s %6.2f  %6.2f  %6.2f\n",
				size>>10, w, 100*r[0], 100*r[1], 100*r[2])
		}
	}
	sb.WriteString("  (paper: Base 0.87-6.75%; C-H cuts 39-60%; OptS a further 19-38% up to 16KB, ~equal at 32KB)\n")
	sb.WriteString("Figure 15-(b): estimated speed increase of OptS over Base (%)\n")
	sb.WriteString("  size    workload       pen=10  pen=30  pen=50\n")
	for si, size := range f.Sizes {
		for wi, w := range f.Workloads {
			s := f.SpeedupPct[si][wi]
			fmt.Fprintf(&sb, "  %3dKB   %-12s %7.1f %7.1f %7.1f\n", size>>10, w, s[0], s[1], s[2])
		}
	}
	sb.WriteString("  (paper: ~10-25% gains at 30-cycle penalty; 8KB most effective as penalty grows)\n")
	return sb.String()
}

// Figure16 reproduces Figure 16: the effect of the SelfConfFree area size.
// The paper sweeps block-frequency cutoffs of 3%, 2% and 1% (areas of 376,
// 1286 and 2514 bytes) plus "None"; this reproduction uses the cutoffs that
// produce equivalent area sizes for the synthetic kernel's distribution.
type Figure16 struct {
	Sizes     []int
	Cutoffs   []float64
	AreaBytes [][]int64 // per size, per cutoff
	Workloads []string
	// Normalised[s][w][k]: misses normalised to Base, k indexes
	// {None, cutoffs...}.
	Normalised [][][]float64
}

// Figure16Cutoffs are the sweep points: 0 is "None"; the rest mirror the
// paper's 3%/2%/1% ladder at this kernel's skew (see
// core.DefaultSelfConfFreeCutoff).
var Figure16Cutoffs = []float64{0, 0.01, core.DefaultSelfConfFreeCutoff, 0.001, 0.0003}

// figure16Params are the OptS parameters of Figure 16's placement at one
// cache size and SelfConfFree cutoff; cutoff 0 disables the area.
func figure16Params(size int, cutoff float64) oslayout.PlacementParams {
	p := oslayout.DefaultPlacementParams(size)
	p.SelfConfFreeCutoff = cutoff
	p.Name = fmt.Sprintf("OptS-scf%g", cutoff)
	return p
}

// RunFigure16 computes Figure 16.
func (e *Env) RunFigure16() (*Figure16, error) {
	f := &Figure16{
		Sizes:     []int{4 << 10, 8 << 10, 16 << 10},
		Cutoffs:   Figure16Cutoffs,
		Workloads: e.Workloads(),
	}
	base := e.Base()
	nw := len(e.St.Data)
	nc := len(f.Cutoffs)
	allPlans := make([][]*layout.Layout, len(f.Sizes))
	for si, size := range f.Sizes {
		var areas []int64
		for _, cut := range f.Cutoffs {
			plan, err := e.St.Optimize(figure16Params(size, cut))
			if err != nil {
				return nil, err
			}
			areas = append(areas, plan.SCFBytes)
			allPlans[si] = append(allPlans[si], plan.Layout)
		}
		f.AreaBytes = append(f.AreaBytes, areas)
	}
	f.Normalised = make([][][]float64, len(f.Sizes))
	baseTotals := make([][]uint64, len(f.Sizes))
	for si := range f.Sizes {
		f.Normalised[si] = make([][]float64, nw)
		baseTotals[si] = make([]uint64, nw)
		for wi := 0; wi < nw; wi++ {
			f.Normalised[si][wi] = make([]float64, nc)
		}
	}
	// All Base reference runs share the trace and layout — one batched pass
	// per workload covers every cache size.
	baseCfgs := make([]cache.Config, len(f.Sizes))
	for si, size := range f.Sizes {
		baseCfgs[si] = cache.Config{Size: size, Line: 32, Assoc: 1}
	}
	if err := e.parEach(nw, func(wi int) error {
		ress, err := e.EvalMany(wi, []simulate.Group{{OS: base, Configs: baseCfgs}}, e.progress(wi, baseCfgs), nil)
		if err != nil {
			return err
		}
		for si := range f.Sizes {
			baseTotals[si][wi] = ress[si].Stats.TotalMisses()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := e.parEach(len(f.Sizes)*nw*nc, func(j int) error {
		si, wi, ci := j/(nw*nc), (j/nc)%nw, j%nc
		cfg := cache.Config{Size: f.Sizes[si], Line: 32, Assoc: 1}
		res, err := e.Eval(wi, allPlans[si][ci], nil, cfg)
		if err != nil {
			return err
		}
		f.Normalised[si][wi][ci] = ratio(res.Stats.TotalMisses(), baseTotals[si][wi])
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Render formats the sweep.
func (f *Figure16) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 16: effect of the SelfConfFree area size (misses normalised to Base)\n")
	for si, size := range f.Sizes {
		fmt.Fprintf(&sb, "  %dKB cache; SCF areas:", size>>10)
		for k, cut := range f.Cutoffs {
			if cut == 0 {
				fmt.Fprintf(&sb, " None=0B")
			} else {
				fmt.Fprintf(&sb, " cut%.3g%%=%dB", 100*cut, f.AreaBytes[si][k])
			}
		}
		sb.WriteString("\n")
		sb.WriteString("    workload       None")
		for _, cut := range f.Cutoffs[1:] {
			fmt.Fprintf(&sb, "  cut%.3g%%", 100*cut)
		}
		sb.WriteString("\n")
		for wi, w := range f.Workloads {
			fmt.Fprintf(&sb, "    %-12s", w)
			for _, v := range f.Normalised[si][wi] {
				fmt.Fprintf(&sb, " %7.2f", v)
			}
			sb.WriteString("\n")
		}
	}
	sb.WriteString("  (paper: mid cutoff (~1KB area) best overall; larger areas help small caches,\n")
	sb.WriteString("   smaller areas help large caches)\n")
	return sb.String()
}

// Figure17 reproduces Figure 17: miss rates for line sizes 16-128 bytes
// (chart a) and associativities 1-8 (chart b) on an 8 KB cache.
type Figure17 struct {
	Lines     []int
	Assocs    []int
	Workloads []string
	// LineRates[l][w][k], AssocRates[a][w][k] with k in {Base, C-H, OptS}.
	LineRates  [][][3]float64
	AssocRates [][][3]float64
}

// RunFigure17 computes Figure 17.
func (e *Env) RunFigure17() (*Figure17, error) {
	f := &Figure17{
		Lines:     []int{16, 32, 64, 128},
		Assocs:    []int{1, 2, 4, 8},
		Workloads: e.Workloads(),
	}
	ch, err := e.Layout("ch", 0)
	if err != nil {
		return nil, err
	}
	plan, err := e.Plan("opts", 8<<10)
	if err != nil {
		return nil, err
	}
	layouts := []*layout.Layout{e.Base(), ch, plan.Layout}
	// The whole figure is one 8-point grid over a fixed (trace, layout)
	// pair: the line-size sweep plus the associativity sweep. Batch all of
	// it through the single-pass engine, one task per (workload, layout).
	var cfgs []cache.Config
	for _, line := range f.Lines {
		cfgs = append(cfgs, cache.Config{Size: 8 << 10, Line: line, Assoc: 1})
	}
	for _, assoc := range f.Assocs {
		cfgs = append(cfgs, cache.Config{Size: 8 << 10, Line: 32, Assoc: assoc})
	}
	nw := len(e.St.Data)
	f.LineRates = make([][][3]float64, len(f.Lines))
	for li := range f.LineRates {
		f.LineRates[li] = make([][3]float64, nw)
	}
	f.AssocRates = make([][][3]float64, len(f.Assocs))
	for ai := range f.AssocRates {
		f.AssocRates[ai] = make([][3]float64, nw)
	}
	err = e.parEach(nw*3, func(j int) error {
		wi, k := j/3, j%3
		ress, err := e.EvalMany(wi, []simulate.Group{{OS: layouts[k], Configs: cfgs}}, e.progress(wi, cfgs), nil)
		if err != nil {
			return err
		}
		for li := range f.Lines {
			f.LineRates[li][wi][k] = ress[li].Stats.MissRate()
		}
		for ai := range f.Assocs {
			f.AssocRates[ai][wi][k] = ress[len(f.Lines)+ai].Stats.MissRate()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Render formats both sweeps.
func (f *Figure17) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 17-(a): miss rates (%) vs line size, 8KB direct-mapped\n")
	sb.WriteString("  line    workload       Base     C-H    OptS\n")
	for li, line := range f.Lines {
		for wi, w := range f.Workloads {
			r := f.LineRates[li][wi]
			fmt.Fprintf(&sb, "  %4dB   %-12s %6.2f  %6.2f  %6.2f\n", line, w, 100*r[0], 100*r[1], 100*r[2])
		}
	}
	sb.WriteString("Figure 17-(b): miss rates (%) vs associativity, 8KB, 32B lines\n")
	sb.WriteString("  ways    workload       Base     C-H    OptS\n")
	for ai, a := range f.Assocs {
		for wi, w := range f.Workloads {
			r := f.AssocRates[ai][wi]
			fmt.Fprintf(&sb, "  %4d    %-12s %6.2f  %6.2f  %6.2f\n", a, w, 100*r[0], 100*r[1], 100*r[2])
		}
	}
	sb.WriteString("  (paper: OptS gains grow with line size (59%->70%) and shrink with associativity\n")
	sb.WriteString("   (55%->41%); direct-mapped OptS beats 8-way Base)\n")
	return sb.String()
}

// Figure18 reproduces Figure 18: the architectural/algorithmic alternatives
// on an 8 KB budget — Base, OptA, Sep (statically split cache), Resv (small
// reserved OS cache) and Call (the Section 4.4 loop-with-callees
// optimisation).
type Figure18 struct {
	Workloads []string
	Setups    []string
	// Normalised[w][s]: total misses normalised to Base.
	Normalised [][]float64
}

// resvParams are the parameters of Figure 18's Resv plan: the
// SelfConfFree-qualifying blocks live in a dedicated 1KB cache; the OS image
// keeps them contiguous but reserves no windows in the other logical caches
// ("laid out without SelfConfFree area").
func resvParams() oslayout.PlacementParams {
	p := oslayout.DefaultPlacementParams(7 << 10)
	p.Name = "Resv"
	p.NoSCFWindows = true
	return p
}

// RunFigure18 computes Figure 18.
func (e *Env) RunFigure18() (*Figure18, error) {
	cfg := DefaultCache
	f := &Figure18{
		Workloads: e.Workloads(),
		Setups:    []string{"Base", "OptA", "Sep", "Resv", "Call"},
	}
	optsFull, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	// Sep: half the cache for the OS, half for the application, both
	// halves optimised for a half-size cache. The halves fold into one
	// way-partitioned cache with dedicated OS and application ways.
	halfPlan, err := e.Plan("opts", cfg.Size/2)
	if err != nil {
		return nil, err
	}
	halfCfg := cache.Config{Size: cfg.Size / 2, Line: cfg.Line, Assoc: cfg.Assoc}
	sepCfg, err := oslayout.CombineSplit(halfCfg, halfCfg)
	if err != nil {
		return nil, err
	}
	noSCF, err := e.St.Optimize(resvParams())
	if err != nil {
		return nil, err
	}
	// The reserved cache is a 1KB reserved way region for the hottest
	// sequence blocks next to a 7KB main region, realised as one
	// way-partitioned cache (the main region is 7-way so both regions index
	// the same 32 sets; the historical model used a direct-mapped 7KB main
	// cache — see EXPERIMENTS.md for the delta). A line straddling reserved
	// and unreserved code routes reserved.
	resvCfg, err := oslayout.CombineReserved(
		cache.Config{Size: 1 << 10, Line: cfg.Line, Assoc: cfg.Assoc},
		cache.Config{Size: 7 << 10, Line: cfg.Line, Assoc: 7 * cfg.Assoc})
	if err != nil {
		return nil, err
	}
	resvLines := oslayout.ReservedLines(noSCF.Layout, noSCF.SelfConfFree, resvCfg.Line)
	resvSetup := []oslayout.CacheSetup{func(c *cache.Cache) error { return c.SetReservedLines(resvLines) }}
	callPlan, err := e.Plan("optcall", cfg.Size)
	if err != nil {
		return nil, err
	}

	for i := range e.St.Data {
		baseRes, err := e.Eval(i, e.Base(), nil, cfg)
		if err != nil {
			return nil, err
		}
		baseTotal := baseRes.Stats.TotalMisses()
		row := []float64{1.0}

		appOpt, err := e.AppOpt(i, cfg.Size, optsFull)
		if err != nil {
			return nil, err
		}
		resA, err := e.Eval(i, optsFull.Layout, appOpt, cfg)
		if err != nil {
			return nil, err
		}
		row = append(row, ratio(resA.Stats.TotalMisses(), baseTotal))

		appHalf, err := e.AppOpt(i, halfCfg.Size, halfPlan)
		if err != nil {
			return nil, err
		}
		resSep, err := e.EvalMany(i, []simulate.Group{{OS: halfPlan.Layout, App: appHalf, Configs: []cache.Config{sepCfg}}}, nil, nil)
		if err != nil {
			return nil, err
		}
		row = append(row, ratio(resSep[0].Stats.TotalMisses(), baseTotal))

		appOptR, err := e.AppOpt(i, cfg.Size, noSCF)
		if err != nil {
			return nil, err
		}
		resResv, err := e.EvalMany(i, []simulate.Group{{OS: noSCF.Layout, App: appOptR, Configs: []cache.Config{resvCfg}}}, nil, resvSetup)
		if err != nil {
			return nil, err
		}
		row = append(row, ratio(resResv[0].Stats.TotalMisses(), baseTotal))

		// Call: the advanced Section 4.4 loop optimisation plus OptA app.
		appOptC, err := e.AppOpt(i, cfg.Size, callPlan)
		if err != nil {
			return nil, err
		}
		resCall, err := e.Eval(i, callPlan.Layout, appOptC, cfg)
		if err != nil {
			return nil, err
		}
		row = append(row, ratio(resCall.Stats.TotalMisses(), baseTotal))

		f.Normalised = append(f.Normalised, row)
	}
	return f, nil
}

// Render formats the comparison.
func (f *Figure18) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 18: alternative setups, 8KB total, 32B lines (misses normalised to Base)\n")
	fmt.Fprintf(&sb, "  %-12s", "workload")
	for _, s := range f.Setups {
		fmt.Fprintf(&sb, " %7s", s)
	}
	sb.WriteString("\n")
	for i, w := range f.Workloads {
		fmt.Fprintf(&sb, "  %-12s", w)
		for _, v := range f.Normalised[i] {
			fmt.Fprintf(&sb, " %7.2f", v)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  (paper: Sep and Resv lose to OptA; Call increases OS misses 20-100% over OptA)\n")
	return sb.String()
}
