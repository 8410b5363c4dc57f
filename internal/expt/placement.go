package expt

import (
	"fmt"
	"strings"

	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/textplot"
	"oslayout/internal/trace"
)

// Table4 reproduces Table 4: the (ExecThresh, BranchThresh) schedule and the
// size of the sequence each pair generates for each seed.
type Table4 struct {
	Sequences []core.Sequence
	NumIters  int
}

// RunTable4 computes Table 4 from the averaged profile.
func (e *Env) RunTable4() (*Table4, error) {
	plan, err := e.Plan("opts", DefaultCache.Size)
	if err != nil {
		return nil, err
	}
	t := &Table4{Sequences: plan.Sequences}
	for _, s := range plan.Sequences {
		if s.Iter+1 > t.NumIters {
			t.NumIters = s.Iter + 1
		}
	}
	return t, nil
}

// Render formats the schedule table.
func (t *Table4) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 4: ExecThresh/BranchThresh schedule and resulting sequences\n")
	sb.WriteString("  iter   seed        ExecThresh  BranchThresh     #BBs    bytes\n")
	for _, s := range t.Sequences {
		fmt.Fprintf(&sb, "  %4d   %-10s  %10.3g  %12.3g  %7d  %7d\n",
			s.Iter, s.Seed, s.Thresh.Exec, s.Thresh.Branch, len(s.Blocks), s.Bytes)
	}
	sb.WriteString("  (paper: first interrupt sequence 49 BBs/810B at (1.4%, 40%); sizes grow as thresholds drop)\n")
	return sb.String()
}

// LayoutBars holds one workload's miss decomposition under one layout.
type LayoutBars struct {
	Layout string
	// Components: OS self, OS cross (with app), app cross (with OS), app
	// self. All normalised to the workload's Base total misses.
	OSSelf, OSCross, AppCross, AppSelf float64
	// Total is the normalised total including cold misses.
	Total float64
	// MissRate is the absolute total miss rate.
	MissRate float64
}

// Figure12 reproduces Figure 12: the reference breakdown and the normalised
// misses for Base, C-H, OptS, OptL and OptA on the 8 KB direct-mapped cache.
type Figure12 struct {
	Workloads []string
	// OSRefShare is each workload's OS share of references.
	OSRefShare []float64
	// Bars[w][l] is workload w's decomposition under layout l.
	Bars [][]LayoutBars
}

// layoutBars builds the decomposition from a simulation result.
func layoutBars(name string, res *simulate.Result, baseTotal uint64) LayoutBars {
	s := &res.Stats
	norm := func(v uint64) float64 { return ratio(v, baseTotal) }
	return LayoutBars{
		Layout:   name,
		OSSelf:   norm(s.Self[trace.DomainOS]),
		OSCross:  norm(s.Cross[trace.DomainOS]),
		AppCross: norm(s.Cross[trace.DomainApp]),
		AppSelf:  norm(s.Self[trace.DomainApp]),
		Total:    norm(s.TotalMisses()),
		MissRate: s.MissRate(),
	}
}

// RunFigure12 computes Figure 12.
func (e *Env) RunFigure12() (*Figure12, error) {
	cfg := DefaultCache
	ch, err := e.Layout("ch", 0)
	if err != nil {
		return nil, err
	}
	opts, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	optl, err := e.Plan("optl", cfg.Size)
	if err != nil {
		return nil, err
	}
	f := &Figure12{Workloads: e.Workloads()}
	for i, d := range e.St.Data {
		osRefs, appRefs := d.Trace.Refs()
		f.OSRefShare = append(f.OSRefShare, ratio(osRefs, osRefs+appRefs))

		var bars []LayoutBars
		baseRes, err := e.Eval(i, e.Base(), nil, cfg)
		if err != nil {
			return nil, err
		}
		baseTotal := baseRes.Stats.TotalMisses()
		bars = append(bars, layoutBars("Base", baseRes, baseTotal))
		for _, v := range []struct {
			name string
			l    *layout.Layout
		}{{"C-H", ch}, {"OptS", opts.Layout}, {"OptL", optl.Layout}} {
			res, err := e.Eval(i, v.l, nil, cfg)
			if err != nil {
				return nil, err
			}
			bars = append(bars, layoutBars(v.name, res, baseTotal))
		}
		// OptA: optimised application layout on top of OptS.
		appL, err := e.AppOpt(i, cfg.Size, opts)
		if err != nil {
			return nil, err
		}
		resA, err := e.Eval(i, opts.Layout, appL, cfg)
		if err != nil {
			return nil, err
		}
		bars = append(bars, layoutBars("OptA", resA, baseTotal))
		f.Bars = append(f.Bars, bars)
	}
	return f, nil
}

// Render draws the grouped bars.
func (f *Figure12) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 12: references and normalised misses, 8KB DM, 32B lines\n")
	sb.WriteString("reference breakdown (OS share): ")
	for i, w := range f.Workloads {
		fmt.Fprintf(&sb, "%s %.0f%%  ", w, 100*f.OSRefShare[i])
	}
	sb.WriteString("\n")
	for i, w := range f.Workloads {
		fmt.Fprintf(&sb, "%s (normalised to Base total = 1.00):\n", w)
		for _, b := range f.Bars[i] {
			fmt.Fprintf(&sb, "  %s\n", textplot.Bar(b.Layout, b.Total, 1.0, 40,
				fmt.Sprintf("%.2f  (OSself %.2f, OScross %.2f, appX %.2f, appSelf %.2f; rate %.2f%%)",
					b.Total, b.OSSelf, b.OSCross, b.AppCross, b.AppSelf, 100*b.MissRate)))
		}
	}
	sb.WriteString("(paper: C-H 0.43-0.62 of Base; OptS 0.24-0.53; OptL ~OptS; OptA 4-19% below OptS)\n")
	return sb.String()
}

// Figure13 reproduces Figure 13: OS references and misses classified by the
// block type a basic block has under OptL (MainSeq, SelfConfFree, Loops,
// OtherSeq) for the Base, C-H, OptS and OptL layouts.
type Figure13 struct {
	Workloads []string
	Layouts   []string
	// RefPct[w][class] is the share of OS references per class.
	RefPct [][4]float64
	// MissPct[w][l][class] is the share of OS misses per class, normalised
	// to the workload's Base OS misses.
	MissPct [][][4]float64
}

// figure13Classes maps BlockClass to the report column (MainSeq,
// SelfConfFree, Loops, OtherSeq); cold blocks are folded into OtherSeq.
func figure13Class(c core.BlockClass) int {
	switch c {
	case core.ClassMainSeq:
		return 0
	case core.ClassSelfConfFree:
		return 1
	case core.ClassLoops:
		return 2
	default:
		return 3
	}
}

// RunFigure13 computes Figure 13.
func (e *Env) RunFigure13() (*Figure13, error) {
	cfg := DefaultCache
	plan, err := e.Plan("optl", cfg.Size)
	if err != nil {
		return nil, err
	}
	classes := plan.Classes
	ch, err := e.Layout("ch", 0)
	if err != nil {
		return nil, err
	}
	opts, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	f := &Figure13{
		Workloads: e.Workloads(),
		Layouts:   []string{"Base", "C-H", "OptS", "OptL"},
	}
	layouts := []*layout.Layout{e.Base(), ch, opts.Layout, plan.Layout}
	for i, d := range e.St.Data {
		// Reference shares from the workload profile.
		var refs [4]float64
		var total float64
		if err := e.St.WithProfile(d.OSProfile, func(k *program.Program) error {
			for b := range k.Blocks {
				blk := &k.Blocks[b]
				if blk.Weight == 0 {
					continue
				}
				r := float64(blk.Weight) * float64(trace.RefsOf(blk.Size))
				refs[figure13Class(classes[b])] += r
				total += r
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for c := range refs {
			refs[c] = 100 * refs[c] / total
		}
		f.RefPct = append(f.RefPct, refs)

		var rows [][4]float64
		var baseOSMisses float64
		for li, l := range layouts {
			_, blocks, err := e.EvalBlocks(i, l, nil, cfg)
			if err != nil {
				return nil, err
			}
			var row [4]float64
			for b, m := range blocks.Misses[trace.DomainOS] {
				row[figure13Class(classes[b])] += float64(m)
			}
			if li == 0 {
				baseOSMisses = row[0] + row[1] + row[2] + row[3]
			}
			for c := range row {
				row[c] = 100 * row[c] / baseOSMisses
			}
			rows = append(rows, row)
		}
		f.MissPct = append(f.MissPct, rows)
	}
	return f, nil
}

// Render formats the classification tables.
func (f *Figure13) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 13: OS references and misses by block class (classes fixed under OptL)\n")
	sb.WriteString("  references (% of OS refs):\n")
	sb.WriteString("    workload       MainSeq  SelfConfFree  Loops  OtherSeq\n")
	for i, w := range f.Workloads {
		r := f.RefPct[i]
		fmt.Fprintf(&sb, "    %-12s   %6.1f   %11.1f  %5.1f   %7.1f\n", w, r[0], r[1], r[2], r[3])
	}
	sb.WriteString("  misses (% of the workload's Base OS misses):\n")
	sb.WriteString("    workload     layout   MainSeq  SelfConfFree  Loops  OtherSeq  total\n")
	for i, w := range f.Workloads {
		for li, l := range f.Layouts {
			m := f.MissPct[i][li]
			fmt.Fprintf(&sb, "    %-12s %-7s  %6.1f   %11.1f  %5.1f   %7.1f  %5.1f\n",
				w, l, m[0], m[1], m[2], m[3], m[0]+m[1]+m[2]+m[3])
		}
	}
	sb.WriteString("  (paper: MainSeq+SelfConfFree cause 67-83% of Base misses (33% Shell);\n")
	sb.WriteString("   loops cause practically none; OptS eliminates SelfConfFree misses)\n")
	return sb.String()
}

// Figure14 reproduces Figure 14: the distribution of OS misses over the
// code (plotted against Base addresses) for Base, C-H and OptS, summed over
// all workloads.
type Figure14 struct {
	Base, CH, OptS []uint64
	// Peak ratios: highest 1KB bucket value per layout.
	PeakBase, PeakCH, PeakOptS uint64
}

// RunFigure14 computes Figure 14.
func (e *Env) RunFigure14() (*Figure14, error) {
	cfg := DefaultCache
	ch, err := e.Layout("ch", 0)
	if err != nil {
		return nil, err
	}
	opts, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	f := &Figure14{}
	sum := func(dst *[]uint64, l *layout.Layout) error {
		for i := range e.St.Data {
			_, blocks, err := e.EvalBlocks(i, l, nil, cfg)
			if err != nil {
				return err
			}
			h := simulate.HistogramOf(blocks.Misses[trace.DomainOS], e.Base(), 1<<10)
			if *dst == nil {
				*dst = make([]uint64, len(h))
			}
			for j, v := range h {
				(*dst)[j] += v
			}
		}
		return nil
	}
	if err := sum(&f.Base, e.Base()); err != nil {
		return nil, err
	}
	if err := sum(&f.CH, ch); err != nil {
		return nil, err
	}
	if err := sum(&f.OptS, opts.Layout); err != nil {
		return nil, err
	}
	peak := func(h []uint64) uint64 {
		var m uint64
		for _, v := range h {
			if v > m {
				m = v
			}
		}
		return m
	}
	f.PeakBase, f.PeakCH, f.PeakOptS = peak(f.Base), peak(f.CH), peak(f.OptS)
	return f, nil
}

// Render draws the three profiles.
func (f *Figure14) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 14: OS miss distribution vs Base address, all workloads, 8KB DM\n")
	sb.WriteString(textplot.Profile("Base", f.Base, 100))
	sb.WriteString(textplot.Profile("C-H", f.CH, 100))
	sb.WriteString(textplot.Profile("OptS", f.OptS, 100))
	fmt.Fprintf(&sb, "peak 1KB-bucket misses: Base %d -> C-H %d -> OptS %d (paper: peaks shrink monotonically)\n",
		f.PeakBase, f.PeakCH, f.PeakOptS)
	return sb.String()
}
