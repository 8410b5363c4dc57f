package expt

import (
	"fmt"
	"strings"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/simulate"
)

// fig18xRows are the partition scenarios the fig18x family sweeps: the
// unpartitioned reference, the paper's two hardware alternatives recast as
// way partitions (static ≈ Sep, reserved ≈ Resv), and the dynamic evolve
// policies across repartition interval × grain.
var fig18xRows = []struct {
	Label string
	Spec  string
}{
	{"shared", ""},
	{"static", "static"},
	{"reserved", "reserved,resv=1"},
	{"int-e2g1", "interval,every=2,grain=1"},
	{"int-e4g1", "interval,every=4,grain=1"},
	{"int-e4g2", "interval,every=4,grain=2"},
	{"md-e4g1", "missdriven,every=4,grain=1"},
	{"md-e4g2", "missdriven,every=4,grain=2"},
}

// fig18xWindows is the feedback resolution dynamic rows observe the replay
// at (obs.SimStats windows; repartition decisions fire at their
// boundaries).
const fig18xWindows = 32

// Figure18X is the reconfigurable-cache scenario sweep: every partition
// policy over one 8-way cache, all rows replayed from the same compiled
// line streams under the OptA layouts.
type Figure18X struct {
	Cfg       cache.Config
	Labels    []string
	Specs     []string // parsed+defaulted spec text per row ("" for shared)
	Workloads []string
	// Norm[w][r]: total misses of row r normalised to the shared row.
	Norm [][]float64
	// Events[w][r]: repartition events (0 for shared/static/reserved).
	Events [][]uint64
	// Final[w][r]: the way split left when the replay ended.
	Final [][]string
	// Traj[w][r]: the repartition trajectory ("w3→os5+app3 ..."), the
	// windowed-feedback mechanism made visible.
	Traj [][]string
}

// RunFigure18X evaluates the fig18x scenario family. All rows share the
// OptA kernel and application layouts of the 8KB configuration, so the
// comparison isolates the hardware policy exactly as Figure 18 does; the
// reserved row keys its region on the plan's SelfConfFree block set.
func (e *Env) RunFigure18X() (*Figure18X, error) {
	cfg := cache.Config{Size: 8 << 10, Line: 32, Assoc: 8}
	plan, err := e.Plan("opts", cfg.Size)
	if err != nil {
		return nil, err
	}
	resvLines := oslayout.ReservedLines(plan.Layout, plan.SelfConfFree, cfg.Line)

	specs := make([]partition.Spec, len(fig18xRows))
	f := &Figure18X{Cfg: cfg, Workloads: e.Workloads()}
	for r, row := range fig18xRows {
		f.Labels = append(f.Labels, row.Label)
		if row.Spec == "" {
			f.Specs = append(f.Specs, "")
			continue
		}
		sp, err := partition.Parse(row.Spec)
		if err != nil {
			return nil, err
		}
		if sp, err = sp.WithDefaults(cfg.Assoc); err != nil {
			return nil, err
		}
		specs[r] = sp
		f.Specs = append(f.Specs, sp.String())
	}

	nw := len(e.St.Data)
	f.Norm = make([][]float64, nw)
	f.Events = make([][]uint64, nw)
	f.Final = make([][]string, nw)
	f.Traj = make([][]string, nw)

	// Build the application layouts before the parallel evaluation (builds
	// serialise under the strategy-cache lock). A workload without an
	// application keeps nil.
	appOpts := make([]*oslayout.Layout, nw)
	for i := 0; i < nw; i++ {
		appOpt, err := e.AppOpt(i, cfg.Size, plan)
		if err != nil {
			return nil, err
		}
		appOpts[i] = appOpt
	}

	err = e.parEach(nw, func(i int) error {
		cfgs := make([]cache.Config, len(fig18xRows))
		observers := make([]obs.Observer, len(fig18xRows))
		setups := make([]oslayout.CacheSetup, len(fig18xRows))
		ctrls := make([]*partition.Controller, len(fig18xRows))
		for r, row := range fig18xRows {
			cfgs[r] = cfg
			if row.Spec == "" {
				continue
			}
			cfgs[r].Part = specs[r].Initial()
			k := partition.NewController(specs[r], fig18xWindows, resvLines)
			ctrls[r] = k
			setups[r] = k.Bind
			// Static and reserved splits are setups only: nothing reads
			// their observations, and they install no window hook.
			if specs[r].Dynamic() {
				observers[r] = k
			}
		}
		ress, err := e.EvalMany(i, []simulate.Group{{OS: plan.Layout, App: appOpts[i], Configs: cfgs}}, observers, setups)
		if err != nil {
			return err
		}
		sharedTotal := ress[0].Stats.TotalMisses()
		f.Norm[i] = make([]float64, len(fig18xRows))
		f.Events[i] = make([]uint64, len(fig18xRows))
		f.Final[i] = make([]string, len(fig18xRows))
		f.Traj[i] = make([]string, len(fig18xRows))
		for r := range fig18xRows {
			f.Norm[i][r] = ratio(ress[r].Stats.TotalMisses(), sharedTotal)
			if k := ctrls[r]; k != nil {
				if err := k.Err(); err != nil {
					return err
				}
				f.Events[i][r] = k.Events().Events
				f.Final[i][r] = k.Final().String()
				f.Traj[i][r] = k.TrajString()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Render formats the sweep: the normalised grid, then the repartition
// dynamics (event counts, final splits and the windowed-feedback
// trajectories that produced them).
func (f *Figure18X) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 18x: way-partition policies, %s base, OptA layouts (misses normalised to shared)\n", f.Cfg)
	fmt.Fprintf(&sb, "  %-12s", "workload")
	for _, l := range f.Labels {
		fmt.Fprintf(&sb, " %9s", l)
	}
	sb.WriteString("\n")
	for i, w := range f.Workloads {
		fmt.Fprintf(&sb, "  %-12s", w)
		for _, v := range f.Norm[i] {
			fmt.Fprintf(&sb, " %9.2f", v)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\nRepartition dynamics (windowed miss feedback drives the way moves):\n")
	for i, w := range f.Workloads {
		for r, label := range f.Labels {
			if f.Events[i][r] == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %-12s %-9s %2d moves, final %-12s %s\n",
				w, label, f.Events[i][r], f.Final[i][r], f.Traj[i][r])
		}
	}
	sb.WriteString("  (static≈Sep and reserved≈Resv recast the paper's Section 5.5 hardware\n")
	sb.WriteString("   alternatives as way partitions; interval and missdriven evolve the split\n")
	sb.WriteString("   at window boundaries, Graphite OCache style)\n")
	return sb.String()
}
