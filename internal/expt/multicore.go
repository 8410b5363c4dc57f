package expt

// The multiprocessor experiments: fig19 (shared-cache multiprocessor
// replay) and the plumbing the rewired cpus extension shares with it. The
// paper's substrate is a 4-CPU Alliant FX/8; these experiments stop
// flattening it to independent per-CPU replays and drive the interleaved
// per-CPU traces into one shared — optionally way-partitioned — cache,
// measuring where cross-CPU OS-code sharing helps (sibling invocations
// prefetching kernel lines) and where it hurts (cross-CPU evictions).

import (
	"fmt"
	"strings"
	"time"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// CPUs returns the environment's simulated CPU count (the -cpus flag).
func (e *Env) CPUs() int { return e.cpus }

// multiSource builds workload i's per-CPU trace sources: walker seeds
// derived from the study's per-workload seed (CPU 0 walks the study's own
// trace), one shared kernel and one shared application image, honoring the
// environment's -refs per CPU.
func (e *Env) multiSource(i, cpus int) (*workload.MultiSource, error) {
	return workload.NewMultiSource(e.St.Kernel, e.St.Data[i].Workload,
		e.St.WorkloadTraceOptions(i), workload.InterleaveOptions{CPUs: cpus})
}

// multiTrace generates workload i's merged multi-CPU trace through the
// study's pipeline mode: materialised, or header-only when the study
// streams.
func (e *Env) multiTrace(ms *workload.MultiSource) (*trace.MultiTrace, error) {
	if e.St.Streaming() {
		return ms.Trace()
	}
	return ms.Generate()
}

// cpuTrace generates one CPU's individual trace through the study's
// pipeline mode.
func (e *Env) cpuTrace(ms *workload.MultiSource, cpu int) (*trace.Trace, error) {
	if e.St.Streaming() {
		return ms.Source(cpu).Trace(nil)
	}
	return ms.Source(cpu).Generate()
}

// appBaseOf returns the Base layout of a multi-source's shared application
// image (nil for OS-only workloads).
func appBaseOf(ms *workload.MultiSource) *layout.Layout {
	if app := ms.App(); app != nil {
		return layout.NewBase(app.Prog, simulate.AppBase)
	}
	return nil
}

// fig19Windows is the feedback resolution the missdriven row observes the
// replay at (repartition decisions fire at window boundaries).
const fig19Windows = 32

// fig19SharedRows are the shared-cache scenarios: unpartitioned, a static
// OS/app way split, and the missdriven dynamic policy from fig18x.
var fig19SharedRows = []struct {
	Label string
	Spec  string
}{
	{"shared", ""},
	{"sh+static", "static"},
	{"sh+md", "missdriven,every=4,grain=1"},
}

// fig19Layouts are the layout rows: the unoptimised kernel and the paper's
// optimised placement.
var fig19Layouts = []string{"Base", "OptS"}

// Figure19 is the shared-cache multiprocessor sweep: CPUs per-CPU traces of
// each workload interleaved into one stream and driven into a shared cache
// (capacity CPUs x 8KB) vs private per-CPU caches (8KB each), under Base
// and OptS, with the shared rows optionally way-partitioned.
type Figure19 struct {
	CPUs                  int
	SharedCfg, PrivateCfg cache.Config
	Workloads             []string
	Layouts               []string
	// Rows are the columns of the main table: "private" then the shared
	// scenarios.
	Rows []string
	// Rate[w][l][r] is the total miss rate of workload w under layout l in
	// scenario r.
	Rate [][][]float64
	// PerCPU[w][l][r][c] is CPU c's miss rate in the same cell.
	PerCPU [][][][]float64
	// Evictions[w][l][r] is the cell's total eviction count; zero for the
	// private row (attribution is a shared-cache concept).
	Evictions [][][]uint64
	// CrossEvict[w][l][r] counts evictions where the victim's installer
	// and the evictor are different CPUs — destructive cross-CPU
	// interference. The full matrix sums exactly to Evictions.
	CrossEvict [][][]uint64
	// SharedOSHits[w][l][r] counts hits on OS lines a sibling CPU
	// installed — constructive cross-CPU sharing of the kernel image.
	SharedOSHits [][][]uint64
}

// RunFigure19 evaluates the multiprocessor sweep. Each workload's merged
// trace replays once, under both layouts and every shared scenario
// (RunShared groups them); the private baseline replays each CPU's own
// trace once, under both layouts, through the single-CPU engine on a
// capacity-equal slice. A materialised study cuts the CPU traces out of
// the merged one instead of generating them again.
func (e *Env) RunFigure19() (*Figure19, error) {
	cpus := e.cpus
	sharedCfg := cache.Config{Size: cpus * (8 << 10), Line: 32, Assoc: 2 * cpus}
	privateCfg := cache.Config{Size: 8 << 10, Line: 32, Assoc: 2}
	plan, err := e.Plan("opts", privateCfg.Size)
	if err != nil {
		return nil, err
	}
	osLayouts := []*layout.Layout{e.Base(), plan.Layout}

	specs := make([]partition.Spec, len(fig19SharedRows))
	f := &Figure19{
		CPUs: cpus, SharedCfg: sharedCfg, PrivateCfg: privateCfg,
		Workloads: e.Workloads(), Layouts: fig19Layouts,
		Rows: []string{"private"},
	}
	for r, row := range fig19SharedRows {
		f.Rows = append(f.Rows, row.Label)
		if row.Spec == "" {
			continue
		}
		sp, err := partition.Parse(row.Spec)
		if err != nil {
			return nil, err
		}
		if sp, err = sp.WithDefaults(sharedCfg.Assoc); err != nil {
			return nil, err
		}
		specs[r] = sp
	}

	nw := len(e.St.Data)
	nl := len(fig19Layouts)
	nr := len(f.Rows)
	f.Rate = make([][][]float64, nw)
	f.PerCPU = make([][][][]float64, nw)
	f.Evictions = make([][][]uint64, nw)
	f.CrossEvict = make([][][]uint64, nw)
	f.SharedOSHits = make([][][]uint64, nw)
	for i := 0; i < nw; i++ {
		f.Rate[i] = make([][]float64, nl)
		f.PerCPU[i] = make([][][]float64, nl)
		f.Evictions[i] = make([][]uint64, nl)
		f.CrossEvict[i] = make([][]uint64, nl)
		f.SharedOSHits[i] = make([][]uint64, nl)
		for l := 0; l < nl; l++ {
			f.Rate[i][l] = make([]float64, nr)
			f.PerCPU[i][l] = make([][]float64, nr)
			f.Evictions[i][l] = make([]uint64, nr)
			f.CrossEvict[i][l] = make([]uint64, nr)
			f.SharedOSHits[i][l] = make([]uint64, nr)
			for r := 0; r < nr; r++ {
				f.PerCPU[i][l][r] = make([]float64, cpus)
			}
		}
	}

	// Multi-sources are built serially (application image construction);
	// trace generation and replay fan out per workload.
	srcs := make([]*workload.MultiSource, nw)
	for i := range srcs {
		if srcs[i], err = e.multiSource(i, cpus); err != nil {
			return nil, err
		}
	}

	err = e.parEach(nw, func(i int) error {
		ms := srcs[i]
		appL := appBaseOf(ms)
		mt, err := e.multiTrace(ms)
		if err != nil {
			return err
		}
		// Shared scenarios: one replay of the merged stream, with a group
		// of the shared rows per layout. Config j is row j%nsr of layout
		// j/nsr.
		nsr := len(fig19SharedRows)
		groups := make([]simulate.Group, nl)
		observers := make([]obs.Observer, nl*nsr)
		setups := make([]simulate.CacheSetup, nl*nsr)
		ctrls := make([]*partition.Controller, nl*nsr)
		for l, osL := range osLayouts {
			cfgs := make([]cache.Config, nsr)
			for r, row := range fig19SharedRows {
				cfgs[r] = sharedCfg
				if row.Spec == "" {
					continue
				}
				cfgs[r].Part = specs[r].Initial()
				k := partition.NewController(specs[r], fig19Windows, nil)
				j := l*nsr + r
				ctrls[j], setups[j] = k, k.Bind
				// A static split is a setup only: nothing reads its
				// observations, and it installs no window hook.
				if specs[r].Dynamic() {
					observers[j] = k
				}
			}
			groups[l] = simulate.Group{OS: osL, App: appL, Configs: cfgs}
		}
		start := time.Now()
		ress, err := simulate.RunShared(mt, groups,
			simulate.Options{Observers: observers, Setups: setups, Workers: e.par})
		if err != nil {
			return err
		}
		e.recordReplay(mt.Trace, nl, start, ress[0].Result)
		for j, res := range ress {
			l, r := j/nsr, j%nsr
			if k := ctrls[j]; k != nil {
				if err := k.Err(); err != nil {
					return err
				}
			}
			// The attribution invariant: the (installer, evictor) matrix
			// must cover every eviction exactly once.
			if got := res.CPU.EvictionTotal(); got != res.Evictions {
				return fmt.Errorf("fig19: %s/%s/%s eviction attribution sums to %d of %d evictions",
					f.Workloads[i], fig19Layouts[l], fig19SharedRows[r].Label, got, res.Evictions)
			}
			rr := r + 1 // row 0 is private
			f.Rate[i][l][rr] = res.Stats.MissRate()
			for c := 0; c < cpus; c++ {
				f.PerCPU[i][l][rr][c] = res.CPU.MissRate(c)
			}
			f.Evictions[i][l][rr] = res.Evictions
			f.CrossEvict[i][l][rr] = res.CPU.CrossEvictions()
			f.SharedOSHits[i][l][rr] = res.CPU.SharedHitTotal(trace.DomainOS)
		}
		// Private baseline: each CPU's own trace through the single-CPU
		// engine on its capacity slice under both layouts. A materialised
		// merged trace holds every CPU's trace, so it is cut out, one CPU
		// at a time; a header-only one carries each CPU's header-only
		// trace, whose totals the merging walk counted, and replaying it
		// regenerates the CPU's trace from its source.
		private := make([]simulate.Group, nl)
		for l, osL := range osLayouts {
			private[l] = simulate.Group{OS: osL, App: appL, Configs: []cache.Config{privateCfg}}
		}
		refs := make([]uint64, nl)
		misses := make([]uint64, nl)
		for c := 0; c < cpus; c++ {
			tr, err := mt.CPUTrace(c)
			if err != nil {
				return err
			}
			start := time.Now()
			ress, err := simulate.RunGroups(tr, private, simulate.Options{Workers: e.par})
			if err != nil {
				return err
			}
			e.recordReplay(tr, nl, start, ress...)
			for l, res := range ress {
				f.PerCPU[i][l][0][c] = res.Stats.MissRate()
				refs[l] += res.Stats.TotalRefs()
				misses[l] += res.Stats.TotalMisses()
			}
		}
		for l := range osLayouts {
			f.Rate[i][l][0] = ratio(misses[l], refs[l])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Render formats the sweep: the scenario grid with the shared-vs-private
// and partitioned-vs-unpartitioned deltas, then the per-CPU miss rates and
// the cross-CPU attribution of the shared rows.
func (f *Figure19) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 19: shared-cache multiprocessor replay, %d CPUs (%s shared vs %s per-CPU private; miss rate %%)\n",
		f.CPUs, f.SharedCfg, f.PrivateCfg)
	fmt.Fprintf(&sb, "  %-12s %-5s", "workload", "lay")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, " %9s", r)
	}
	sb.WriteString("   Δshared    Δpart\n")
	for i, w := range f.Workloads {
		for l, lay := range f.Layouts {
			fmt.Fprintf(&sb, "  %-12s %-5s", w, lay)
			for r := range f.Rows {
				fmt.Fprintf(&sb, " %8.2f%%", 100*f.Rate[i][l][r])
			}
			// Δshared: shared minus private (negative = sharing wins);
			// Δpart: best partitioned row minus unpartitioned shared.
			shared, private := f.Rate[i][l][1], f.Rate[i][l][0]
			best := f.Rate[i][l][2]
			for r := 3; r < len(f.Rows); r++ {
				if f.Rate[i][l][r] < best {
					best = f.Rate[i][l][r]
				}
			}
			fmt.Fprintf(&sb, "  %+7.2f%%  %+7.2f%%\n", 100*(shared-private), 100*(best-shared))
		}
	}
	sb.WriteString("\nPer-CPU miss rates (shared, unpartitioned):\n")
	for i, w := range f.Workloads {
		for l, lay := range f.Layouts {
			fmt.Fprintf(&sb, "  %-12s %-5s", w, lay)
			for c, v := range f.PerCPU[i][l][1] {
				fmt.Fprintf(&sb, "  cpu%d %5.2f%%", c, 100*v)
			}
			sb.WriteString("\n")
		}
	}
	sb.WriteString("\nCross-CPU attribution (shared rows; matrix sums exactly to evictions):\n")
	for i, w := range f.Workloads {
		for l, lay := range f.Layouts {
			for r := 1; r < len(f.Rows); r++ {
				ev := f.Evictions[i][l][r]
				fmt.Fprintf(&sb, "  %-12s %-5s %-9s %9d evictions, %9d cross-CPU (%s), %9d OS lines prefetched by siblings\n",
					w, lay, f.Rows[r], ev, f.CrossEvict[i][l][r],
					pct(ratio(f.CrossEvict[i][l][r], ev)), f.SharedOSHits[i][l][r])
			}
		}
	}
	sb.WriteString("  (sharing one cache lets sibling CPUs prefetch the common kernel image but\n")
	sb.WriteString("   adds cross-CPU conflict evictions; way partitions confine the damage)\n")
	return sb.String()
}
