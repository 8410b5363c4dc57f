package expt

import (
	"fmt"
	"strings"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// Compare evaluates an arbitrary set of registered layout strategies over
// the workload × cache-size grid — the engine behind the CLI's `compare`
// subcommand. It is the generalisation of Figure 15-(a): any strategy mix,
// any size ladder, one trace replay per workload under every strategy's
// layouts through Env.EvalMany (see Env.RunCompareOpts).
type Compare struct {
	Strategies []string
	Sizes      []int
	Line       int
	Assoc      int
	Workloads  []string
	// Partition is the way-partition spec every cell ran under ("" when
	// unpartitioned).
	Partition string
	// CPUs is the simulated CPU count: 1 replays each workload's own trace
	// (the classic grid); above 1 every cell drives the interleaved
	// multi-CPU trace into one shared cache of the cell's configuration.
	CPUs int
	// Private marks a CPUs > 1 grid that ran private per-CPU caches
	// instead of one shared cache: each CPU's own trace replayed into its
	// own cache of the cell's configuration, with Rates the exact
	// integer-sum aggregate over the CPUs (see Finalize).
	Private bool `json:",omitempty"`
	// Rates[s][w][k]: total miss rate at size s, workload w, strategy k.
	Rates [][][]float64
	// CPURates[s][w][k][c] is CPU c's miss rate in the same cell; nil
	// unless CPUs > 1.
	CPURates [][][][]float64
	// CPURefs[s][w][k][c] and CPUMisses[s][w][k][c] are CPU c's replayed
	// references and misses in the same cell; nil unless Private. They are
	// what makes a sharded private grid mergeable: Finalize recomputes each
	// cell's aggregate rate from the integer sums in CPU order, so a grid
	// reassembled from per-CPU shards renders bit-identically to a
	// whole-grid run.
	CPURefs   [][][][]uint64 `json:",omitempty"`
	CPUMisses [][][][]uint64 `json:",omitempty"`
	// Evictions[s][w][k] and CrossEvictions[s][w][k] are each shared cell's
	// total eviction count and its cross-CPU (installer != evictor) share;
	// nil unless CPUs > 1.
	Evictions      [][][]uint64
	CrossEvictions [][][]uint64
	// Attr[s][w][k] is the conflict attribution for the same cell; nil
	// unless the comparison ran in detail mode.
	Attr [][][]*Attribution
	// PartEvents[s][w][k] and PartFinal[s][w][k] record each cell's
	// repartition count and final way split; nil unless a partition was
	// requested.
	PartEvents [][][]uint64
	PartFinal  [][][]string
	// PartSplit is PartFinal in numeric form for programmatic consumers
	// (the serve daemon's per-region gauges). It is serialised so a
	// coordinator-merged grid keeps the numeric splits its gauges need.
	PartSplit [][][]cache.Partition `json:"part_split,omitempty"`
}

// Attribution decomposes one grid cell's misses: the cold/self/cross split,
// how concentrated the conflicts are (share of misses in the 4 hottest
// sets), and the single worst (victim, evictor) conflict pair resolved to
// routine names.
type Attribution struct {
	Cold, Self, Cross float64 // miss-rate contributions, in [0,1]
	TopSetShare       float64 // fraction of misses in the 4 hottest sets
	TopPair           string  // "victim<-evictor (n)" or "" when conflict-free
}

// topSetsShown is how many hottest sets TopSetShare aggregates over.
const topSetsShown = 4

// CompareOptions tunes RunCompareOpts beyond the grid itself; the zero
// value runs the plain single-CPU grid.
type CompareOptions struct {
	// Detail attaches conflict attribution to every cell: every replay
	// carries a SimStats observer and each cell additionally reports its
	// cold/self/cross decomposition, set-conflict concentration and worst
	// conflicting routine pair.
	Detail bool
	// Partition, when non-empty, is a partition.Spec applied to every
	// cell's cache (e.g. "static", "interval,every=4,grain=1"); dynamic
	// policies run with a repartitioning controller per cell. The reserved
	// policy is rejected — it needs a SelfConfFree block set, which the
	// strategy grid has no single source for (use fig18x instead).
	Partition string
	// CPUs above 1 turns every cell into a shared-cache multiprocessor
	// replay: CPUs per-CPU traces interleaved and driven into one shared
	// cache per cell (the CLI's `compare -cpus`). 0 and 1 run the classic
	// single-CPU grid, bit-identically.
	CPUs int
	// Private, with CPUs above 1, replays each CPU's own trace into a
	// private cache of the cell's configuration instead of interleaving
	// the CPUs into one shared cache: per-CPU rates plus the exact-sum
	// aggregate. The private cells are fully independent — which is what
	// gives the coordinator (internal/serve) its per-CPU sharding axis.
	// Incompatible with Detail and Partition.
	Private bool
	// Shard, when non-nil, restricts execution to a subset of the grid's
	// cells; the rest of the returned arrays stay zero. Finalize is left to
	// the caller merging the shards.
	Shard *CompareShard
}

// CompareShard selects a subset of a compare grid: the cross product of the
// listed workload and strategy indices (nil selects all), and — for Private
// multiprocessor grids only — the listed CPU indices. Every cell of a grid
// is an independent replay, so any shard computes bit-identically to the
// same cells of a whole-grid run; Compare.MergeShard reassembles a full
// grid from complementary shards. This is the coordinator's unit of
// distribution across worker daemons.
type CompareShard struct {
	Workloads  []int `json:"workloads,omitempty"`
	Strategies []int `json:"strategies,omitempty"`
	CPUs       []int `json:"cpus,omitempty"`
}

// Select checks the shard against a grid of nw workloads, nk strategies and
// cpus CPUs, with private per-CPU caches or not, and expands it into one
// mask per axis; a nil shard selects the whole grid. RunCompareOpts and a
// worker admitting a shard both check a mask through it.
func (sh *CompareShard) Select(nw, nk, cpus int, private bool) (wsel, ksel, csel []bool, err error) {
	var s CompareShard
	if sh != nil {
		s = *sh
	}
	if s.CPUs != nil && !private {
		return nil, nil, nil, fmt.Errorf("expt: per-CPU shards need private caches (a shared cache couples its CPUs)")
	}
	if wsel, err = selection(s.Workloads, nw, "workload"); err != nil {
		return nil, nil, nil, err
	}
	if ksel, err = selection(s.Strategies, nk, "strategy"); err != nil {
		return nil, nil, nil, err
	}
	if csel, err = selection(s.CPUs, cpus, "cpu"); err != nil {
		return nil, nil, nil, err
	}
	return wsel, ksel, csel, nil
}

// selection expands an index list over n slots; nil selects everything.
func selection(idx []int, n int, what string) ([]bool, error) {
	sel := make([]bool, n)
	if idx == nil {
		for i := range sel {
			sel[i] = true
		}
		return sel, nil
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("expt: shard selects no %ss", what)
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("expt: shard %s index %d out of range [0,%d)", what, i, n)
		}
		sel[i] = true
	}
	return sel, nil
}

// RunCompareOpts builds each strategy (once for size-independent
// strategies, per size otherwise) and evaluates the full grid. Layout
// construction serialises under the strategy-cache lock, which owns the
// kernel weights; evaluation replays each trace once through the
// single-pass engine, under one group per (strategy, layout) that batches
// the cache sizes sharing the layout, and runs the traces' replays in
// parallel.
func (e *Env) RunCompareOpts(strategies []string, sizes []int, line, assoc int, opt CompareOptions) (*Compare, error) {
	if len(strategies) == 0 {
		return nil, fmt.Errorf("expt: compare needs at least one strategy")
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("expt: compare needs at least one cache size")
	}
	detail := opt.Detail
	var spec partition.Spec
	if opt.Partition != "" {
		sp, err := partition.Parse(opt.Partition)
		if err != nil {
			return nil, err
		}
		if sp.Policy == "reserved" {
			return nil, fmt.Errorf("expt: the reserved policy needs a SelfConfFree block set and is not available on the compare grid (run fig18x)")
		}
		if sp, err = sp.WithDefaults(assoc); err != nil {
			return nil, err
		}
		spec = sp
	}
	cpus := opt.CPUs
	if cpus < 1 {
		cpus = 1
	}
	if opt.Private {
		if cpus < 2 {
			return nil, fmt.Errorf("expt: private per-CPU caches need cpus > 1")
		}
		if detail || opt.Partition != "" {
			return nil, fmt.Errorf("expt: private per-CPU grids do not carry detail or partition observers")
		}
	}
	c := &Compare{
		Strategies: strategies,
		Sizes:      sizes,
		Line:       line,
		Assoc:      assoc,
		Workloads:  e.Workloads(),
		CPUs:       cpus,
		Private:    opt.Private,
	}
	if opt.Partition != "" {
		c.Partition = spec.String()
	}
	nw := len(e.St.Data)
	wsel, ksel, csel, err := opt.Shard.Select(nw, len(strategies), cpus, opt.Private)
	if err != nil {
		return nil, err
	}

	// layoutsBySize[s][k] is strategy k's layout for size s; for
	// size-independent strategies every size shares one build (the strategy
	// cache normalises the key).
	sized := make([]bool, len(strategies))
	layoutsBySize := make([][]*layout.Layout, len(sizes))
	for si := range sizes {
		layoutsBySize[si] = make([]*layout.Layout, len(strategies))
	}
	for k, name := range strategies {
		s, err := strategy.Get(name)
		if err != nil {
			return nil, err
		}
		sized[k] = s.SizeDependent()
		if !ksel[k] {
			continue // another shard's strategy: skip the build entirely
		}
		for si, size := range sizes {
			l, _, err := e.Strategy(name, size)
			if err != nil {
				return nil, fmt.Errorf("building %s at %dB: %w", name, size, err)
			}
			layoutsBySize[si][k] = l
		}
	}

	ns, nk := len(sizes), len(strategies)
	c.Rates = alloc3[float64](ns, nw, nk)
	if detail {
		c.Attr = alloc3[*Attribution](ns, nw, nk)
	}
	if c.Partition != "" {
		c.PartEvents = alloc3[uint64](ns, nw, nk)
		c.PartFinal = alloc3[string](ns, nw, nk)
		c.PartSplit = alloc3[cache.Partition](ns, nw, nk)
	}

	// Shared-cache grids build one merged trace per workload, materialised
	// or header-only per the study's pipeline mode, serially (application
	// image construction); the workload's one task replays it below.
	// Private grids keep the per-CPU sources separate instead; each CPU's
	// trace is generated by the one task that replays it.
	var mtrs []*trace.MultiTrace
	var appLs []*layout.Layout
	var srcs []*workload.MultiSource
	if cpus > 1 {
		c.CPURates = alloc4[float64](ns, nw, nk, cpus)
		appLs = make([]*layout.Layout, nw)
		if opt.Private {
			c.CPURefs = alloc4[uint64](ns, nw, nk, cpus)
			c.CPUMisses = alloc4[uint64](ns, nw, nk, cpus)
			srcs = make([]*workload.MultiSource, nw)
			for wi := 0; wi < nw; wi++ {
				if !wsel[wi] {
					continue
				}
				ms, err := e.multiSource(wi, cpus)
				if err != nil {
					return nil, err
				}
				srcs[wi] = ms
				appLs[wi] = appBaseOf(ms)
			}
		} else {
			c.Evictions = alloc3[uint64](ns, nw, nk)
			c.CrossEvictions = alloc3[uint64](ns, nw, nk)
			mtrs = make([]*trace.MultiTrace, nw)
			for wi := 0; wi < nw; wi++ {
				if !wsel[wi] {
					continue
				}
				ms, err := e.multiSource(wi, cpus)
				if err != nil {
					return nil, err
				}
				if mtrs[wi], err = e.multiTrace(ms); err != nil {
					return nil, err
				}
				appLs[wi] = appBaseOf(ms)
			}
		}
	}

	// The replay plan: one group per (strategy, layout). A size-independent
	// strategy rides all sizes on one group; a size-dependent one gets a
	// single-config group per size, mirroring Figure 15.
	type group struct {
		k   int
		sis []int
	}
	allSizes := make([]int, len(sizes))
	for si := range sizes {
		allSizes[si] = si
	}
	var plan []group
	for k := range strategies {
		if !ksel[k] {
			continue
		}
		if !sized[k] {
			plan = append(plan, group{k, allSizes})
			continue
		}
		for si := range sizes {
			plan = append(plan, group{k, []int{si}})
		}
	}
	// One task per trace: a workload's trace (merged, on a shared-cache
	// grid), or one CPU's trace of a private grid, replays under every
	// group of the plan in one pass, so a streamed study regenerates it
	// once.
	type task struct {
		wi, cpu int // cpu is -1 outside private mode
		groups  []group
	}
	var tasks []task
	for wi := 0; wi < nw; wi++ {
		if !wsel[wi] {
			continue
		}
		if !opt.Private {
			tasks = append(tasks, task{wi, -1, plan})
			continue
		}
		for cpu := 0; cpu < cpus; cpu++ {
			if csel[cpu] {
				tasks = append(tasks, task{wi, cpu, plan})
			}
		}
	}
	// cell locates one replayed configuration: its group in the task and
	// its grid cell.
	type cell struct{ gi, si, k int }
	err = e.parEach(len(tasks), func(j int) error {
		tk := tasks[j]
		var appL *layout.Layout
		if appLs != nil {
			appL = appLs[tk.wi]
		}
		var groups []simulate.Group
		var cells []cell
		for gi, g := range tk.groups {
			cfgs := make([]cache.Config, len(g.sis))
			for i, si := range g.sis {
				cfgs[i] = cache.Config{Size: sizes[si], Line: line, Assoc: assoc}
				if c.Partition != "" {
					cfgs[i].Part = spec.Initial()
				}
				cells = append(cells, cell{gi, si, g.k})
			}
			groups = append(groups, simulate.Group{OS: layoutsBySize[g.sis[0]][g.k], App: appL, Configs: cfgs})
		}
		var observers []obs.Observer
		var stats []*obs.SimStats
		var setups []oslayout.CacheSetup
		var ctrls []*partition.Controller
		if detail || spec.Dynamic() {
			observers = make([]obs.Observer, len(cells))
			stats = make([]*obs.SimStats, len(cells))
		}
		if c.Partition != "" {
			// A controller per cell: it carries the SimStats observer
			// (shared with detail mode) and, for dynamic policies, the
			// repartitioning hook.
			setups = make([]oslayout.CacheSetup, len(cells))
			ctrls = make([]*partition.Controller, len(cells))
			for i := range cells {
				k := partition.NewController(spec, 0, nil)
				ctrls[i] = k
				setups[i] = k.Bind
				if observers != nil {
					observers[i] = k
					stats[i] = k.SimStats
				}
			}
		} else if detail {
			for i := range cells {
				s := obs.NewSimStats(0)
				observers[i] = s
				stats[i] = s
			}
		}
		var ress []*simulate.Result
		switch {
		case opt.Private:
			// Private cells: this CPU's own trace into its own caches; the
			// integer refs/misses feed Finalize's exact aggregate.
			tr, err := e.cpuTrace(srcs[tk.wi], tk.cpu)
			if err != nil {
				return err
			}
			start := time.Now()
			priv, err := simulate.RunGroups(tr, groups, simulate.Options{Workers: e.par})
			if err != nil {
				return err
			}
			e.recordReplay(tr, len(groups), start, priv...)
			for i, cl := range cells {
				st := &priv[i].Stats
				c.CPURates[cl.si][tk.wi][cl.k][tk.cpu] = st.MissRate()
				c.CPURefs[cl.si][tk.wi][cl.k][tk.cpu] = st.TotalRefs()
				c.CPUMisses[cl.si][tk.wi][cl.k][tk.cpu] = st.TotalMisses()
			}
			return nil
		case cpus > 1:
			start := time.Now()
			shared, err := simulate.RunShared(mtrs[tk.wi], groups,
				simulate.Options{Observers: observers, Setups: setups, Workers: e.par})
			if err != nil {
				return err
			}
			e.recordReplay(mtrs[tk.wi].Trace, len(groups), start, shared[0].Result)
			ress = make([]*simulate.Result, len(shared))
			for i, cl := range cells {
				ress[i] = shared[i].Result
				if got := shared[i].CPU.EvictionTotal(); got != shared[i].Evictions {
					return fmt.Errorf("compare: eviction attribution sums to %d of %d evictions", got, shared[i].Evictions)
				}
				for cpu := 0; cpu < cpus; cpu++ {
					c.CPURates[cl.si][tk.wi][cl.k][cpu] = shared[i].CPU.MissRate(cpu)
				}
				c.Evictions[cl.si][tk.wi][cl.k] = shared[i].Evictions
				c.CrossEvictions[cl.si][tk.wi][cl.k] = shared[i].CPU.CrossEvictions()
			}
		default:
			var err error
			if ress, err = e.EvalMany(tk.wi, groups, observers, setups); err != nil {
				return err
			}
		}
		var resolvers []*obs.LineResolver
		if detail {
			resolvers = make([]*obs.LineResolver, len(groups))
			for gi, g := range groups {
				resolvers[gi] = obs.NewLineResolver(line, g.OS)
			}
		}
		for i, cl := range cells {
			c.Rates[cl.si][tk.wi][cl.k] = ress[i].Stats.MissRate()
			if detail {
				c.Attr[cl.si][tk.wi][cl.k] = attribute(&ress[i].Stats, stats[i], resolvers[cl.gi], line)
			}
			if ctrls != nil {
				if err := ctrls[i].Err(); err != nil {
					return err
				}
				c.PartEvents[cl.si][tk.wi][cl.k] = ctrls[i].Events().Events
				c.PartFinal[cl.si][tk.wi][cl.k] = ctrls[i].Final().String()
				c.PartSplit[cl.si][tk.wi][cl.k] = ctrls[i].Final()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A whole grid finalises its derived aggregates here; a shard leaves
	// them to whoever merges the shards back together.
	if opt.Shard == nil {
		c.Finalize()
	}
	return c, nil
}

// Finalize computes the aggregates a sharded run defers to the merger: in
// private mode each cell's total miss rate is the integer-sum ratio over
// its per-CPU replays, summed in CPU order. RunCompareOpts calls it for
// whole grids; a coordinator calls it once after MergeShard has reassembled
// every cell, so merged and whole-grid rates are bit-identical. Idempotent,
// and a no-op outside private mode (every other aggregate is per-cell).
func (c *Compare) Finalize() {
	if !c.Private {
		return
	}
	for si := range c.Sizes {
		for wi := range c.Workloads {
			for k := range c.Strategies {
				var refs, misses uint64
				for cpu := 0; cpu < c.CPUs; cpu++ {
					refs += c.CPURefs[si][wi][k][cpu]
					misses += c.CPUMisses[si][wi][k][cpu]
				}
				c.Rates[si][wi][k] = ratio(misses, refs)
			}
		}
	}
}

// alloc3 allocates a zeroed [a][b][c] grid.
func alloc3[T any](a, b, c int) [][][]T {
	out := make([][][]T, a)
	for i := range out {
		out[i] = make([][]T, b)
		for j := range out[i] {
			out[i][j] = make([]T, c)
		}
	}
	return out
}

// alloc4 allocates a zeroed [a][b][c][d] grid.
func alloc4[T any](a, b, c, d int) [][][][]T {
	out := make([][][][]T, a)
	for i := range out {
		out[i] = alloc3[T](b, c, d)
	}
	return out
}

// attribute condenses one observed replay into an Attribution.
func attribute(st *cache.Stats, s *obs.SimStats, r *obs.LineResolver, lineSize int) *Attribution {
	a := &Attribution{TopSetShare: s.TopSetsShare(topSetsShown)}
	if refs := st.TotalRefs(); refs > 0 {
		a.Cold = float64(st.Cold[0]+st.Cold[1]) / float64(refs)
		a.Self = float64(st.Self[0]+st.Self[1]) / float64(refs)
		a.Cross = float64(st.Cross[0]+st.Cross[1]) / float64(refs)
	}
	if ps := s.TopPairs(1); len(ps) > 0 {
		a.TopPair = fmt.Sprintf("%s<-%s (%d)",
			lineName(r, lineSize, ps[0].VictimLine),
			lineName(r, lineSize, ps[0].EvictorLine), ps[0].Count)
	}
	return a
}

// lineName resolves a line address to a routine name. Lines in the
// application image (placed at AppBase, far above the kernel) are labelled
// "app": the comparison grid varies only the kernel layout, so application
// conflicts are reported in aggregate.
func lineName(r *obs.LineResolver, lineSize int, line uint64) string {
	if line*uint64(lineSize) >= trace.AppBase {
		return "app"
	}
	return r.Owner(line)
}

// Render formats the grid as one table per cache size.
func (c *Compare) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Strategy comparison: total miss rates (%%), %dB lines, %d-way", c.Line, c.Assoc)
	if c.Partition != "" {
		fmt.Fprintf(&sb, ", partition %s", c.Partition)
	}
	if c.CPUs > 1 {
		if c.Private {
			fmt.Fprintf(&sb, ", %d CPUs with private caches", c.CPUs)
		} else {
			fmt.Fprintf(&sb, ", %d CPUs sharing each cache", c.CPUs)
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  %-7s %-12s", "size", "workload")
	for _, s := range c.Strategies {
		fmt.Fprintf(&sb, " %8s", s)
	}
	sb.WriteString("\n")
	for si, size := range c.Sizes {
		label := fmt.Sprintf("%dKB", size>>10)
		if size%(1<<10) != 0 {
			label = fmt.Sprintf("%dB", size)
		}
		for wi, w := range c.Workloads {
			fmt.Fprintf(&sb, "  %-7s %-12s", label, w)
			for k := range c.Strategies {
				fmt.Fprintf(&sb, " %7.2f%%", 100*c.Rates[si][wi][k])
			}
			sb.WriteString("\n")
		}
	}
	if c.Attr != nil {
		fmt.Fprintf(&sb, "\nConflict attribution (miss-rate split; top%d = miss share of the %d hottest sets)\n",
			topSetsShown, topSetsShown)
		for si, size := range c.Sizes {
			label := fmt.Sprintf("%dKB", size>>10)
			if size%(1<<10) != 0 {
				label = fmt.Sprintf("%dB", size)
			}
			for wi, w := range c.Workloads {
				for k, s := range c.Strategies {
					a := c.Attr[si][wi][k]
					if a == nil {
						continue
					}
					fmt.Fprintf(&sb, "  %-7s %-12s %-8s cold %5.2f%% self %5.2f%% cross %5.2f%%  top%d %4.0f%%",
						label, w, s, 100*a.Cold, 100*a.Self, 100*a.Cross, topSetsShown, 100*a.TopSetShare)
					if a.TopPair != "" {
						fmt.Fprintf(&sb, "  worst %s", a.TopPair)
					}
					sb.WriteString("\n")
				}
			}
		}
	}
	if c.CPURates != nil {
		if c.Private {
			sb.WriteString("\nPer-CPU miss rates (private per-CPU caches)\n")
		} else {
			sb.WriteString("\nPer-CPU miss rates and cross-CPU evictions (shared cache)\n")
		}
		for si, size := range c.Sizes {
			label := fmt.Sprintf("%dKB", size>>10)
			if size%(1<<10) != 0 {
				label = fmt.Sprintf("%dB", size)
			}
			for wi, w := range c.Workloads {
				for k, s := range c.Strategies {
					fmt.Fprintf(&sb, "  %-7s %-12s %-8s", label, w, s)
					for cpu, v := range c.CPURates[si][wi][k] {
						fmt.Fprintf(&sb, " cpu%d %5.2f%%", cpu, 100*v)
					}
					if c.Private {
						sb.WriteString("\n")
					} else {
						fmt.Fprintf(&sb, "  cross-evict %d/%d\n",
							c.CrossEvictions[si][wi][k], c.Evictions[si][wi][k])
					}
				}
			}
		}
	}
	if c.PartEvents != nil {
		shown := false
		for si, size := range c.Sizes {
			label := fmt.Sprintf("%dKB", size>>10)
			if size%(1<<10) != 0 {
				label = fmt.Sprintf("%dB", size)
			}
			for wi, w := range c.Workloads {
				for k, s := range c.Strategies {
					if c.PartEvents[si][wi][k] == 0 {
						continue
					}
					if !shown {
						sb.WriteString("\nRepartition dynamics\n")
						shown = true
					}
					fmt.Fprintf(&sb, "  %-7s %-12s %-8s %2d moves, final %s\n",
						label, w, s, c.PartEvents[si][wi][k], c.PartFinal[si][wi][k])
				}
			}
		}
	}
	return sb.String()
}
