package main

import (
	"fmt"
	"runtime"
	"time"

	"oslayout/internal/cache"
	"oslayout/internal/expt"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
)

// gridSizes and gridLine are the compare grid's cache organisations: the
// paper's 4, 8 and 16 KB direct-mapped caches with 32-byte lines.
var gridSizes = []int{4 << 10, 8 << 10, 16 << 10}

const gridLine = 32

// gridWorkload is the compare grid of every registered strategy over the
// paper's cache sizes and workloads: a cold pass on a fresh study (layout
// builds and stream compiles), then warm repeats on the same study, which
// replay memoized streams and only drive the caches.
var gridWorkload = &spec{
	name:     "grid",
	refs:     500_000,
	testRefs: 20_000,
	measure:  gridMeasure,
	traced:   gridTraced,
}

// gridRounds is how many fresh studies one grid run builds, each on its
// own kernel: set-up and cold-pass medians need several samples.
const gridRounds = 8

// compareDigest runs one compare grid pass on env and digests its
// rendering.
func compareDigest(env *expt.Env, strategies []string) (string, error) {
	c, err := env.RunCompareOpts(strategies, gridSizes, gridLine, 1, expt.CompareOptions{})
	if err != nil {
		return "", err
	}
	return obs.Digest(c.Render()), nil
}

func newGridEnv(r *run, kernel int64, rec *obs.Recorder) (*expt.Env, error) {
	return expt.NewEnv(expt.Options{OSRefs: r.refs, KernelSeed: kernel, Recorder: rec})
}

func gridMeasure(r *run) error {
	strategies := strategy.Names()
	return measureRounds(r, gridRounds, 1,
		func(kernel int64, rec *obs.Recorder) (*expt.Env, error) { return newGridEnv(r, kernel, rec) },
		func(env *expt.Env) (string, error) { return compareDigest(env, strategies) })
}

// measureRounds measures a compare workload in rounds, one kernel each.
// Each round builds a fresh environment (set-up), runs the first pass on it
// (cold), runs warmups untimed passes, then repeats timed passes (warm)
// until the round's share of the budget is used. The first passes after a
// cold one still fault in the heap the warm passes reuse, so they are not
// timed. Every pass must replay something and render the same grid.
func measureRounds(r *run, rounds, warmups int, newEnv func(int64, *obs.Recorder) (*expt.Env, error), pass func(*expt.Env) (string, error)) error {
	heap := startHeapSampler()
	defer heap.Close()
	var setups, colds, warms, walls, heaps, rates []float64
	for round, kernel := range r.useKernels(rounds) {
		runtime.GC()
		heap.reset()
		rec := obs.NewRecorder()
		t0 := now()
		env, err := newEnv(kernel, rec)
		if err != nil {
			return fmt.Errorf("building study: %w", err)
		}
		_, cpu := t0.since()
		setups = append(setups, cpu)
		end := r.start.Add(r.budget * time.Duration(round+1) / time.Duration(rounds))
		var times []float64
		for n := 0; n < 2+warmups || more(time.Now(), time.Until(end), times); n++ {
			before := rec.Counters()["replay.refs"]
			t := now()
			d, err := pass(env)
			if err == nil && rec.Counters()["replay.refs"] == before {
				err = fmt.Errorf("pass replayed nothing")
			}
			if !r.chk.op(fmt.Sprintf("%s kernel %d pass %d", r.name, kernel, n), r.kernelOutputs(kernel, map[string]string{"compare": d}), err) {
				continue
			}
			wall, cpu := t.since()
			times = append(times, wall)
			switch {
			case n == 0:
				colds = append(colds, cpu)
			case n > warmups:
				warms = append(warms, cpu)
				walls = append(walls, wall)
				rates = append(rates, float64(rec.Counters()["replay.refs"]-before)/1e6/cpu)
			}
		}
		heaps = append(heaps, heap.peakMiB())
	}
	if len(colds) == 0 || len(warms) == 0 {
		return fmt.Errorf("no pass succeeded")
	}
	r.set("setup_s", median(setups), "s")
	r.set("cold_cpu_s", median(colds), "s")
	r.set("pass_cpu_s", median(warms), "s")
	r.set("mrefs_per_cpu_s", median(rates), "Mref/cpu-s")
	r.set("peak_heap_mib", median(heaps), "MiB")
	r.wallLatency(walls)
	return nil
}

// gridTraced runs one set-up, one cold pass and one warm pass through the
// public API (untraced), then the same work layer by layer: kernel
// synthesis, trace generation and profiling, strategy builds, decode,
// compile and drive, each call timed from here.
func gridTraced(r *run) error {
	strategies := strategy.Names()
	rec := obs.NewRecorder()
	t0 := time.Now()
	env, err := newGridEnv(r, r.seed, rec)
	if err != nil {
		return fmt.Errorf("building study: %w", err)
	}
	for _, pass := range []string{"cold", "warm"} {
		d, err := compareDigest(env, strategies)
		if !r.chk.op("grid untraced "+pass+" pass", map[string]string{"compare": d}, err) {
			return fmt.Errorf("untraced %s pass failed", pass)
		}
	}
	untraced := time.Since(t0)
	recorderLayers(r, rec, env)
	streamCacheLayers(r, env)

	l := newLedger()
	t1 := time.Now()
	s, err := setupLayers(l, env.St, r.seed, false)
	if err != nil {
		return err
	}
	g := newLayerGrid(s, strategies, gridSizes)
	for _, pass := range []string{"cold", "warm"} {
		c, err := g.pass(l, pass == "cold")
		var d string
		if err == nil {
			l.time("expt.render_s", func() error { d = obs.Digest(c.Render()); return nil })
		}
		if !r.chk.op("grid traced "+pass+" pass", map[string]string{"compare": d}, err) {
			return fmt.Errorf("traced %s pass failed", pass)
		}
	}
	t2 := time.Now()
	r.setLayerTimes(l)
	r.set("expt.render_s", l.busy("expt.render_s"), "s")
	if acc := l.counts["simulate.accesses"]; acc > 0 {
		r.set("simulate.drive_ns_per_access", l.busy("simulate.drive_s")*1e9/acc, "ns")
	}
	setCacheStats(r, g.stats)
	r.set("unaccounted_s", t2.Sub(t1).Seconds()-l.covered(t1, t2), "s")
	r.set("trace_overhead_frac", (t2.Sub(t1).Seconds()-untraced.Seconds())/untraced.Seconds(), "ratio")
	return nil
}

// layerGrid is the compare grid evaluated layer by layer, in the task
// shape expt.RunCompareOpts uses: one replay per (workload, strategy) for
// size-independent strategies, covering every size, and one per (workload,
// strategy, size) otherwise.
type layerGrid struct {
	s          *layerSetup
	strategies []string
	sizes      []int
	builds     *strategy.Cache
	appL       []*layout.Layout
	events     []*simulate.Events
	tasks      []gridTask
	stats      []cache.Stats // of the last pass, per task config
}

type gridTask struct {
	wi, k  int
	sis    []int
	stream *simulate.Stream
}

func newLayerGrid(s *layerSetup, strategies []string, sizes []int) *layerGrid {
	g := &layerGrid{s: s, strategies: strategies, sizes: sizes, builds: strategy.NewCache(s), appL: s.appBase()}
	all := make([]int, len(sizes))
	for si := range sizes {
		all[si] = si
	}
	for wi := range s.traces {
		for k, name := range strategies {
			st, _ := strategy.Get(name)
			if st.SizeDependent() {
				for si := range sizes {
					g.tasks = append(g.tasks, gridTask{wi: wi, k: k, sis: []int{si}})
				}
			} else {
				g.tasks = append(g.tasks, gridTask{wi: wi, k: k, sis: all})
			}
		}
	}
	return g
}

// pass evaluates the grid once. A cold pass decodes every trace and
// compiles every (workload, layout) stream before driving; a warm pass
// drives the streams the cold pass compiled. Layouts are requested from
// the strategy cache on every pass, as the experiment layer does, so warm
// passes count cache hits.
func (g *layerGrid) pass(l *ledger, cold bool) (*expt.Compare, error) {
	layouts, err := g.layouts(l)
	if err != nil {
		return nil, err
	}
	if cold {
		g.events = make([]*simulate.Events, len(g.s.traces))
		for wi, t := range g.s.traces {
			l.time("simulate.decode_s", func() error { g.events[wi] = simulate.Decode(t); return nil })
		}
	}
	c := g.newCompare()
	stats := make([][]cache.Stats, len(g.tasks))
	err = parEach(len(g.tasks), func(j int) error {
		tk := &g.tasks[j]
		t, osL, appL := g.s.traces[tk.wi], layouts[tk.sis[0]][tk.k], g.appL[tk.wi]
		if cold {
			if err := l.time("simulate.compile_s", func() (err error) {
				tk.stream, err = simulate.CompileEvents(g.events[tk.wi], t, osL, appL, gridLine)
				return err
			}); err != nil {
				return err
			}
		}
		cfgs := make([]cache.Config, len(tk.sis))
		for i, si := range tk.sis {
			cfgs[i] = cache.Config{Size: g.sizes[si], Line: gridLine, Assoc: 1}
		}
		var res []*simulate.Result
		if err := l.time("simulate.drive_s", func() (err error) {
			res, err = simulate.RunManyOpt(t, osL, appL, cfgs, simulate.Options{
				Streams: fixedStream{tk.stream}, Workers: runtime.GOMAXPROCS(0),
			})
			return err
		}); err != nil {
			return err
		}
		l.count("simulate.accesses", float64(tk.stream.Accesses()*len(cfgs)))
		for i, si := range tk.sis {
			c.Rates[si][tk.wi][tk.k] = res[i].Stats.MissRate()
			stats[j] = append(stats[j], res[i].Stats)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.stats = g.stats[:0]
	for _, st := range stats {
		g.stats = append(g.stats, st...)
	}
	return c, nil
}

// layouts requests every (size, strategy) layout from the strategy cache,
// timing each request against its strategy.
func (g *layerGrid) layouts(l *ledger) ([][]*layout.Layout, error) {
	layouts := make([][]*layout.Layout, len(g.sizes))
	for si, size := range g.sizes {
		layouts[si] = make([]*layout.Layout, len(g.strategies))
		for k, name := range g.strategies {
			if err := l.time("strategy."+name+".build_s", func() error {
				b, err := g.builds.Build(name, strategy.Params{CacheSize: size})
				if err == nil {
					layouts[si][k] = b.Layout
				}
				return err
			}); err != nil {
				return nil, fmt.Errorf("building %s at %dB: %w", name, size, err)
			}
		}
	}
	return layouts, nil
}

// newCompare returns an empty single-CPU grid of this shape for the layer
// path to fill and render.
func (g *layerGrid) newCompare() *expt.Compare {
	c := &expt.Compare{
		Strategies: g.strategies, Sizes: g.sizes, Line: gridLine, Assoc: 1,
		Workloads: g.s.names, CPUs: 1, Rates: make([][][]float64, len(g.sizes)),
	}
	for si := range g.sizes {
		c.Rates[si] = make([][]float64, len(g.s.traces))
		for wi := range g.s.traces {
			c.Rates[si][wi] = make([]float64, len(g.strategies))
		}
	}
	return c
}
