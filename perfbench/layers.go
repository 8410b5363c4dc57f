package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"oslayout"
	"oslayout/internal/appgen"
	"oslayout/internal/cache"
	"oslayout/internal/expt"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints. A layer a
// workload never enters reads 0: no time was spent and no work counted
// there.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"kernelgen.build_s", "s"},
		{"workload.generate_s", "s"},
		{"workload.events", "count"},
		{"workload.regen_s", "s"},
		{"profile.from_trace_s", "s"},
		{"profile.average_s", "s"},
		{"strategy.build_s", "s"},
	}
	for _, name := range strategy.Names() {
		ms = append(ms, layerMetric{"strategy." + name + ".build_s", "s"})
	}
	ms = append(ms,
		layerMetric{"strategy.builds", "count"},
		layerMetric{"strategy.hits", "count"},
		layerMetric{"strategy.hit_ratio", "ratio"},
		layerMetric{"simulate.decode_s", "s"},
		layerMetric{"simulate.compile_s", "s"},
		layerMetric{"simulate.drive_s", "s"},
		layerMetric{"simulate.accesses", "count"},
		layerMetric{"simulate.drive_ns_per_access", "ns"},
		layerMetric{"simulate.stream_replay_s", "s"},
		layerMetric{"simulate.replay_s", "s"},
		layerMetric{"simulate.replay_events", "count"},
		layerMetric{"streamcache.hits", "count"},
		layerMetric{"streamcache.misses", "count"},
		layerMetric{"streamcache.hit_ratio", "ratio"},
		layerMetric{"streamcache.bytes", "B"},
		layerMetric{"streamcache.evictions", "count"},
		layerMetric{"cache.accesses", "count"},
		layerMetric{"cache.misses", "count"},
		layerMetric{"cache.misses.self", "count"},
		layerMetric{"cache.misses.cross", "count"},
	)
	for _, name := range paperExperiments {
		ms = append(ms, layerMetric{"expt." + name + "_s", "s"})
	}
	ms = append(ms,
		layerMetric{"expt.render_s", "s"},
		layerMetric{"serve.admit_s", "s"},
		layerMetric{"serve.queue_wait_s", "s"},
		layerMetric{"serve.dispatch_s", "s"},
		layerMetric{"serve.merge_s", "s"},
		layerMetric{"serve.notify_s", "s"},
		layerMetric{"serve.shards", "count"},
		layerMetric{"serve.reassignments", "count"},
		layerMetric{"serve.shard_replay_s", "s"},
		layerMetric{"serve.transport_s", "s"},
		layerMetric{"unaccounted_s", "s"},
		layerMetric{"trace_overhead_frac", "ratio"},
	)
	return ms
}()

func zeroLayers(r *run) {
	for _, m := range layerMetrics {
		r.set(m.name, 0, m.unit)
	}
}

// timedLayers are the per-layer time metrics read straight off a ledger's
// spans.
var timedLayers = []string{
	"kernelgen.build_s", "workload.generate_s", "workload.regen_s",
	"profile.from_trace_s", "profile.average_s",
	"simulate.decode_s", "simulate.compile_s", "simulate.drive_s", "simulate.stream_replay_s",
}

// setLayerTimes copies a ledger's busy time per layer and its counts into
// the run's metrics; layers the ledger never saw keep their value.
func (r *run) setLayerTimes(l *ledger) {
	for _, name := range timedLayers {
		if v := l.busy(name); v > 0 {
			r.set(name, v, "s")
		}
	}
	var builds float64
	for _, name := range strategy.Names() {
		key := "strategy." + name + ".build_s"
		if v := l.busy(key); v > 0 {
			r.set(key, v, "s")
			builds += v
		}
	}
	if builds > 0 {
		r.set("strategy.build_s", builds, "s")
	}
	for name, v := range l.counts {
		r.set(name, v, r.metrics[name].Unit)
	}
}

// layerSetup is a study assembled layer by layer from the benchmark: the
// same kernel, traces and profiles oslayout.NewStudy builds, with each
// layer call timed on its own.
type layerSetup struct {
	kernel *kernelgen.Kernel
	names  []string
	traces []*trace.Trace
	apps   []*appgen.App
	avg    *profile.Profile
}

// setupLayers synthesises the kernel, generates (or, streaming, opens
// header-only) every workload trace and profiles it, with the trace options
// of a study built through the public API at the same seed and refs, so
// both paths generate identical traces.
func setupLayers(l *ledger, st *oslayout.Study, seed int64, streaming bool) (*layerSetup, error) {
	s := &layerSetup{}
	kcfg := oslayout.DefaultKernelConfig()
	kcfg.Seed = seed
	l.time("kernelgen.build_s", func() error { s.kernel = kernelgen.Build(kcfg); return nil })
	generate := workload.Generate
	if streaming {
		generate = workload.GenerateStreaming
	}
	var profiles []*profile.Profile
	for i, w := range oslayout.PaperWorkloads() {
		to := st.WorkloadTraceOptions(i)
		var t *trace.Trace
		var app *appgen.App
		if err := l.time("workload.generate_s", func() (err error) {
			t, app, err = generate(s.kernel, w, to)
			return err
		}); err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.Name, err)
		}
		l.count("workload.events", float64(t.NumEvents()))
		var osp *profile.Profile
		l.time("profile.from_trace_s", func() error { osp, _ = profile.FromTrace(t); return nil })
		s.names = append(s.names, w.Name)
		s.traces = append(s.traces, t)
		s.apps = append(s.apps, app)
		profiles = append(profiles, osp)
	}
	if err := l.time("profile.average_s", func() (err error) {
		s.avg, err = profile.Average(profiles...)
		return err
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// KernelProgram and ApplyProfile make a layerSetup the strategy layer's
// Study: builds read the averaged profile, as in the paper.
func (s *layerSetup) KernelProgram() *program.Program { return s.kernel.Prog }

func (s *layerSetup) ApplyProfile(name string) error {
	if name != "" && name != strategy.AvgProfile {
		return fmt.Errorf("perfbench: only the averaged profile is built layer by layer, not %q", name)
	}
	return s.avg.Apply(s.kernel.Prog)
}

// appBase returns each workload's base application layout (nil without an
// application), the layout compare grids replay applications under.
func (s *layerSetup) appBase() []*layout.Layout {
	ls := make([]*layout.Layout, len(s.apps))
	for i, app := range s.apps {
		if app != nil {
			ls[i] = layout.NewBase(app.Prog, simulate.AppBase)
		}
	}
	return ls
}

// fixedStream hands RunManyOpt one precompiled stream, so a timed drive
// covers the drive alone.
type fixedStream struct{ s *simulate.Stream }

func (f fixedStream) Stream(*trace.Trace, *layout.Layout, *layout.Layout, int) (*simulate.Stream, error) {
	return f.s, nil
}

// parEach runs f(0..n-1) on GOMAXPROCS goroutines, like the experiment
// layer's own fan-out, and returns the first error by index.
func parEach(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				j := i
				i++
				next.Unlock()
				if j >= n {
					return
				}
				errs[j] = f(j)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recorderLayers reads the per-layer figures the program's own recorder
// and caches emitted during a pass: layout builds per strategy, the
// strategy cache's hit counts, and replay volume and busy time.
func recorderLayers(r *run, rec *obs.Recorder, env *expt.Env) {
	var total float64
	for _, ph := range rec.Phases() {
		if name, ok := strings.CutPrefix(ph.Name, "layout."); ok {
			r.set("strategy."+name+".build_s", r.metrics["strategy."+name+".build_s"].Value+ph.Millis/1e3, "s")
			total += ph.Millis / 1e3
		}
	}
	r.set("strategy.build_s", total, "s")
	hits, misses := env.LayoutCacheStats()
	r.set("strategy.builds", float64(misses), "count")
	r.set("strategy.hits", float64(hits), "count")
	r.set("strategy.hit_ratio", ratio(hits, hits+misses), "ratio")
	c := rec.Counters()
	r.set("simulate.replay_s", float64(c["replay.nanos"])/1e9, "s")
	r.set("simulate.replay_events", float64(c["replay.events"]), "count")
}

// streamCacheLayers reads an environment's compiled-stream cache
// statistics.
func streamCacheLayers(r *run, env *expt.Env) {
	hits, misses := env.StreamCacheStats()
	bytes, evictions := env.St.StreamCacheUsage()
	r.set("streamcache.hits", float64(hits), "count")
	r.set("streamcache.misses", float64(misses), "count")
	r.set("streamcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("streamcache.bytes", float64(bytes), "B")
	r.set("streamcache.evictions", float64(evictions), "count")
}

// setCacheStats reports the modelled caches' simulated counts of one grid
// or stream pass; they are properties of the inputs and never move with
// host speed.
func setCacheStats(r *run, stats []cache.Stats) {
	var acc, miss, self, cross uint64
	for _, st := range stats {
		acc += st.TotalRefs()
		miss += st.TotalMisses()
		for d := range st.Self {
			self += st.Self[d]
			cross += st.Cross[d]
		}
	}
	r.set("cache.accesses", float64(acc), "count")
	r.set("cache.misses", float64(miss), "count")
	r.set("cache.misses.self", float64(self), "count")
	r.set("cache.misses.cross", float64(cross), "count")
}
