// Package expt regenerates every table and figure of the paper's evaluation
// from the synthetic study: one constructor per experiment, each returning a
// renderable result with the same rows/series the paper reports. The
// cmd/oslayout driver and the benchmark suite dispatch through the registry.
package expt

import (
	"fmt"
	"runtime"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
	"oslayout/internal/trace"
)

// DefaultCache is the evaluation's reference organisation: an 8 KB
// direct-mapped cache with 32-byte lines (Section 5.1).
var DefaultCache = cache.Config{Size: 8 << 10, Line: 32, Assoc: 1}

// Options configures an experiment environment.
type Options struct {
	// OSRefs is the per-workload OS reference target. The default of 3M
	// gives stable statistics in about a second of generation time.
	OSRefs uint64
	// KernelSeed overrides the kernel generation seed (default 1995).
	KernelSeed int64
	// Recorder, when non-nil, receives phase timings (study build, layout
	// construction) and replay throughput counters from every experiment
	// run in this environment.
	Recorder *obs.Recorder
	// OnWindow, when non-nil, receives one live progress sample per
	// completed miss-rate window of the environment's replays: a streaming
	// SimStats observer is attached to every Eval and EvalBlocks replay and
	// to the first configuration of each sweep batch (see Env.EvalMany).
	// The callback is invoked from parEach workers concurrently and must be
	// safe for that. Replay results stay bit-identical (observation never
	// changes cache state); the CLI paths leave this nil, so the unobserved
	// fast paths are untouched there.
	OnWindow func(obs.WindowFlush)
	// Par bounds the environment's parallelism — both the experiment-level
	// parEach fan-out and the replay engine's drive worker pool (the CLI's
	// -par flag). 0 selects GOMAXPROCS; 1 forces fully sequential runs.
	// Results are bit-identical at every setting.
	Par int
	// CPUs is the simulated CPU count of the multiprocessor experiments
	// (fig19 and the cpus extension; the CLI's -cpus flag). 0 selects 4,
	// the paper's Alliant FX/8.
	CPUs int
	// Stream selects the study's trace pipeline: StreamAuto (default)
	// materialises under the budget and streams above it, StreamOn forces
	// the chunked constant-memory pipeline (the CLI's -stream flag).
	Stream oslayout.StreamMode
	// ChunkEvents is the streaming window size in trace events (the CLI's
	// -chunk flag); 0 selects the package default.
	ChunkEvents int
	// StreamBudgetBytes overrides the StreamAuto threshold; 0 selects
	// oslayout.DefaultStreamBudgetBytes.
	StreamBudgetBytes int64
	// Study, when non-nil, is a prebuilt study to evaluate against instead
	// of building one: the environment then shares its traces, its
	// layout-strategy cache and its compiled-stream cache with every other
	// environment over the same study (the serve daemon pools studies
	// across jobs this way). OSRefs and KernelSeed are ignored — the
	// caller keys the pool by them. Any experiments may run concurrently
	// on one shared study: every profile application and weight read
	// happens under the study's strategy-cache lock, and evaluation is
	// read-only.
	Study *oslayout.Study
}

// Env is the shared environment of all experiments: one study plus the
// strategy build cache, reused across experiments to keep the full paper
// run fast. Experiments request kernel layouts by registered strategy name
// (see internal/strategy); parameter variants outside the registry go
// through Study.Optimize, which memoizes them in the same cache.
type Env struct {
	St *oslayout.Study

	rec      *obs.Recorder
	layouts  *strategy.Cache
	onWindow func(obs.WindowFlush)
	par      int
	cpus     int
	// results memoizes experiment outputs by registry memo key, so
	// experiments sharing a runner (fig4/fig5) compute once per run.
	results map[string]Renderer
}

// NewEnv builds the environment: kernel, traces, profiles.
func NewEnv(opt Options) (*Env, error) {
	if opt.Par <= 0 {
		opt.Par = runtime.GOMAXPROCS(0)
	}
	if opt.CPUs <= 0 {
		opt.CPUs = 4
	}
	st := opt.Study
	if st != nil {
		// Adopt the shared study under this environment's drive-pool
		// bound; the view shares every cache with its siblings.
		st = st.WithDrivePar(opt.Par)
	} else {
		var err error
		done := opt.Recorder.Span("study.build")
		st, err = BuildStudy(opt)
		done()
		if err != nil {
			return nil, err
		}
	}
	// Share the study's own strategy cache rather than carrying a second
	// one: BuildStrategy calls and experiment builds then serialise under
	// one lock and share one memo map. On a pooled study the recorder is
	// last-writer-wins across jobs; build spans may land on a sibling's
	// trace, the builds themselves stay memoized and correct.
	layouts := st.StrategyCache()
	layouts.SetRecorder(opt.Recorder)
	return &Env{
		St:       st,
		rec:      opt.Recorder,
		layouts:  layouts,
		onWindow: opt.OnWindow,
		par:      opt.Par,
		cpus:     opt.CPUs,
		results:  make(map[string]Renderer),
	}, nil
}

// BuildStudy constructs the study an environment with these options would
// use, without the environment: kernel synthesis, tracing and profiling.
// The serve daemon builds pooled studies through this and hands them to
// NewEnv via Options.Study.
func BuildStudy(opt Options) (*oslayout.Study, error) {
	if opt.OSRefs == 0 {
		opt.OSRefs = 3_000_000
	}
	kcfg := oslayout.DefaultKernelConfig()
	if opt.KernelSeed != 0 {
		kcfg.Seed = opt.KernelSeed
	}
	return oslayout.NewStudy(oslayout.StudyOptions{
		Kernel:            kcfg,
		Trace:             oslayout.TraceOptions{OSRefs: opt.OSRefs, ChunkEvents: opt.ChunkEvents},
		Recorder:          opt.Recorder,
		DrivePar:          opt.Par,
		Stream:            opt.Stream,
		StreamBudgetBytes: opt.StreamBudgetBytes,
	})
}

// Strategy returns the memoized build of a registered layout strategy for
// the given cache size (ignored by size-independent strategies).
func (e *Env) Strategy(name string, size int) (*layout.Layout, *oslayout.Plan, error) {
	b, err := e.layouts.Build(name, strategy.Params{CacheSize: size})
	if err != nil {
		return nil, nil, err
	}
	return b.Layout, b.Plan, nil
}

// Layout returns a strategy's layout, for strategies evaluated by layout
// alone.
func (e *Env) Layout(name string, size int) (*layout.Layout, error) {
	l, _, err := e.Strategy(name, size)
	return l, err
}

// Plan returns a strategy's placement plan; it errors for strategies that
// produce no plan (the heuristic baselines).
func (e *Env) Plan(name string, size int) (*oslayout.Plan, error) {
	_, p, err := e.Strategy(name, size)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("expt: strategy %q produces no placement plan", name)
	}
	return p, nil
}

// Base returns the kernel's Base layout (the "base" strategy).
func (e *Env) Base() *layout.Layout {
	l, _, err := e.Strategy("base", 0)
	if err != nil {
		// The base strategy is registered and profile-free; it cannot fail.
		panic(fmt.Sprintf("expt: building base layout: %v", err))
	}
	return l
}

// AppOpt returns workload i's optimised application layout aligned against
// the given OS plan, or nil when the workload has no application.
func (e *Env) AppOpt(i int, cacheSize int, osPlan *oslayout.Plan) (*layout.Layout, error) {
	plan, err := e.St.AppOptLayout(i, cacheSize, oslayout.OSHotBytes(osPlan, cacheSize))
	if err != nil || plan == nil {
		return nil, err
	}
	return plan.Layout, nil
}

// Eval simulates workload i under the given layouts and cache. When the
// environment carries a live-progress hook the replay is observed through
// the compiled engine; otherwise it runs the study's per-event loop.
func (e *Env) Eval(i int, osL, appL *layout.Layout, cfg cache.Config) (*simulate.Result, error) {
	if e.onWindow != nil {
		cfgs := []cache.Config{cfg}
		rs, err := e.EvalMany(i, []simulate.Group{{OS: osL, App: appL, Configs: cfgs}}, e.progress(i, cfgs), nil)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	start := time.Now()
	r, err := e.St.Evaluate(i, osL, appL, cfg)
	if err == nil {
		e.recordReplay(e.St.Data[i].Trace, 1, start, r)
	}
	return r, err
}

// EvalBlocks is Eval plus per-block miss attribution, which only the
// experiments that read it pay for. A live-progress hook watches the same
// replay, so its windows match Eval's.
func (e *Env) EvalBlocks(i int, osL, appL *layout.Layout, cfg cache.Config) (*simulate.Result, *obs.BlockMisses, error) {
	blocks := obs.NewBlockMisses(e.St.Data[i].Trace)
	var o obs.Observer = blocks
	if e.onWindow != nil {
		o = progressBlocks{e.progressObserver(i, cfg), blocks}
	}
	rs, err := e.EvalMany(i, []simulate.Group{{OS: osL, App: appL, Configs: []cache.Config{cfg}}}, []obs.Observer{o}, nil)
	if err != nil {
		return nil, nil, err
	}
	return rs[0], blocks, nil
}

// progressBlocks is a progress SimStats that also charges each miss to its
// block.
type progressBlocks struct {
	*obs.SimStats
	blocks *obs.BlockMisses
}

func (p progressBlocks) Miss(line uint64, d trace.Domain, class cache.MissClass, block uint32) {
	p.SimStats.Miss(line, d, class, block)
	p.blocks.Miss(line, d, class, block)
}

// EvalMany simulates workload i under one or more layout pairs across many
// cache organisations in one pass over the trace (Study.EvaluateMany), with
// optional per-configuration observers and cache setups (nil when unused,
// else indexed like the groups' configs concatenated), and accounts each
// group carrying configurations as one replay on the recorder. Sweeps batch
// their grid points through this so parallelism (parEach) is across
// trace-sharing batches rather than redundant replays; they pass
// progress(i, cfgs) as their observers to stream live progress.
func (e *Env) EvalMany(i int, groups []simulate.Group, observers []obs.Observer, setups []oslayout.CacheSetup) ([]*simulate.Result, error) {
	start := time.Now()
	rs, err := e.St.EvaluateMany(i, groups, observers, setups)
	if err == nil {
		e.recordReplay(e.St.Data[i].Trace, replays(groups), start, rs...)
	}
	return rs, err
}

// replays counts the groups that carry configurations: each is one replay
// of the trace in the recorder's books.
func replays(groups []simulate.Group) int {
	n := 0
	for _, g := range groups {
		if len(g.Configs) > 0 {
			n++
		}
	}
	return n
}

// progress returns the observers for a replay of cfgs: a streaming progress
// observer on the first configuration when the environment carries a
// live-progress hook, nil (no observers) otherwise. Observation never
// changes results.
func (e *Env) progress(i int, cfgs []cache.Config) []obs.Observer {
	if e.onWindow == nil || len(cfgs) == 0 {
		return nil
	}
	observers := make([]obs.Observer, len(cfgs))
	observers[0] = e.progressObserver(i, cfgs[0])
	return observers
}

// progressObserver returns a SimStats that streams every completed
// miss-rate window of one replay to the environment's OnWindow hook,
// tagged with the workload and configuration it watches.
func (e *Env) progressObserver(i int, cfg cache.Config) *obs.SimStats {
	s := obs.NewSimStats(0)
	flush := obs.WindowFlush{
		Workload: e.St.Data[i].Workload.Name,
		Config:   cfg.String(),
		Total:    obs.DefaultWindows,
	}
	sink := e.onWindow
	s.OnWindowFlush = func(idx int, w obs.Window) {
		flush.Index, flush.Window = idx, w
		sink(flush)
	}
	return s
}

// recordReplay accounts n finished replays of trace t, all started at
// start, on the recorder: event and reference counts plus wall-clock, the
// raw material for throughput metrics. Every engine path stamps the trace's
// per-domain reference totals on each result, so the count is read off the
// first one instead of a scan of the trace; a call with no configurations
// replayed nothing and records nothing.
func (e *Env) recordReplay(t *trace.Trace, n int, start time.Time, rs ...*simulate.Result) {
	if e.rec == nil || len(rs) == 0 {
		return
	}
	e.rec.AddReplay(uint64(n)*uint64(t.NumEvents()), time.Since(start))
	e.rec.Add("replay.refs", uint64(n)*rs[0].Stats.TotalRefs())
}

// LayoutCacheStats returns the strategy build cache's hit/miss counts.
func (e *Env) LayoutCacheStats() (hits, misses uint64) { return e.layouts.Stats() }

// StreamCacheStats returns the study's compiled-stream cache hit/miss
// counts.
func (e *Env) StreamCacheStats() (hits, misses uint64) { return e.St.StreamCacheStats() }

// Workloads returns the workload names.
func (e *Env) Workloads() []string { return e.St.WorkloadNames() }

// ratio returns a/b as float, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
