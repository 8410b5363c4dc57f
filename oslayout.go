// Package oslayout is the public API of this reproduction of Torrellas, Xia
// and Daigle, "Optimizing Instruction Cache Performance for Operating System
// Intensive Workloads" (HPCA 1995).
//
// The package wires together the substrates under internal/ — the synthetic
// kernel and application generators, the trace engine, the profiler, the
// placement algorithms (Base, Chang-Hwu, and the paper's OptS/OptL/OptA with
// SelfConfFree area and loop/call optimisations), and the cache simulator —
// into a Study: one fully reproducible end-to-end experiment environment.
//
// A minimal session:
//
//	st, err := oslayout.NewStudy(oslayout.StudyOptions{})
//	...
//	base, _, err := st.BuildStrategy("base", 0)
//	opts, plan, err := st.BuildStrategy("opts", 8<<10)
//	res, err := st.Evaluate(0, opts, nil, oslayout.CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1})
//
// Everything is deterministic for fixed seeds; see examples/ for complete
// programs and cmd/oslayout for the experiment driver that regenerates every
// table and figure of the paper.
package oslayout

import (
	"fmt"
	"sync"

	"oslayout/internal/appgen"
	"oslayout/internal/cache"
	"oslayout/internal/cfa"
	"oslayout/internal/core"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/strategy"
	"oslayout/internal/streamcache"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// Re-exported core types, so example programs and downstream users need only
// this package for common tasks.
type (
	// Program is a control-flow graph: a kernel or an application.
	Program = program.Program
	// Kernel is a synthesized operating system.
	Kernel = kernelgen.Kernel
	// KernelConfig parameterises kernel synthesis.
	KernelConfig = kernelgen.Config
	// Workload describes one system-intensive load.
	Workload = workload.Workload
	// TraceOptions controls trace generation.
	TraceOptions = workload.Options
	// Trace is a captured instruction-fetch stream.
	Trace = trace.Trace
	// Profile holds measured execution counts for one program.
	Profile = profile.Profile
	// Layout maps basic blocks to memory addresses.
	Layout = layout.Layout
	// Plan is the full output of the paper's placement algorithm.
	Plan = core.Plan
	// PlacementParams configures the paper's placement algorithm.
	PlacementParams = core.Params
	// CacheConfig describes a cache organisation.
	CacheConfig = cache.Config
	// CacheStats accumulates per-domain reference and miss counts.
	CacheStats = cache.Stats
	// Partition assigns an associative cache's ways to OS, application,
	// reserved and shared regions (the way-partitioned generalisation of
	// the paper's Sep and Resv hardware alternatives).
	Partition = cache.Partition
	// CacheSetup configures a freshly built cache before replay — the
	// hook partition controllers use to install reserved lines and bind
	// dynamic repartitioning policies.
	CacheSetup = simulate.CacheSetup
	// Result is the outcome of one cache simulation run.
	Result = simulate.Result
	// Group is one layout pair and the cache organisations replayed under
	// it; Study.EvaluateMany replays a trace under several groups at once.
	Group = simulate.Group
	// App is a synthesized application image.
	App = appgen.App
	// Observer receives replay events from observed simulations.
	Observer = obs.Observer
	// SimStats is the standard observer: per-set conflict histograms,
	// eviction-provenance breakdowns, windowed miss-rate series and top
	// conflicting line pairs for one cache configuration.
	SimStats = obs.SimStats
	// BlockMisses is the per-block miss attribution observer: misses,
	// self- and cross-interference misses charged to the basic block whose
	// fetch caused them.
	BlockMisses = obs.BlockMisses
	// Recorder collects scoped phase timings and counters across the
	// pipeline (study build, trace generation, layout construction, replay
	// throughput). All methods are nil-receiver safe.
	Recorder = obs.Recorder
	// Manifest is the machine-readable record of one run (configuration,
	// per-phase timings, result digests, conflict attribution).
	Manifest = obs.Manifest
)

// NewSimStats returns a recording observer splitting the trace into the
// given number of time-series windows (a default resolution when 0).
func NewSimStats(windows int) *SimStats { return obs.NewSimStats(windows) }

// NewBlockMisses returns a per-block miss observer sized to the trace's
// programs; pass it to Study.EvaluateMany.
func NewBlockMisses(t *Trace) *BlockMisses { return obs.NewBlockMisses(t) }

// NewRecorder returns an empty phase/counter recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// Digest returns the SHA-256 hex digest of a rendered result, the form the
// run manifest records outputs in.
func Digest(rendered string) string { return obs.Digest(rendered) }

// DefaultKernelConfig returns the kernel configuration used by the paper
// experiments.
func DefaultKernelConfig() KernelConfig { return kernelgen.DefaultConfig() }

// PaperWorkloads returns the paper's four workloads: TRFD_4, TRFD+Make,
// ARC2D+Fsck and Shell.
func PaperWorkloads() []Workload { return workload.Paper() }

// OLTPWorkload returns the extension transaction-processing workload (the
// database-like load the paper could not trace).
func OLTPWorkload() Workload { return workload.OLTP() }

// DefaultPlacementParams returns the paper's OptS parameters for the given
// cache size.
func DefaultPlacementParams(cacheSize int) PlacementParams { return core.DefaultParams(cacheSize) }

// StreamMode selects how a study holds and replays its traces.
type StreamMode int

const (
	// StreamAuto (the default) materialises traces when their projected
	// footprint fits StreamBudgetBytes — keeping the compiled-stream memo's
	// cross-run wins — and switches to constant-memory streaming above it.
	StreamAuto StreamMode = iota
	// StreamOff always materialises.
	StreamOff
	// StreamOn always streams: traces are header-only and regenerated
	// chunk-by-chunk on every replay, bounding memory by the chunk size.
	StreamOn
)

// DefaultStreamBudgetBytes is the StreamAuto threshold: the projected
// per-study trace footprint above which NewStudy switches to streaming.
const DefaultStreamBudgetBytes = 1 << 30

// ProjectedTraceBytes estimates the materialised replay footprint of a
// workload set at the given trace options as 8 B x total references (OSRefs
// scaled up by each workload's OS share). Accesses are bounded by
// instruction-word references and the packed line stream costs 4 bytes per
// access, so the estimate is twice the bound on one per-line-size compiled
// stream, the dominant retained object; the trace events and the decoded
// event table take the rest of the margin. The 8 B multiplier is kept as is
// because it fixes StreamAuto's switch point and the serve daemon's
// admission bound.
func ProjectedTraceBytes(ws []Workload, to TraceOptions) int64 {
	osRefs := to.OSRefs
	if osRefs == 0 {
		osRefs = 2_000_000
	}
	var total float64
	for _, w := range ws {
		share := w.OSRefShare
		if share <= 0 || share > 1 {
			share = 1
		}
		total += float64(osRefs) / share
	}
	return int64(total * 8)
}

// StudyOptions configures NewStudy.
type StudyOptions struct {
	// Kernel configures kernel synthesis; the zero value selects
	// DefaultKernelConfig.
	Kernel KernelConfig
	// Workloads lists the workloads to trace; nil selects PaperWorkloads.
	Workloads []Workload
	// Trace controls trace generation; the zero value selects the package
	// defaults (2M OS references per workload).
	Trace TraceOptions
	// Recorder, when non-nil, receives phase timings for kernel synthesis,
	// per-workload trace generation and profile averaging.
	Recorder *Recorder
	// DrivePar bounds the replay drive worker pool used by EvaluateMany:
	// values above 1 fan independent cache units across that many
	// goroutines (results stay bit-identical to sequential); 0 or 1 keeps
	// the sequential drive. Single-config Evaluate is always sequential.
	DrivePar int
	// Stream selects the trace pipeline: materialise-then-drive (fast on
	// repeat grids, memory linear in refs) or chunked generate-as-you-drive
	// (memory bounded by the chunk size, bit-identical results). StreamAuto
	// picks by comparing ProjectedTraceBytes against StreamBudgetBytes. The
	// chunk size is Trace.ChunkEvents.
	Stream StreamMode
	// StreamBudgetBytes is the StreamAuto threshold; non-positive selects
	// DefaultStreamBudgetBytes.
	StreamBudgetBytes int64
}

// WorkloadData holds everything captured for one workload.
type WorkloadData struct {
	Workload Workload
	Trace    *Trace
	// App is the application image, nil for OS-only workloads.
	App *App
	// OSProfile is the kernel profile measured from this workload's trace.
	OSProfile *Profile
	// AppProfile is the application profile, nil without an application.
	AppProfile *Profile
}

// Study is one end-to-end experiment environment: a kernel, a set of traced
// workloads, their profiles, and the machinery to build and evaluate
// layouts. All layout construction uses the average of the workload profiles
// applied to the kernel, exactly as in the paper ("the layouts are created
// after taking the average of the profiles of all the workloads").
type Study struct {
	Kernel    *Kernel
	Data      []*WorkloadData
	AvgOS     *Profile
	traceOpts TraceOptions
	// layouts memoizes layout builds for this study and owns the weight
	// fields of its programs: profiles are applied, and weights read, only
	// under its lock (see internal/strategy.Cache).
	layouts *strategy.Cache
	// streams memoizes compiled line streams across EvaluateMany calls; its
	// identity-based keys work because the layouts this study replays are
	// themselves memoized (strategy cache, appBase below), so equal layouts
	// are equal pointers.
	streams *streamcache.Cache
	// drivePar bounds the per-replay drive worker pool (StudyOptions.DrivePar).
	drivePar int
	// appBase memoizes per-workload application base layouts: a stable
	// pointer per workload keeps stream-cache keys stable (and spares
	// rebuilding the layout on every evaluation).
	appBase     []*Layout
	appBaseOnce []sync.Once
	// streaming records whether the study's traces are header-only (chunked
	// replay) rather than materialised.
	streaming bool
}

// Streaming reports whether the study replays its traces through the
// chunked constant-memory pipeline rather than from materialised events.
func (s *Study) Streaming() bool { return s.streaming }

// WorkloadTraceOptions returns the effective trace-generation options of
// workload i, including the per-workload seed NewStudy resolved — the base
// multiprocessor extensions derive their per-CPU walker seeds from.
func (s *Study) WorkloadTraceOptions(i int) TraceOptions {
	to := s.traceOpts
	if to.Seed == 0 {
		to.Seed = workloadTraceSeed(i)
	}
	return to
}

// workloadTraceSeed is workload i's default trace seed (strided so
// workloads draw disjoint walker seed families).
func workloadTraceSeed(i int) int64 { return int64(7001 + 13*i) }

// NewStudy builds the kernel, traces every workload, profiles the traces and
// computes the averaged kernel profile.
func NewStudy(opts StudyOptions) (*Study, error) {
	if opts.Workloads == nil {
		opts.Workloads = PaperWorkloads()
	}
	if opts.Kernel.TotalCodeBytes == 0 && opts.Kernel.Seed == 0 && opts.Kernel.PoolScale == 0 {
		opts.Kernel = DefaultKernelConfig()
	}
	rec := opts.Recorder
	kernelDone := rec.Span("kernel.synthesis")
	k := kernelgen.Build(opts.Kernel)
	kernelDone()
	budget := opts.StreamBudgetBytes
	if budget <= 0 {
		budget = DefaultStreamBudgetBytes
	}
	streaming := opts.Stream == StreamOn ||
		(opts.Stream == StreamAuto && ProjectedTraceBytes(opts.Workloads, opts.Trace) > budget)
	st := &Study{Kernel: k, traceOpts: opts.Trace, streaming: streaming}

	var osProfiles []*Profile
	for i, w := range opts.Workloads {
		to := opts.Trace
		if to.Seed == 0 {
			to.Seed = workloadTraceSeed(i)
		}
		traceDone := rec.Span("trace." + w.Name)
		d, err := traceWorkload(k, w, to, streaming)
		traceDone()
		if err != nil {
			return nil, fmt.Errorf("oslayout: generating %s: %w", w.Name, err)
		}
		st.Data = append(st.Data, d)
		osProfiles = append(osProfiles, d.OSProfile)
	}
	avgDone := rec.Span("profile.average")
	avg, err := profile.Average(osProfiles...)
	avgDone()
	if err != nil {
		return nil, fmt.Errorf("oslayout: averaging profiles: %w", err)
	}
	st.AvgOS = avg
	st.layouts = strategy.NewCache(st)
	st.layouts.SetRecorder(rec)
	st.streams = streamcache.New(0)
	st.drivePar = opts.DrivePar
	st.appBase = make([]*Layout, len(st.Data))
	st.appBaseOnce = make([]sync.Once, len(st.Data))
	return st, nil
}

// traceWorkload generates workload w's trace and profiles it. A streamed
// trace is counted and profiled in the one walk that generates it; a
// materialised one is profiled from its events.
func traceWorkload(k *Kernel, w Workload, to TraceOptions, streaming bool) (*WorkloadData, error) {
	src, err := workload.NewSource(k, w, to)
	if err != nil {
		return nil, err
	}
	d := &WorkloadData{Workload: w, App: src.App()}
	var appProg *Program
	if d.App != nil {
		appProg = d.App.Prog
	}
	tp := profile.NewTraceProfiler(k.Prog, appProg)
	if streaming {
		d.Trace, err = src.Trace(tp.Feed)
	} else if d.Trace, err = src.Generate(); err == nil {
		tp.Feed(d.Trace.Events)
	}
	if err != nil {
		return nil, err
	}
	d.OSProfile, d.AppProfile = tp.Profiles()
	return d, nil
}

// KernelProgram returns the kernel's control-flow graph (the program layout
// strategies place).
func (s *Study) KernelProgram() *Program { return s.Kernel.Prog }

// ApplyProfile applies the averaged kernel profile to the kernel program's
// weight fields; "avg" (strategy.AvgProfile) and "" name it, and no other
// name is accepted. It implements strategy.Study: layout strategies call it
// from the builds the strategy cache runs under its lock. Any other reader
// of kernel weights goes through WithProfile.
func (s *Study) ApplyProfile(name string) error {
	if name != "" && name != strategy.AvgProfile {
		return fmt.Errorf("oslayout: unknown profile %q", name)
	}
	return s.AvgOS.Apply(s.Kernel.Prog)
}

// WithProfile applies prof (typically AvgOS or a workload's OSProfile) to
// the kernel program's weight fields and runs f on the kernel, both under
// the study's strategy-cache lock, so no concurrent build or weight reader
// on this study can change the weights f reads. Keep f to weight reads: the
// lock is not reentrant, so fetch layouts, plans and loops before the call,
// and walk traces or replay outside it, where they block no other job.
func (s *Study) WithProfile(prof *Profile, f func(k *Program) error) error {
	return s.layouts.Exclusive(func(strategy.Study, []cfa.Loop) error {
		if err := prof.Apply(s.Kernel.Prog); err != nil {
			return err
		}
		return f(s.Kernel.Prog)
	})
}

// StrategyInfo describes one registered layout strategy.
type StrategyInfo struct {
	// Name is the registry key accepted by BuildStrategy and the CLI's
	// compare subcommand.
	Name string
	// Description summarises the algorithm in one line.
	Description string
	// SizeDependent reports whether the layout depends on the target cache
	// size.
	SizeDependent bool
}

// Strategies lists the registered layout strategies in name order.
func Strategies() []StrategyInfo {
	var out []StrategyInfo
	for _, n := range strategy.Names() {
		s, err := strategy.Get(n)
		if err != nil {
			continue
		}
		out = append(out, StrategyInfo{Name: n, Description: s.Describe(), SizeDependent: s.SizeDependent()})
	}
	return out
}

// BuildStrategy builds the named registered strategy's kernel layout for
// the given cache size (ignored by size-independent strategies) from the
// averaged profile. The returned Plan is non-nil only for strategies built
// on the paper's placement algorithm (opts, optl, optcall).
//
// Builds go through the study's memoized strategy cache: repeated requests
// for the same (strategy, size) share one product, and concurrent calls
// are safe — the cache builds under the lock that guards the kernel
// program's weight fields.
func (s *Study) BuildStrategy(name string, cacheSize int) (*Layout, *Plan, error) {
	b, err := s.layouts.Build(name, strategy.Params{CacheSize: cacheSize})
	if err != nil {
		return nil, nil, err
	}
	return b.Layout, b.Plan, nil
}

// StrategyCache returns the study's memoized strategy-build cache, the
// owner of the kernel's weight fields and the serialisation point for all
// layout construction on this study. The experiment environment builds
// through it (rather than a cache of its own) so in-process builds and
// BuildStrategy calls share one lock and one memo map.
func (s *Study) StrategyCache() *strategy.Cache { return s.layouts }

// Optimize runs the paper's placement algorithm on the kernel with the given
// parameters, using the averaged profile — for parameter variants outside
// the strategy registry (BuildStrategy covers opts, optl and optcall). Like
// BuildStrategy it builds through the study's strategy cache (see
// strategy.Cache.Place), so it serialises with every other layout build,
// places from the cache's skeleton of the averaged profile for the
// parameters' schedule and sequence cap, and is memoized by the full
// parameter value: repeated calls with equal parameters share one Plan.
func (s *Study) Optimize(params PlacementParams) (*Plan, error) {
	b, err := s.layouts.Place(params)
	if err != nil {
		return nil, err
	}
	return b.Plan, nil
}

// OptimizeFrom runs the placement algorithm on the kernel from the given
// profile rather than the averaged one — for cross-profile robustness and
// profile-noise experiments. It builds under the strategy-cache lock like
// Optimize but is not memoized: every call returns a fresh Plan.
func (s *Study) OptimizeFrom(prof *Profile, params PlacementParams) (*Plan, error) {
	var plan *Plan
	err := s.layouts.Exclusive(func(_ strategy.Study, loops []cfa.Loop) (err error) {
		if err := prof.Apply(s.Kernel.Prog); err != nil {
			return err
		}
		plan, err = core.Optimize(s.Kernel.Prog, loops, core.SeedEntries(s.Kernel.Prog), 0, params)
		return err
	})
	return plan, err
}

// AverageProfiles combines several profiles of the same program into one,
// normalising each to equal total mass first (see profile.Average).
func AverageProfiles(ps []*Profile) (*Profile, error) {
	return profile.Average(ps...)
}

// AppBaseLayout returns the original layout of workload i's application,
// or nil when it has none. The layout is built once per workload and the
// same pointer returned thereafter, so downstream identity-keyed caches
// (the compiled-stream memo) see one key per workload.
func (s *Study) AppBaseLayout(i int) *Layout {
	d := s.Data[i]
	if d.App == nil {
		return nil
	}
	s.appBaseOnce[i].Do(func() {
		s.appBase[i] = layout.NewBase(d.App.Prog, simulate.AppBase)
	})
	return s.appBase[i]
}

// AppOptLayout builds the paper's application layout for workload i: the
// sequence algorithm seeded at each main, no SelfConfFree area, with the
// simple loop optimisation, placed "starting from the side opposite" the
// operating system's hot area (the image is offset within the cache so the
// application's hot sequences start where the OS hot area ends). The build
// goes through the study's strategy cache, memoized per (workload, cache
// size, OS hot bytes): the application profile is applied under its lock,
// and repeated requests share one layout pointer, so the compiled-stream
// memo sees one key per layout.
func (s *Study) AppOptLayout(i, cacheSize int, osHotBytes int64) (*Plan, error) {
	d := s.Data[i]
	if d.App == nil {
		return nil, nil
	}
	key := fmt.Sprintf("appopt:%d:%d:%d", i, cacheSize, osHotBytes)
	b, err := s.layouts.Custom(key, func(strategy.Study, []cfa.Loop) (*Layout, *Plan, error) {
		if err := d.AppProfile.Apply(d.App.Prog); err != nil {
			return nil, nil, err
		}
		params := core.Params{
			Name:               "OptA-app",
			CacheSize:          cacheSize,
			SelfConfFreeCutoff: 0, // "we do not set up any SelfConfFree area"
			LoopExtract:        true,
			LoopMinTrips:       6,
		}
		// Place the application so its hottest code begins at the cache
		// offset where the operating system's hot area ends (wrapping modulo
		// the cache). AppBase is a multiple of every cache size used, so the
		// image base fixes the cache offset directly.
		offset := uint64(osHotBytes) % uint64(cacheSize)
		base := uint64(simulate.AppBase) + offset
		plan, err := core.Optimize(d.App.Prog, cfa.AllLoops(d.App.Prog), core.MainEntries(d.App.Prog, d.App.Mains), base, params)
		if err != nil {
			return nil, nil, err
		}
		return plan.Layout, plan, nil
	})
	if err != nil {
		return nil, err
	}
	return b.Plan, nil
}

// OSHotBytes reports the extent of the hot OS area for OptA alignment: the
// SelfConfFree area plus the main sequences, capped at the cache size.
func OSHotBytes(plan *Plan, cacheSize int) int64 {
	n := plan.SCFBytes
	for _, seq := range plan.Sequences {
		if seq.Thresh.Exec >= 0.001 {
			n += seq.Bytes
		}
	}
	if n > int64(cacheSize) {
		n = int64(cacheSize)
	}
	return n
}

// Evaluate replays workload i's trace through one cache under the given
// layouts. appL may be nil for OS-only workloads or Base-app runs (in which
// case the Base application layout is used when the workload has one).
// A single-use replay runs the fused per-event loop (simulate.Run): it keeps
// no compiled stream, and for one configuration it beats decode, compile and
// drive (DESIGN.md §6 has the measurements).
func (s *Study) Evaluate(i int, osL, appL *Layout, cfg CacheConfig) (*Result, error) {
	d := s.Data[i]
	if appL == nil && d.App != nil {
		appL = s.AppBaseLayout(i)
	}
	return simulate.Run(d.Trace, osL, appL, cfg)
}

// EvaluateMany replays workload i's trace through many cache organisations
// under one or more layout pairs in a single pass (simulate.RunGroups):
// the trace is read once per call however many groups it carries, decoded
// once per study, and each (layout pair, line size) expansion is memoized
// across calls in the study's stream cache; all caches sharing a stream
// are driven from it — fanned across a worker pool when
// StudyOptions.DrivePar allows. A group whose App is nil replays the
// workload's application under its Base layout. Results, one per
// configuration with the groups' configs concatenated in order, are
// bit-identical to per-config Evaluate calls; sweep and compare
// experiments use this to avoid redundant trace replays and
// recompilations.
//
// observers and setups are optional (nil when unused); when non-nil they
// match the concatenated configs in length. observers[k] (nil entries are
// free) additionally receives every trace event, classified miss and
// eviction of config k's replay, so collectors like SimStats can attribute
// where the misses went. setups[k] prepares config k's cache before the
// replay: partition controllers install reserved line sets and bind
// dynamic repartitioning policies through it. Observation never changes a
// Result.
func (s *Study) EvaluateMany(i int, groups []Group, observers []Observer, setups []CacheSetup) ([]*Result, error) {
	d := s.Data[i]
	gs := make([]Group, len(groups))
	for k, g := range groups {
		if g.App == nil && d.App != nil {
			g.App = s.AppBaseLayout(i)
		}
		gs[k] = g
	}
	return simulate.RunGroups(d.Trace, gs, simulate.Options{
		Observers: observers,
		Setups:    setups,
		Streams:   s.streams,
		Workers:   s.drivePar,
	})
}

// StreamCacheStats returns how many compiled-stream requests this study's
// evaluations served from the memo versus compiled fresh (the serve daemon
// exports these as the oslayout_streamcache_{hits,misses}_total counters).
func (s *Study) StreamCacheStats() (hits, misses uint64) { return s.streams.Stats() }

// StreamCacheUsage returns the stream cache's resident byte estimate and
// how many entries its byte budget has evicted.
func (s *Study) StreamCacheUsage() (bytes int64, evictions uint64) {
	return s.streams.Bytes(), s.streams.Evictions()
}

// WithDrivePar returns a view of the study whose evaluations use the given
// drive-pool bound (see StudyOptions.DrivePar) while sharing everything
// else — traces, profiles, the strategy-build cache and the compiled-stream
// cache. The serve daemon uses this to pool one study across jobs that each
// request their own parallelism. Results are bit-identical at any setting.
func (s *Study) WithDrivePar(n int) *Study {
	view := *s
	view.drivePar = n
	return &view
}

// CombineSplit folds the paper's two-cache "Sep" setup (an OS cache and an
// application cache, Section 5.5) into one way-partitioned organisation:
// the halves become dedicated way regions of a single cache with the same
// set count. Both halves must share the line size and map to equally many
// sets, the condition under which the partitioned replay is bit-identical
// to the historical two-cache model (disjoint address domains mean the
// shared eviction history never mixes).
func CombineSplit(osCfg, appCfg CacheConfig) (CacheConfig, error) {
	if err := osCfg.Validate(); err != nil {
		return CacheConfig{}, err
	}
	if err := appCfg.Validate(); err != nil {
		return CacheConfig{}, err
	}
	switch {
	case osCfg.Line != appCfg.Line:
		return CacheConfig{}, fmt.Errorf("oslayout: split halves disagree on line size: %d vs %d", osCfg.Line, appCfg.Line)
	case osCfg.NumSets() != appCfg.NumSets():
		return CacheConfig{}, fmt.Errorf("oslayout: split halves map to different set counts: %d vs %d", osCfg.NumSets(), appCfg.NumSets())
	case osCfg.Part.Enabled() || appCfg.Part.Enabled():
		return CacheConfig{}, fmt.Errorf("oslayout: split halves must be unpartitioned")
	}
	return CacheConfig{
		Size:   osCfg.Size + appCfg.Size,
		Line:   osCfg.Line,
		Assoc:  osCfg.Assoc + appCfg.Assoc,
		Policy: osCfg.Policy,
		Part:   Partition{OSWays: osCfg.Assoc, AppWays: appCfg.Assoc},
	}, nil
}

// CombineReserved folds the paper's "Resv" setup (a small cache dedicated
// to the hot OS blocks plus a main cache for everything else) into one
// way-partitioned organisation: the small cache becomes a reserved way
// region, the main cache the shared remainder. Both must share the line
// size and set count.
func CombineReserved(smallCfg, mainCfg CacheConfig) (CacheConfig, error) {
	if err := smallCfg.Validate(); err != nil {
		return CacheConfig{}, err
	}
	if err := mainCfg.Validate(); err != nil {
		return CacheConfig{}, err
	}
	switch {
	case smallCfg.Line != mainCfg.Line:
		return CacheConfig{}, fmt.Errorf("oslayout: reserved halves disagree on line size: %d vs %d", smallCfg.Line, mainCfg.Line)
	case smallCfg.NumSets() != mainCfg.NumSets():
		return CacheConfig{}, fmt.Errorf("oslayout: reserved halves map to different set counts: %d vs %d", smallCfg.NumSets(), mainCfg.NumSets())
	case smallCfg.Part.Enabled() || mainCfg.Part.Enabled():
		return CacheConfig{}, fmt.Errorf("oslayout: reserved halves must be unpartitioned")
	}
	return CacheConfig{
		Size:   smallCfg.Size + mainCfg.Size,
		Line:   mainCfg.Line,
		Assoc:  smallCfg.Assoc + mainCfg.Assoc,
		Policy: mainCfg.Policy,
		Part:   Partition{ResvWays: smallCfg.Assoc},
	}, nil
}

// ReservedLines expands a reserved OS block set (typically a plan's
// SelfConfFree sequences) into the cache line numbers those blocks occupy
// under the given layout — the per-line form cache.SetReservedLines routes
// on. A line straddled by both reserved and unreserved code counts as
// reserved.
func ReservedLines(osL *Layout, blocks []program.BlockID, lineSize int) []uint64 {
	var lines []uint64
	seen := make(map[uint64]bool)
	for _, b := range blocks {
		addr := osL.Addr[b]
		size := osL.Prog.Block(b).Size
		if size <= 0 {
			continue
		}
		for line := addr / uint64(lineSize); line <= (addr+uint64(size)-1)/uint64(lineSize); line++ {
			if !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// WorkloadNames returns the study's workload names in order.
func (s *Study) WorkloadNames() []string {
	names := make([]string, len(s.Data))
	for i, d := range s.Data {
		names[i] = d.Workload.Name
	}
	return names
}
