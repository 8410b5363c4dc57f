// Package serve is the live observability surface of the reproduction: a
// stdlib-only HTTP daemon that runs studies and compare grids as
// asynchronous jobs and exposes, while they run, everything the offline
// pipeline only reported post-hoc — Prometheus metrics at /metrics,
// per-job progress (phase completions and windowed miss-rate samples)
// streamed over Server-Sent Events, Chrome trace-event exports of the
// recorder's spans, and net/http/pprof for the process itself. The
// north-star system serves heavy traffic continuously; this package turns
// the PR-3 observability primitives (obs.Recorder, obs.Observer,
// obs.SimStats) into endpoints that can be scraped, watched and traced.
//
//	POST /api/jobs              submit {"experiments":["table1"],"refs":400000}
//	                            or {"compare":{"strategies":[...],"sizes":["8k"]}}
//	GET  /api/jobs              list jobs
//	GET  /api/jobs/{id}         job status; rendered results once done
//	GET  /api/jobs/{id}/events  SSE progress stream (phases, miss-rate windows)
//	GET  /api/jobs/{id}/trace   recorder spans as Chrome trace_event JSON
//	GET  /api/runs              list the run archive (newest first)
//	GET  /api/runs/{ref}        one archived record ("latest", id prefix, ...)
//	GET  /api/diff?a=&b=        diff two archived runs; &gate=1 makes a
//	                            regression a 409
//	GET  /dash                  HTML dashboard: perf trajectory, sparklines
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               liveness
//	GET  /debug/pprof/          runtime profiling
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"time"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/runstore"
)

// Config configures a Server.
type Config struct {
	// Workers bounds how many jobs run concurrently (default 2; each job
	// already parallelises its replays across cores via parEach).
	Workers int
	// MaxJobs bounds the retained job table (default 64).
	MaxJobs int
	// DrivePar is the default per-job parallelism bound (experiment fan-out
	// plus the replay engine's drive worker pool) for jobs whose spec
	// leaves "par" unset; 0 lets each job use GOMAXPROCS. Job-level
	// concurrency (Workers) multiplies with this, so hosts running many
	// concurrent jobs may want DrivePar lowered.
	DrivePar int
	// StreamBudgetBytes is the daemon's retained-trace memory budget:
	// specs whose projected materialised footprint exceeds it are rejected
	// at submission unless they request streaming, and StreamAuto jobs
	// switch to the constant-memory pipeline past it. Non-positive selects
	// oslayout.DefaultStreamBudgetBytes.
	StreamBudgetBytes int64
	// Registry receives the server's metrics; a fresh one is created when
	// nil. Exposed at /metrics either way.
	Registry *obs.Registry
	// Archive, when non-nil, receives a run record for every successfully
	// completed job and backs /api/runs, /api/diff and /dash. The caller
	// opens the store (runstore.Open) and owns its GC budget.
	Archive *runstore.Store
	// Coordinator turns the daemon into a fleet coordinator: jobs are
	// decomposed into shards and fanned out to registered worker daemons
	// instead of executing locally. A coordinator serves no /api/shard
	// endpoint of its own.
	Coordinator bool
	// Peers pre-registers worker base URLs ("http://host:8081") with a
	// coordinator; workers can also self-register via POST /api/workers.
	Peers []string
	// ShardRefs is the coordinator's shard-packing target: grid cells are
	// packed into one shard until their projected replay volume reaches it.
	// 0 packs nothing — one cell per shard, the finest grain.
	ShardRefs uint64
	// ShardTimeout bounds one shard's round trip to a worker (default 10m);
	// a shard past it is reassigned like any other worker failure.
	ShardTimeout time.Duration
	// ShardAttempts bounds how many workers one shard is tried on before
	// the job fails (default 3).
	ShardAttempts int
	// ShardBackoff seeds a failing worker's exponential cooldown
	// (default 200ms, doubling per consecutive failure, capped at 5s).
	ShardBackoff time.Duration
}

// Server is the daemon: job manager, metrics registry and HTTP handler.
type Server struct {
	jobs     *Manager
	reg      *obs.Registry
	mux      *http.ServeMux
	start    time.Time
	drivePar int
	studies  *studyPool
	budget   int64
	archive  *runstore.Store

	// Coordinator mode: the worker fleet and shard-packing target. fleet is
	// nil on ordinary daemons, which instead bound their synchronous
	// /api/shard endpoint with shardSem.
	fleet     *fleet
	shardRefs uint64
	shardSem  chan struct{}

	jobsStarted   *obs.Counter
	jobsFinished  *obs.Counter
	jobsFailed    *obs.Counter
	jobsRunning   *obs.Gauge
	refsReplayed  *obs.Counter
	eventsReplay  *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	streamHits    *obs.Counter
	streamMisses  *obs.Counter
	windowFlushes *obs.Counter
	repartitions  *obs.Counter
	crossEvicts   *obs.Counter
	sseDropped    *obs.Counter
	jobsEvicted   *obs.Counter
	regressions   *obs.Counter

	// Sharded-serve metrics. shardsExecuted counts shards this daemon ran
	// as a worker; the rest are coordinator fleet health.
	shardsExecuted   *obs.Counter
	shardReassigned  *obs.Counter
	shardStragglers  *obs.Counter
	workersGauge     *obs.Gauge
	shardsDispatched func(worker string) *obs.Counter
	shardsCompleted  func(worker string) *obs.Counter
	shardsFailed     func(worker string) *obs.Counter
	shardInflight    func(worker string) *obs.Gauge

	phaseSeconds  func(phase string) *obs.Histogram
	missRateGauge func(strategy, workload, size string) *obs.Gauge
	partWaysGauge func(region, strategy, workload, size string) *obs.Gauge
	cpuRateGauge  func(cpu, strategy, workload, size string) *obs.Gauge
}

// New builds a Server and starts its worker pool. Call Close to drain.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	budget := cfg.StreamBudgetBytes
	if budget <= 0 {
		budget = oslayout.DefaultStreamBudgetBytes
	}
	s := &Server{reg: reg, start: time.Now(), drivePar: cfg.DrivePar, studies: newStudyPool(), budget: budget, archive: cfg.Archive}
	s.jobsStarted = reg.Counter("oslayout_jobs_started_total", "Jobs accepted for execution.")
	s.jobsFinished = reg.Counter("oslayout_jobs_finished_total", "Jobs completed successfully.")
	s.jobsFailed = reg.Counter("oslayout_jobs_failed_total", "Jobs that ended in an error.")
	s.jobsRunning = reg.Gauge("oslayout_jobs_running", "Jobs currently executing.")
	s.refsReplayed = reg.Counter("oslayout_refs_replayed_total",
		"Instruction-word references replayed through the cache simulator.")
	s.eventsReplay = reg.Counter("oslayout_replay_events_total",
		"Trace block events replayed through the cache simulator.")
	s.cacheHits = reg.Counter("oslayout_layout_cache_hits_total",
		"Layout-strategy build requests served from the memo cache.")
	s.cacheMisses = reg.Counter("oslayout_layout_cache_misses_total",
		"Layout-strategy build requests that built fresh.")
	s.streamHits = reg.Counter("oslayout_streamcache_hits_total",
		"Compiled-stream requests served from the per-study stream memo.")
	s.streamMisses = reg.Counter("oslayout_streamcache_misses_total",
		"Compiled-stream requests that compiled fresh.")
	s.windowFlushes = reg.Counter("oslayout_progress_windows_total",
		"Miss-rate progress windows streamed to job subscribers.")
	s.phaseSeconds = func(phase string) *obs.Histogram {
		return reg.Histogram("oslayout_phase_duration_seconds",
			"Wall-clock duration of pipeline phases.", nil, "phase", phase)
	}
	s.missRateGauge = func(strategy, workload, size string) *obs.Gauge {
		return reg.Gauge("oslayout_strategy_miss_rate",
			"Total miss rate of a strategy's layout, by workload and cache size, from the latest compare job.",
			"strategy", strategy, "workload", workload, "size_bytes", size)
	}
	s.repartitions = reg.Counter("oslayout_repartitions_total",
		"Way-repartition events applied by dynamic partition controllers.")
	s.partWaysGauge = func(region, strategy, workload, size string) *obs.Gauge {
		return reg.Gauge("oslayout_partition_ways",
			"Final way split of a partitioned compare cell, by cache region, from the latest compare job.",
			"region", region, "strategy", strategy, "workload", workload, "size_bytes", size)
	}
	s.crossEvicts = reg.Counter("oslayout_crosscpu_evictions_total",
		"Shared-cache evictions where the victim's installer and the evictor are different CPUs, accumulated over multiprocessor compare jobs.")
	s.cpuRateGauge = func(cpu, strategy, workload, size string) *obs.Gauge {
		return reg.Gauge("oslayout_cpu_miss_rate",
			"Per-CPU miss rate of a shared-cache multiprocessor compare cell, from the latest compare job.",
			"cpu", cpu, "strategy", strategy, "workload", workload, "size_bytes", size)
	}
	reg.GaugeFunc("oslayout_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.sseDropped = reg.Counter("oslayout_sse_dropped_events_total",
		"Progress events dropped on slow SSE subscribers instead of stalling jobs.")
	s.jobsEvicted = reg.Counter("oslayout_jobs_evicted_total",
		"Finished jobs evicted from the retained job table past its bound.")
	s.regressions = reg.Counter("oslayout_regressions_detected_total",
		"Archive diffs served by /api/diff whose verdict was a regression.")
	s.shardsExecuted = reg.Counter("oslayout_shards_executed_total",
		"Shards this daemon executed for a coordinator via /api/shard.")
	s.shardReassigned = reg.Counter("oslayout_shard_reassignments_total",
		"Shards requeued after a worker failure or timeout and dispatched to another worker.")
	s.shardStragglers = reg.Counter("oslayout_shard_stragglers_total",
		"Completed shards whose duration ran past twice the job's median shard duration.")
	s.workersGauge = reg.Gauge("oslayout_fleet_workers",
		"Worker daemons registered with this coordinator.")
	s.shardsDispatched = func(worker string) *obs.Counter {
		return reg.Counter("oslayout_shards_dispatched_total",
			"Shards dispatched to a worker daemon, by worker.", "worker", worker)
	}
	s.shardsCompleted = func(worker string) *obs.Counter {
		return reg.Counter("oslayout_shards_completed_total",
			"Shards a worker daemon completed, by worker.", "worker", worker)
	}
	s.shardsFailed = func(worker string) *obs.Counter {
		return reg.Counter("oslayout_shards_failed_total",
			"Shard dispatches that failed on a worker daemon, by worker.", "worker", worker)
	}
	s.shardInflight = func(worker string) *obs.Gauge {
		return reg.Gauge("oslayout_shards_inflight",
			"Shards currently in flight on a worker daemon, by worker.", "worker", worker)
	}
	// Archive gauges are registered unconditionally (0 without a store) so
	// the exposition is stable across configurations.
	reg.GaugeFunc("oslayout_archive_runs", "Run records held by the archive.",
		func() float64 {
			if s.archive == nil {
				return 0
			}
			runs, _, err := s.archive.Stats()
			if err != nil {
				return 0
			}
			return float64(runs)
		})
	reg.GaugeFunc("oslayout_archive_bytes", "Total object bytes held by the archive.",
		func() float64 {
			if s.archive == nil {
				return 0
			}
			_, bytes, err := s.archive.Stats()
			if err != nil {
				return 0
			}
			return float64(bytes)
		})

	s.jobs = newManager(cfg.Workers, cfg.MaxJobs, budget, s.runJob)
	s.jobs.onDrop = s.sseDropped.Inc
	s.jobs.onEvict = s.jobsEvicted.Inc

	if cfg.Coordinator {
		s.fleet = newFleet(cfg.ShardTimeout, cfg.ShardAttempts, cfg.ShardBackoff)
		s.shardRefs = cfg.ShardRefs
		for _, peer := range cfg.Peers {
			if err := s.fleet.add(peer, 0); err != nil {
				fmt.Fprintf(os.Stderr, "serve: ignoring peer: %v\n", err)
			}
		}
		s.workersGauge.Set(float64(s.fleet.size()))
	} else {
		// Ordinary daemons are shard workers: /api/shard runs shards
		// synchronously, bounded like the job pool.
		slots := cfg.Workers
		if slots <= 0 {
			slots = 2
		}
		s.shardSem = make(chan struct{}, slots)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/jobs", s.handleList)
	mux.HandleFunc("GET /api/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/jobs/{id}/trace", s.handleTrace)
	if cfg.Coordinator {
		mux.HandleFunc("POST /api/workers", s.handleWorkerJoin)
		mux.HandleFunc("GET /api/workers", s.handleWorkers)
	} else {
		mux.HandleFunc("POST /api/shard", s.handleShard)
	}
	mux.HandleFunc("GET /api/runs", s.handleRuns)
	mux.HandleFunc("GET /api/runs/{ref}", s.handleRun)
	mux.HandleFunc("GET /api/diff", s.handleDiff)
	mux.HandleFunc("GET /dash", s.handleDash)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool; in-flight and queued jobs complete first.
func (s *Server) Close() { s.jobs.Close() }

// runJob executes one job on a worker: build an environment wired to the
// job's recorder and event hub, run the requested work, account metrics.
func (s *Server) runJob(j *Job) {
	s.jobsStarted.Inc()
	s.jobsRunning.Add(1)
	defer s.jobsRunning.Add(-1)

	j.rec.SetOnPhase(func(p obs.Phase) {
		s.phaseSeconds(p.Name).Observe(p.Millis / 1e3)
		ph := p
		j.events.publish(Event{Type: "phase", Phase: &ph})
	})

	// A panic out of execute still counts the job failed; the Manager
	// ends it.
	panicked := true
	defer func() {
		if panicked {
			s.jobsFailed.Inc()
		}
	}()
	results, cells, windows, err := s.execute(j)
	panicked = false
	if err != nil {
		s.jobsFailed.Inc()
	} else {
		s.jobsFinished.Inc()
		s.archiveJob(j, results, cells, windows)
	}
	j.finish(results, err)
}

// archiveJob appends a successful job's record to the configured archive.
// The record's command is the canonical spec JSON, not the job ID, so two
// runs of the same spec diff as re-runs of one experiment.
func (s *Server) archiveJob(j *Job, results map[string]JobResult, cells []runstore.Cell, windows []obs.WindowFlush) {
	if s.archive == nil {
		return
	}
	spec, err := json.Marshal(j.Spec)
	if err != nil {
		return
	}
	digests := make(map[string]string, len(results))
	for name, r := range results {
		digests[name] = r.Digest
	}
	prov := obs.CollectProvenance()
	if hosts := j.workerHosts(); len(hosts) > 0 {
		// Coordinator-merged run: annotate the multi-host provenance
		// explicitly so archive diffs gate digests but not timings.
		prov.Merged = true
		prov.Workers = hosts
	}
	_, err = s.archive.Put(&runstore.Record{
		Kind:        "serve",
		CreatedUnix: time.Now().Unix(),
		Manifest: obs.Manifest{
			Command:            "serve " + string(spec),
			Seed:               j.Spec.Seed,
			Refs:               j.Spec.Refs,
			Phases:             j.rec.Phases(),
			Counters:           j.rec.Counters(),
			ReplayEventsPerSec: j.rec.EventsPerSec(),
			Results:            digests,
			Provenance:         prov,
		},
		Cells:   cells,
		Windows: windows,
	})
	if err != nil {
		// Archival is best-effort: a full disk must not fail the job whose
		// results the client is waiting on.
		fmt.Fprintf(os.Stderr, "serve: archiving job %s: %v\n", j.ID, err)
	}
}

// jobEnv builds the environment a local job or a shard runs in. Par
// defaults to the daemon's -drivepar, and onWindow, when non-nil, is the
// live-progress hook. Every job runs on a pooled study keyed by its trace
// inputs: the study's strategy cache owns the kernel weights (each profile
// application and weight read happens under its lock) and evaluation is
// read-only, so concurrent jobs over one study are safe, and repeat runs
// reuse its memoized layouts and compiled streams. The returned release
// flushes the study's layout and stream cache counters and the recorder's
// replay counters into the daemon's; call it once the run is over.
func (s *Server) jobEnv(spec *JobSpec, rec *obs.Recorder, onWindow func(obs.WindowFlush)) (*expt.Env, func(), error) {
	par := spec.Par
	if par == 0 {
		par = s.drivePar
	}
	stream, err := spec.streamMode()
	if err != nil {
		return nil, nil, err
	}
	opts := expt.Options{
		OSRefs:            spec.Refs,
		KernelSeed:        spec.Seed,
		Recorder:          rec,
		Par:               par,
		CPUs:              spec.Cpus,
		Stream:            stream,
		ChunkEvents:       spec.Chunk,
		StreamBudgetBytes: s.budget,
		OnWindow:          onWindow,
	}
	done := rec.Span("study.build")
	entry, err := s.studies.get(studyKey{refs: spec.Refs, seed: spec.Seed, stream: stream, chunk: spec.Chunk}, func() (*oslayout.Study, error) {
		return expt.BuildStudy(opts)
	})
	done()
	if err != nil {
		return nil, nil, fmt.Errorf("building study: %w", err)
	}
	opts.Study = entry.st
	env, err := expt.NewEnv(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("building study: %w", err)
	}
	release := func() {
		entry.flush(s.cacheHits, s.cacheMisses, s.streamHits, s.streamMisses)
		counters := rec.Counters()
		s.eventsReplay.Add(counters["replay.events"])
		s.refsReplayed.Add(counters["replay.refs"])
	}
	return env, release, nil
}

// execute runs the job's work and returns the rendered results, plus the
// grid cells and windowed miss-rate series the archive record keeps. A
// coordinator executes nothing locally: the job fans out over the fleet.
func (s *Server) execute(j *Job) (map[string]JobResult, []runstore.Cell, []obs.WindowFlush, error) {
	if s.fleet != nil {
		return s.executeDistributed(j)
	}
	// Windows accumulate for the archive record; OnWindow fires from the
	// replay drive pool's goroutines, so appends are locked.
	var winMu sync.Mutex
	var windows []obs.WindowFlush
	env, release, err := s.jobEnv(&j.Spec, j.rec, func(f obs.WindowFlush) {
		s.windowFlushes.Inc()
		fl := f
		winMu.Lock()
		windows = append(windows, fl)
		winMu.Unlock()
		j.events.publish(Event{Type: "window", Window: &fl})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	defer release()

	results := make(map[string]JobResult)
	if c := j.Spec.Compare; c != nil {
		sizes, err := ParseSizes(c.Sizes)
		if err != nil {
			return nil, nil, nil, err
		}
		grid, err := env.RunCompareOpts(c.Strategies, sizes, c.Line, c.Assoc,
			expt.CompareOptions{Detail: c.Detail, Partition: c.Partition, CPUs: j.Spec.Cpus, Private: c.Private})
		if err != nil {
			return nil, nil, nil, err
		}
		rendered := grid.Render()
		results["compare"] = JobResult{Digest: obs.Digest(rendered), Rendered: rendered}
		return results, s.compareTelemetry(grid), windows, nil
	}
	for _, name := range j.Spec.Experiments {
		done := j.rec.Span("experiment." + name)
		r, err := expt.Run(env, name)
		done()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		rendered := r.Render()
		results[name] = JobResult{Digest: obs.Digest(rendered), Rendered: rendered}
	}
	return results, nil, windows, nil
}

// compareTelemetry exports a finished compare grid to the live gauges and
// returns its archive cells. Shared by local execution and the
// coordinator's merged grids, so a distributed run feeds /metrics and the
// archive identically to a single-process one. Private per-CPU grids carry
// CPURates without eviction attribution, hence the CrossEvictions guard.
func (s *Server) compareTelemetry(grid *expt.Compare) []runstore.Cell {
	for si, size := range grid.Sizes {
		sizeLabel := strconv.Itoa(size)
		for wi, w := range grid.Workloads {
			for k, name := range grid.Strategies {
				s.missRateGauge(name, w, sizeLabel).Set(grid.Rates[si][wi][k])
				if grid.PartSplit != nil {
					sp := grid.PartSplit[si][wi][k]
					s.partWaysGauge("os", name, w, sizeLabel).Set(float64(sp.OSWays))
					s.partWaysGauge("app", name, w, sizeLabel).Set(float64(sp.AppWays))
					s.partWaysGauge("resv", name, w, sizeLabel).Set(float64(sp.ResvWays))
					s.repartitions.Add(grid.PartEvents[si][wi][k])
				}
				if grid.CPURates != nil {
					for cpu, v := range grid.CPURates[si][wi][k] {
						s.cpuRateGauge(strconv.Itoa(cpu), name, w, sizeLabel).Set(v)
					}
					if grid.CrossEvictions != nil {
						s.crossEvicts.Add(grid.CrossEvictions[si][wi][k])
					}
				}
			}
		}
	}
	return CompareCells(grid)
}

// CompareCells flattens a compare grid into archive cells: the aggregate
// rate per (strategy, workload, size), each followed by its per-CPU rates
// in shared-cache grids. The CLI and the daemon archive grids through it.
func CompareCells(grid *expt.Compare) []runstore.Cell {
	var cells []runstore.Cell
	for si, size := range grid.Sizes {
		for wi, w := range grid.Workloads {
			for k, name := range grid.Strategies {
				cells = append(cells, runstore.Cell{
					Strategy: name, Workload: w, SizeBytes: size, CPU: -1,
					MissRate: grid.Rates[si][wi][k],
				})
				if grid.CPURates != nil {
					for cpu, v := range grid.CPURates[si][wi][k] {
						cells = append(cells, runstore.Cell{
							Strategy: name, Workload: w, SizeBytes: size, CPU: cpu,
							MissRate: v,
						})
					}
				}
			}
		}
	}
	return cells
}

// JobStatus is the status-endpoint JSON shape.
type JobStatus struct {
	ID       string               `json:"id"`
	State    JobState             `json:"state"`
	Spec     JobSpec              `json:"spec"`
	Created  time.Time            `json:"created"`
	Started  *time.Time           `json:"started,omitempty"`
	Finished *time.Time           `json:"finished,omitempty"`
	Error    string               `json:"error,omitempty"`
	Results  map[string]JobResult `json:"results,omitempty"`
	// Phases are the job recorder's completed spans so far.
	Phases []obs.Phase `json:"phases,omitempty"`
	// ReplayEventsPerSec is the job's aggregate replay throughput.
	ReplayEventsPerSec float64 `json:"replay_events_per_sec,omitempty"`
}

// status assembles the JSON view of a job. Rendered results are included
// only when full is set (digests always are).
func status(j *Job, full bool) JobStatus {
	state, started, finished, errMsg, results := j.snapshot()
	if !full {
		for k, v := range results {
			v.Rendered = ""
			results[k] = v
		}
	}
	st := JobStatus{
		ID:                 j.ID,
		State:              state,
		Spec:               j.Spec,
		Created:            j.created,
		Error:              errMsg,
		Results:            results,
		Phases:             j.rec.Phases(),
		ReplayEventsPerSec: j.rec.EventsPerSec(),
	}
	if !started.IsZero() {
		st.Started = &started
	}
	if !finished.IsZero() {
		st.Finished = &finished
	}
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	j, err := s.jobs.Submit(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/api/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, status(j, false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, status(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	full := r.URL.Query().Get("full") != "0"
	writeJSON(w, http.StatusOK, status(j, full))
}

// handleEvents is the SSE progress stream: history first, then live events
// until the job completes or the client disconnects. Each event goes out
// as `event: <type>` + `data: <json>`.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	history, ch, done := j.events.subscribe()
	defer j.events.unsubscribe(ch)
	for _, e := range history {
		if err := writeSSE(w, e); err != nil {
			return
		}
	}
	fl.Flush()
	if done {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if err := writeSSE(w, e); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one Server-Sent Event frame.
func writeSSE(w http.ResponseWriter, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
	return err
}

// handleTrace exports the job recorder's completed spans in the Chrome
// trace_event JSON array format; load in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-trace.json", j.ID))
	obs.WriteTraceEvents(w, j.rec.Phases())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ParseSizes parses cache-size strings: plain byte counts, k/K-suffixed
// kilobytes or m/M-suffixed megabytes ("8192", "8k", "1M"), in decimal
// digits without a sign. Shared by the CLI's compare flags and the serve
// job specs.
func ParseSizes(parts []string) ([]int, error) {
	var sizes []int
	for _, part := range parts {
		if part == "" {
			continue
		}
		var mult uint64 = 1
		num := part
		switch part[len(part)-1] {
		case 'k', 'K':
			mult = 1 << 10
			num = part[:len(part)-1]
		case 'm', 'M':
			mult = 1 << 20
			num = part[:len(part)-1]
		}
		v, err := strconv.ParseUint(num, 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("bad cache size %q", part)
		}
		if v > math.MaxInt/mult {
			return nil, fmt.Errorf("cache size %q overflows", part)
		}
		sizes = append(sizes, int(v*mult))
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no cache sizes given")
	}
	return sizes, nil
}

// ParseRefs parses a reference-count string with the same suffix syntax as
// ParseSizes plus g/G for binary billions ("400000", "3m", "1g"). Shared by
// the CLI's -refs flag and anything else that names reference volumes.
// Overflowing uint64 is rejected rather than wrapped.
func ParseRefs(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty reference count")
	}
	var mult uint64 = 1
	num := s
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		num = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		num = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		num = s[:len(s)-1]
	}
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("bad reference count %q", s)
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("reference count %q overflows", s)
	}
	return v * mult, nil
}
