package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/strategy"
)

// JobSpec is what a client submits to POST /api/jobs: either a list of
// registered experiment names or one compare grid, plus the study inputs.
type JobSpec struct {
	// Experiments names registered experiments ("table1", "fig15", ...).
	Experiments []string `json:"experiments,omitempty"`
	// Compare, when non-nil, runs one strategy-comparison grid instead.
	Compare *CompareSpec `json:"compare,omitempty"`
	// Refs is the per-workload OS reference target (default 3M, like the
	// CLI). Seed overrides the kernel generation seed (0 = default).
	Refs uint64 `json:"refs,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Par bounds the job's drive-level parallelism (the CLI's -par): the
	// experiment fan-out and replay drive pool inside this one job. 0
	// inherits the server's default; 1 forces a sequential job. This is
	// orthogonal to the server's -workers flag, which bounds how many jobs
	// run concurrently.
	Par int `json:"par,omitempty"`
	// Stream selects the job's trace pipeline: "auto" (default) streams
	// when the projected materialised footprint exceeds the daemon's
	// budget, "on" forces the constant-memory streaming pipeline, "off"
	// forces materialisation. An "off" job whose projected footprint
	// exceeds the budget is rejected at submission rather than risking an
	// out-of-memory daemon.
	Stream string `json:"stream,omitempty"`
	// Chunk is the streaming window size in trace events (the CLI's
	// -chunk); 0 selects the default (~1M events).
	Chunk int `json:"chunk,omitempty"`
	// Cpus is the simulated CPU count (the CLI's -cpus). For experiment
	// jobs it sizes the multiprocessor experiments (fig19, cpus); 0 keeps
	// the default of 4. For compare jobs a value above 1 turns every grid
	// cell into a shared-cache multiprocessor replay.
	Cpus int `json:"cpus,omitempty"`
}

// streamMode resolves the spec's stream field (validated earlier).
func (s *JobSpec) streamMode() (oslayout.StreamMode, error) {
	switch s.Stream {
	case "", "auto":
		return oslayout.StreamAuto, nil
	case "on":
		return oslayout.StreamOn, nil
	case "off":
		return oslayout.StreamOff, nil
	}
	return 0, fmt.Errorf("bad stream mode %q (want auto, on or off)", s.Stream)
}

// CompareSpec mirrors the CLI compare subcommand's flags.
type CompareSpec struct {
	// Strategies are registered strategy names; Sizes accepts the CLI's
	// size syntax ("8192", "8k", "1M").
	Strategies []string `json:"strategies"`
	Sizes      []string `json:"sizes"`
	// Line and Assoc default to the paper's 32-byte direct-mapped caches.
	Line   int  `json:"line,omitempty"`
	Assoc  int  `json:"assoc,omitempty"`
	Detail bool `json:"detail,omitempty"`
	// Partition applies a way-partition policy to every grid cell, in the
	// CLI's -partition syntax ("static", "interval,every=4,grain=1", ...).
	// Malformed specs, splits the associativity cannot hold, and the
	// reserved policy (which needs a SelfConfFree set; run fig18x instead)
	// are rejected at submission.
	Partition string `json:"partition,omitempty"`
	// Private gives each simulated CPU its own cache fed by its own trace
	// instead of the shared multiprocessor cache; requires cpus > 1. The
	// per-CPU replays are independent, which is what lets a coordinator
	// shard a multiprocessor grid along the CPU axis.
	Private bool `json:"private,omitempty"`
}

// validate resolves defaults and rejects malformed specs before the job is
// accepted, so clients get a 400 rather than a failed job. budget is the
// daemon's retained-trace memory bound: a spec that forces materialisation
// past it is refused here, while "auto" and "on" specs stream instead.
func (s *JobSpec) validate(budget int64) error {
	if len(s.Experiments) > 0 && s.Compare != nil {
		return fmt.Errorf("spec mixes experiments and compare; submit one or the other")
	}
	if len(s.Experiments) == 0 && s.Compare == nil {
		return fmt.Errorf("spec names no work: give experiments or compare")
	}
	for _, n := range s.Experiments {
		if !expt.Has(n) {
			return fmt.Errorf("unknown experiment %q", n)
		}
	}
	if c := s.Compare; c != nil {
		if len(c.Strategies) == 0 {
			return fmt.Errorf("compare spec names no strategies")
		}
		for _, n := range c.Strategies {
			if _, err := strategy.Get(n); err != nil {
				return fmt.Errorf("unknown strategy %q", n)
			}
		}
		if len(c.Sizes) == 0 {
			return fmt.Errorf("compare spec names no cache sizes")
		}
		sizes, err := ParseSizes(c.Sizes)
		if err != nil {
			return err
		}
		if c.Line == 0 {
			c.Line = 32
		}
		if c.Assoc == 0 {
			c.Assoc = 1
		}
		if c.Private {
			if s.Cpus < 2 {
				return fmt.Errorf("private per-CPU caches need cpus > 1, got %d", s.Cpus)
			}
			if c.Detail {
				return fmt.Errorf("detail breakdowns are not available with private per-CPU caches")
			}
			if c.Partition != "" {
				return fmt.Errorf("way partitioning is not available with private per-CPU caches")
			}
		}
		var part cache.Partition
		if c.Partition != "" {
			sp, err := partition.Parse(c.Partition)
			if err != nil {
				return err
			}
			if sp.Policy == "reserved" {
				return fmt.Errorf("the reserved policy needs a SelfConfFree block set and is not available on the compare grid (run the fig18x experiment)")
			}
			if sp, err = sp.WithDefaults(c.Assoc); err != nil {
				return err
			}
			part = sp.Initial()
		}
		// Every cache of the grid must be buildable; a geometry cache.New
		// refuses would otherwise fail the job at run time.
		for _, size := range sizes {
			if err := (cache.Config{Size: size, Line: c.Line, Assoc: c.Assoc, Part: part}).Validate(); err != nil {
				return err
			}
		}
	}
	if s.Refs == 0 {
		s.Refs = 3_000_000
	}
	if s.Par < 0 {
		return fmt.Errorf("par must be non-negative, got %d", s.Par)
	}
	if s.Chunk < 0 {
		return fmt.Errorf("chunk must be non-negative, got %d", s.Chunk)
	}
	if s.Cpus < 0 || s.Cpus > 16 {
		return fmt.Errorf("cpus must be in 0..16, got %d", s.Cpus)
	}
	mode, err := s.streamMode()
	if err != nil {
		return err
	}
	if mode == oslayout.StreamOff {
		projected := oslayout.ProjectedTraceBytes(oslayout.PaperWorkloads(),
			oslayout.TraceOptions{OSRefs: s.Refs})
		if projected > budget {
			return fmt.Errorf("refs %d projects a %d MiB materialised trace footprint, over the daemon's %d MiB budget; drop stream=off to let the job stream",
				s.Refs, projected>>20, budget>>20)
		}
	}
	return nil
}

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// JobResult is one rendered experiment output with its digest — the same
// SHA-256 the CLI's run manifest records, so an HTTP job and a CLI run of
// the same experiment can be diffed by digest alone.
type JobResult struct {
	Digest   string `json:"digest"`
	Rendered string `json:"rendered,omitempty"`
}

// Job is one unit of asynchronous work: its spec, lifecycle, recorder and
// event hub. Fields behind mu change as the job advances; everything else
// is immutable after submission.
type Job struct {
	ID      string
	Spec    JobSpec
	rec     *obs.Recorder
	events  *eventHub
	created time.Time

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	err      string
	results  map[string]JobResult
	// hosts are the worker machines whose shards built this job's results
	// (coordinator mode only), deduplicated, for merged-run provenance.
	hosts []string
}

// addHost records a shard-contributing worker host, once per host.
func (j *Job) addHost(h string) {
	if h == "" {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, have := range j.hosts {
		if have == h {
			return
		}
	}
	j.hosts = append(j.hosts, h)
}

// workerHosts returns the recorded shard hosts, sorted for stable
// provenance.
func (j *Job) workerHosts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := append([]string(nil), j.hosts...)
	sort.Strings(out)
	return out
}

// snapshot returns a consistent copy of the mutable state.
func (j *Job) snapshot() (state JobState, started, finished time.Time, errMsg string, results map[string]JobResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res := make(map[string]JobResult, len(j.results))
	for k, v := range j.results {
		res[k] = v
	}
	return j.state, j.started, j.finished, j.err, res
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.events.publish(Event{Type: "state", State: string(StateRunning)})
}

// finish ends the job, done or failed, once; later calls are no-ops.
func (j *Job) finish(results map[string]JobResult, err error) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateDone
		j.results = results
	}
	state, errMsg := j.state, j.err
	j.mu.Unlock()
	j.events.publish(Event{Type: "state", State: string(state), Error: errMsg})
	j.events.publish(Event{Type: "done", State: string(state), Error: errMsg})
	j.events.close()
}

// Manager owns the job table and the bounded worker pool. Like
// expt.parEach, the pool takes work in submission order under a fixed
// worker count — but jobs arrive over time, so it is a queue of goroutines
// blocking on a channel rather than an index counter.
type Manager struct {
	workers int
	maxJobs int
	budget  int64

	// onDrop seeds each job hub's slow-subscriber drop hook; onEvict fires
	// once per retained job evicted from the table. Both are set (if at
	// all) right after newManager, before any Submit, and may be nil.
	onDrop  func()
	onEvict func()

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing and eviction
	nextID int
	closed bool

	queue chan *Job
	run   func(*Job)
	wg    sync.WaitGroup
}

// newManager starts a pool of workers executing run on submitted jobs.
// maxJobs bounds the retained job table; the oldest finished jobs are
// evicted past it.
func newManager(workers, maxJobs int, budget int64, run func(*Job)) *Manager {
	if workers <= 0 {
		workers = 2
	}
	if maxJobs <= 0 {
		maxJobs = 64
	}
	if budget <= 0 {
		budget = oslayout.DefaultStreamBudgetBytes
	}
	m := &Manager{
		workers: workers,
		maxJobs: maxJobs,
		budget:  budget,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, maxJobs),
		run:     run,
	}
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				j.setRunning()
				m.runJob(j)
			}
		}()
	}
	return m
}

// runJob runs one job, ending it failed with the panic message if the run
// panics, so one job's fault never takes the worker — or the daemon and
// every other job — down with it. Weights a panicking build left half
// applied do no harm: every reader applies its own profile under the
// strategy-cache lock before it reads.
func (m *Manager) runJob(j *Job) {
	defer func() {
		if p := recover(); p != nil {
			j.finish(nil, fmt.Errorf("job panicked: %v", p))
		}
	}()
	m.run(j)
}

// Submit validates the spec, assigns an ID and enqueues the job.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(m.budget); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("server shutting down")
	}
	m.nextID++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", m.nextID),
		Spec:    spec,
		state:   StateQueued,
		created: time.Now(),
		rec:     obs.NewRecorder(),
		events:  newEventHub(),
	}
	j.events.onDrop = m.onDrop
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.evictLocked()
	m.mu.Unlock()

	select {
	case m.queue <- j:
		return j, nil
	default:
		// Queue full: drop the job rather than block the HTTP handler.
		j.finish(nil, fmt.Errorf("job queue full (%d pending)", cap(m.queue)))
		return nil, fmt.Errorf("job queue full")
	}
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
func (m *Manager) evictLocked() {
	for len(m.order) > m.maxJobs {
		evicted := false
		for i, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			terminal := j.state == StateDone || j.state == StateFailed
			j.mu.Unlock()
			if terminal {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				if m.onEvict != nil {
					m.onEvict()
				}
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; retain past the bound rather than lose work
		}
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all retained jobs in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Close stops accepting jobs and waits for in-flight ones to finish.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
}
