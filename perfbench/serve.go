package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/serve"
	"oslayout/internal/strategy"
)

// serveWorkload is a closed loop of HTTP clients against an in-process
// coordinator fronting worker daemons, all on loopback. The clients submit
// a fixed repeating mix: compare jobs with the grid spec, which run on the
// workers' pooled studies and are warm after set-up, and a table2
// experiment job, which builds a private study every time.
var serveWorkload = &spec{
	name:     "serve",
	refs:     500_000,
	testRefs: 20_000,
	measure:  serveMeasure,
	traced:   serveTraced,
}

const (
	serveClients = 2
	serveWorkers = 2
	serveRounds  = 7
)

// serveMix is each client's repeating job sequence; client c starts at
// offset 2c so the clients are out of phase.
var serveMix = []string{"compare", "compare", "compare", "table2"}

// fleet is one coordinator and its workers, each an in-process daemon on a
// loopback listener.
type fleet struct {
	coord   string
	workers []string
	client  *http.Client
	stops   []func()
}

// startDaemon serves one daemon on a loopback listener; stop closes the
// listener, drains the daemon's job pool and waits for the server
// goroutine.
func startDaemon(cfg serve.Config) (string, func(), error) {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
		s.Close()
	}, nil
}

// startFleet starts the workers (one slot, drive parallelism 1 each) and a
// coordinator, and registers the workers with it.
func startFleet() (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	for i := 0; i < serveWorkers; i++ {
		url, stop, err := startDaemon(serve.Config{Workers: 1, DrivePar: 1})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, url)
		f.stops = append(f.stops, stop)
	}
	url, stop, err := startDaemon(serve.Config{Coordinator: true, Workers: serveClients})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = url
	f.stops = append(f.stops, stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range f.workers {
		if err := serve.RegisterWithCoordinator(ctx, f.coord, w, 1, nil); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop shuts the coordinator down before its workers.
func (f *fleet) stop() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	f.stops = nil
	f.client.CloseIdleConnections()
}

// jobSpecs returns the JSON job specs of the mix at the run's refs on the
// given kernel seed.
func jobSpecs(r *run, kernel int64) map[string]string {
	strategies, _ := json.Marshal(strategy.Names())
	return map[string]string{
		"compare": fmt.Sprintf(`{"compare":{"strategies":%s,"sizes":["4k","8k","16k"]},"refs":%d,"seed":%d}`, strategies, r.refs, kernel),
		"table2":  fmt.Sprintf(`{"experiments":["table2"],"refs":%d,"seed":%d}`, r.refs, kernel),
	}
}

// jobRun is one job as the client saw it.
type jobRun struct {
	submit, admit  time.Time // POST sent, POST answered
	done           time.Time // SSE done event received
	status         serve.JobStatus
	latencySeconds float64
	// cpuSeconds is the process's CPU time from submission to the done
	// event; only meaningful when no other job runs concurrently.
	cpuSeconds float64
}

// runJob submits one job, follows its SSE stream to the done event — the
// client-observed completion — then fetches the rendered results.
func (f *fleet) runJob(spec string) (*jobRun, error) {
	t0 := now()
	j := &jobRun{submit: t0.wall}
	resp, err := f.client.Post(f.coord+"/api/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, err
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.admit = time.Now()
	if err != nil {
		return nil, fmt.Errorf("decoding submission answer: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submission answered %s", resp.Status)
	}
	if err := f.awaitDone(st.ID); err != nil {
		return nil, err
	}
	j.latencySeconds, j.cpuSeconds = t0.since()
	j.done = j.submit.Add(time.Duration(j.latencySeconds * float64(time.Second)))
	if err := f.getJSON("/api/jobs/"+st.ID, &j.status); err != nil {
		return nil, err
	}
	if j.status.State != serve.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, j.status.State, j.status.Error)
	}
	if j.status.ReplayEventsPerSec <= 0 {
		return nil, fmt.Errorf("job %s replayed no events", st.ID)
	}
	return j, nil
}

// awaitDone reads a job's SSE stream until its done event.
func (f *fleet) awaitDone(id string) error {
	resp, err := f.client.Get(f.coord + "/api/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events stream answered %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a done event", id)
}

func (f *fleet) getJSON(path string, v any) error {
	resp, err := f.client.Get(f.coord + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobOutputs maps a finished job to its checked output digests.
func jobOutputs(j *jobRun) map[string]string {
	if j == nil {
		return nil
	}
	out := make(map[string]string)
	for name, res := range j.status.Results {
		out[name] = res.Digest
	}
	return out
}

// serveReference computes the in-process results the fleet must match:
// the grid through expt.Env.RunCompareOpts and table2 through expt.Run. It
// returns the study, or nil when it could not be built.
func serveReference(r *run) *oslayout.Study {
	env, err := expt.NewEnv(expt.Options{OSRefs: r.refs, KernelSeed: r.seed})
	out := map[string]string{}
	if err == nil {
		var c *expt.Compare
		if c, err = env.RunCompareOpts(strategy.Names(), gridSizes, gridLine, 1, expt.CompareOptions{}); err == nil {
			out["compare"] = obs.Digest(c.Render())
		}
	}
	if err == nil {
		var t expt.Renderer
		if t, err = expt.Run(env, "table2"); err == nil {
			out["table2"] = obs.Digest(t.Render())
		}
	}
	if !r.chk.op("serve in-process reference", out, err) {
		return nil
	}
	return env.St
}

// setUpFleet starts a fleet and runs the warm-up compare job of the given
// kernel on it.
func setUpFleet(r *run, kernel int64) (*fleet, *jobRun, error) {
	f, err := startFleet()
	if err != nil {
		return nil, nil, fmt.Errorf("starting fleet: %w", err)
	}
	j, err := f.runJob(jobSpecs(r, kernel)["compare"])
	if !r.chk.op(fmt.Sprintf("serve warm-up job (kernel %d)", kernel), r.kernelOutputs(kernel, jobOutputs(j)), err) {
		f.stop()
		return nil, nil, fmt.Errorf("warm-up job failed")
	}
	return f, j, nil
}

// closedLoop runs the clients on the given kernel's job mix until the
// deadline (each completes at least minCycles cycles of the mix) and
// returns every successful job. A client stops only at the end of a cycle,
// so every loop completes compare and table2 jobs in the mix's proportion:
// its CPU time per job and references per CPU second do not depend on
// where the deadline cut a cycle.
func (f *fleet) closedLoop(r *run, kernel int64, deadline time.Time, minCycles int) []*jobRun {
	specs := jobSpecs(r, kernel)
	var mu sync.Mutex
	var jobs []*jobRun
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < minCycles*len(serveMix) || n%len(serveMix) != 0 || time.Now().Before(deadline); n++ {
				kind := serveMix[(2*c+n)%len(serveMix)]
				j, err := f.runJob(specs[kind])
				mu.Lock()
				if r.chk.op(fmt.Sprintf("serve client %d job %d (%s, kernel %d)", c, n, kind, kernel), r.kernelOutputs(kernel, jobOutputs(j)), err) {
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return jobs
}

func serveMeasure(r *run) error {
	serveReference(r)
	heap := startHeapSampler()
	defer heap.Close()
	var setups, colds, lats, heaps, rates []float64
	var jobs, loopWall, loopCPU float64
	for round, kernel := range r.useKernels(serveRounds) {
		runtime.GC()
		heap.reset()
		t0 := now()
		f, warm, err := setUpFleet(r, kernel)
		if err != nil {
			return err
		}
		_, cpu := t0.since()
		setups = append(setups, cpu)
		colds = append(colds, warm.cpuSeconds)
		before, err := f.coordCounter("oslayout_refs_replayed_total")
		if err != nil {
			f.stop()
			return err
		}
		t1 := now()
		done := f.closedLoop(r, kernel, r.start.Add(r.budget*time.Duration(round+1)/serveRounds), 1)
		wall, cpu := t1.since()
		after, err := f.coordCounter("oslayout_refs_replayed_total")
		f.stop()
		if err != nil {
			return err
		}
		for _, j := range done {
			lats = append(lats, j.latencySeconds)
		}
		jobs += float64(len(done))
		loopWall += wall
		loopCPU += cpu
		rates = append(rates, (after-before)/1e6/cpu)
		heaps = append(heaps, heap.peakMiB())
	}
	if jobs == 0 {
		return fmt.Errorf("no job succeeded")
	}
	r.set("setup_s", median(setups), "s")
	r.set("cold_cpu_s", median(colds), "s")
	r.set("pass_cpu_s", loopCPU/jobs, "s")
	r.set("mrefs_per_cpu_s", median(rates), "Mref/cpu-s")
	r.set("peak_heap_mib", median(heaps), "MiB")
	r.wallLatency(lats)
	r.wall["jobs_per_s"] = jobs / loopWall
	return nil
}

// coordCounter reads one counter from the coordinator's /metrics.
func (f *fleet) coordCounter(name string) (float64, error) {
	m, err := scrape(f.client, f.coord)
	return m[name], err
}

// scrape reads a daemon's Prometheus exposition into series totals: the
// value of every sample, summed over label sets.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

// scrapeAll sums a set of daemons' expositions.
func scrapeAll(c *http.Client, bases []string) (map[string]float64, error) {
	total := make(map[string]float64)
	for _, b := range bases {
		m, err := scrape(c, b)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// serveTraced sets up one study layer by layer and one fleet, runs one mix
// cycle per client untraced and one traced, and attributes each traced job's latency to admission,
// queue wait, dispatch, merge and notification from the client's clock
// and the server's own timestamps and phases. Direct shard requests to a
// worker split worker replay from transport.
func serveTraced(r *run) error {
	st := serveReference(r)
	if st == nil {
		return fmt.Errorf("in-process reference failed")
	}
	// Every worker builds a study of this shape when the fleet warms up;
	// building one here layer by layer times those layers.
	setup := newLedger()
	if _, err := setupLayers(setup, st, r.seed, false); err != nil {
		return err
	}
	r.setLayerTimes(setup)
	f, _, err := setUpFleet(r, r.seed)
	if err != nil {
		return err
	}
	defer f.stop()

	untraced := f.closedLoop(r, r.seed, time.Time{}, 1)
	var untracedLat float64
	for _, j := range untraced {
		untracedLat += j.latencySeconds
	}
	untracedLat /= float64(len(untraced))

	beforeC, err := scrape(f.client, f.coord)
	if err != nil {
		return err
	}
	beforeW, err := scrapeAll(f.client, f.workers)
	if err != nil {
		return err
	}
	t1 := time.Now()
	jobs := f.closedLoop(r, r.seed, time.Time{}, 1)
	t2 := time.Now()
	afterC, err := scrape(f.client, f.coord)
	if err != nil {
		return err
	}
	afterW, err := scrapeAll(f.client, f.workers)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no traced job succeeded")
	}
	l := newLedger()
	var tracedLat float64
	for _, j := range jobs {
		st := j.status
		tracedLat += j.latencySeconds
		l.add("serve.admit_s", j.submit, j.admit)
		started, finished := *st.Started, *st.Finished
		l.add("serve.queue_wait_s", st.Created, started)
		dispatch := 0.0
		for _, ph := range st.Phases {
			if ph.Name == "coordinator.dispatch" {
				from := st.Created.Add(time.Duration(ph.Start * float64(time.Millisecond)))
				l.add("serve.dispatch_s", from, from.Add(time.Duration(ph.Millis*float64(time.Millisecond))))
				dispatch += ph.Millis / 1e3
			}
		}
		merge := finished.Sub(started).Seconds() - dispatch
		l.add("serve.merge_s", finished.Add(-time.Duration(merge*float64(time.Second))), finished)
		l.add("serve.notify_s", finished, j.done)
	}
	tracedLat /= float64(len(jobs))
	for _, name := range []string{"serve.admit_s", "serve.queue_wait_s", "serve.dispatch_s", "serve.merge_s"} {
		r.set(name, l.busy(name), "s")
	}
	// Notification is what the client waited beyond the server's own
	// created-to-finished span, admission included.
	var notify float64
	for _, j := range jobs {
		notify += j.latencySeconds - j.status.Finished.Sub(j.status.Created).Seconds()
	}
	r.set("serve.notify_s", notify, "s")
	// The coordinator counts dispatch and the fleet's replay volume; the
	// workers count their own layout and stream caches.
	coord := func(name string) float64 { return afterC[name] - beforeC[name] }
	workers := func(name string) float64 { return afterW[name] - beforeW[name] }
	r.set("serve.shards", coord("oslayout_shards_dispatched_total"), "count")
	r.set("serve.reassignments", coord("oslayout_shard_reassignments_total"), "count")
	r.set("simulate.replay_events", coord("oslayout_replay_events_total"), "count")
	sh, sm := workers("oslayout_streamcache_hits_total"), workers("oslayout_streamcache_misses_total")
	r.set("streamcache.hits", sh, "count")
	r.set("streamcache.misses", sm, "count")
	if sh+sm > 0 {
		r.set("streamcache.hit_ratio", sh/(sh+sm), "ratio")
	}
	lh, lm := workers("oslayout_layout_cache_hits_total"), workers("oslayout_layout_cache_misses_total")
	r.set("strategy.builds", lm, "count")
	r.set("strategy.hits", lh, "count")
	if lh+lm > 0 {
		r.set("strategy.hit_ratio", lh/(lh+lm), "ratio")
	}
	r.set("unaccounted_s", t2.Sub(t1).Seconds()-l.covered(t1, t2), "s")
	r.set("trace_overhead_frac", (tracedLat-untracedLat)/untracedLat, "ratio")
	return shardProbe(r, f, jobSpecs(r, r.seed)["compare"])
}

// shardProbe posts every cell of the grid spec straight to a worker's
// /api/shard, one at a time, and splits each round trip into the worker's
// own replay time (ShardResult.Millis) and transport. The shards merge
// into the grid the coordinator serves, which must match it.
func shardProbe(r *run, f *fleet, specJSON string) error {
	var job serve.JobSpec
	if err := json.Unmarshal([]byte(specJSON), &job); err != nil {
		return err
	}
	nw, ns := len(oslayout.PaperWorkloads()), len(job.Compare.Strategies)
	var replay, transport float64
	var grid *expt.Compare
	post := func(shard *expt.CompareShard, index int) error {
		body, err := json.Marshal(serve.ShardSpec{Job: job, Index: index, Of: nw * ns, Shard: shard})
		if err != nil {
			return err
		}
		t := time.Now()
		resp, err := f.client.Post(f.workers[0]+"/api/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("shard %d answered %s", index, resp.Status)
		}
		var res serve.ShardResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return err
		}
		rtt := time.Since(t).Seconds()
		replay += res.Millis / 1e3
		transport += rtt - res.Millis/1e3
		if grid == nil {
			grid = res.Grid
			return nil
		}
		return grid.MergeShard(res.Grid, shard)
	}
	var err error
	for wi := 0; wi < nw && err == nil; wi++ {
		for k := 0; k < ns && err == nil; k++ {
			err = post(&expt.CompareShard{Workloads: []int{wi}, Strategies: []int{k}}, wi*ns+k)
		}
	}
	var d string
	if err == nil {
		grid.Finalize()
		d = obs.Digest(grid.Render())
	}
	if !r.chk.op("serve shard probe", map[string]string{"compare": d}, err) {
		return fmt.Errorf("shard probe failed")
	}
	r.set("serve.shard_replay_s", replay, "s")
	r.set("serve.transport_s", transport, "s")
	return nil
}
