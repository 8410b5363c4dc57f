package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/runstore"
	"oslayout/internal/serve"
)

// benchExperiments is the experiment sweep timed by the run_many benchmark,
// mirroring BenchmarkRunMany in bench_test.go.
var benchExperiments = []string{"table1", "table2", "table3", "table4"}

// runBench executes the bench subcommand: the canonical benchmark set —
// the table sweep on a shared study (run_many), a compare grid cold and
// warm (fresh vs pooled compiled streams), and the streamed pipeline —
// repeated N times. With -record the medians, spread and result digests
// are archived as a "bench" record, making the perf trajectory first-class
// instead of hand-pasted into BENCH_*.json.
func runBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oslayout bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir        = fs.String("dir", "", "run archive directory (required with -record)")
		record     = fs.Bool("record", false, "archive the medians, spread and digests as a bench record")
		n          = fs.Int("n", 3, "repetitions per benchmark; the spread feeds the diff noise band")
		refs       = fs.String("refs", "500k", "OS references per workload for the table and compare benchmarks")
		streamRefs = fs.String("streamrefs", "50m", "OS references for the streamed-pipeline benchmark")
		seed       = fs.Int64("seed", 0, "kernel generation seed override (0 = default 1995)")
		coord      = fs.Bool("coord", false, "also run the sharded-serve scenario: an 8x3 compare grid through an in-process coordinator over 1 vs 2 worker daemons")
		coordRefs  = fs.String("coordrefs", "3m", "OS references per workload for the coordinator scenario")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: oslayout bench [-record -dir <archive>] [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("bench takes no positional arguments (got %v)", fs.Args())
	}
	if *record && *dir == "" {
		return fmt.Errorf("bench: -record requires -dir")
	}
	if *n < 1 {
		return fmt.Errorf("bench: -n must be >= 1 (got %d)", *n)
	}
	refCount, err := serve.ParseRefs(*refs)
	if err != nil {
		return err
	}
	streamCount, err := serve.ParseRefs(*streamRefs)
	if err != nil {
		return fmt.Errorf("bad -streamrefs: %w", err)
	}

	rec := oslayout.NewRecorder()
	digests := map[string]string{}
	samples := []runstore.BenchSample{
		{Name: "run_many", Note: fmt.Sprintf("refs=%d experiments=%s", refCount, strings.Join(benchExperiments, ","))},
		{Name: "compare_cold", Note: fmt.Sprintf("refs=%d strategies=base,opts sizes=4k,8k", refCount)},
		{Name: "compare_warm", Note: fmt.Sprintf("refs=%d strategies=base,opts sizes=4k,8k", refCount)},
		{Name: "stream", Note: fmt.Sprintf("refs=%d chunked pipeline, table2", streamCount)},
	}
	var coordCount uint64
	if *coord {
		coordCount, err = serve.ParseRefs(*coordRefs)
		if err != nil {
			return fmt.Errorf("bad -coordrefs: %w", err)
		}
		// Each worker daemon gets a fixed fraction of the machine so the
		// 1-worker and 2-worker runs compare capacity, not contention: on a
		// multi-core host the 2-worker fleet legitimately brings twice the
		// replay bandwidth. On a single-core host both fleets collapse to
		// par=1 and the scenario only demonstrates protocol overhead.
		par := coordPar()
		note := fmt.Sprintf("refs=%d grid=8x3 (base,opts x 4 workloads x 3 sizes) drivepar=%d/worker", coordCount, par)
		samples = append(samples,
			runstore.BenchSample{Name: "coordinator_1w", Note: note + " workers=1"},
			runstore.BenchSample{Name: "coordinator_2w", Note: note + " workers=2"})
	}
	byName := map[string]*runstore.BenchSample{}
	for i := range samples {
		byName[samples[i].Name] = &samples[i]
	}
	timeIt := func(name string, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		byName[name].NsPerOp = append(byName[name].NsPerOp, float64(time.Since(t0).Nanoseconds()))
		return nil
	}

	done := rec.Span("study.build")
	st, err := expt.BuildStudy(expt.Options{OSRefs: refCount, KernelSeed: *seed, Recorder: rec})
	done()
	if err != nil {
		return fmt.Errorf("building study: %w", err)
	}
	if err := benchRunMany(st, rec, *n, digests, timeIt); err != nil {
		return err
	}

	// compare cold vs warm: cold pays layout construction and stream
	// compilation on a fresh study; warm replays the pooled streams.
	stratList := []string{"base", "opts"}
	sizeList := []int{4 << 10, 8 << 10}
	for rep := 0; rep < *n; rep++ {
		cenv, err := expt.NewEnv(expt.Options{OSRefs: refCount, KernelSeed: *seed})
		if err != nil {
			return fmt.Errorf("building compare study: %w", err)
		}
		compareOnce := func() error {
			c, err := cenv.RunCompareOpts(stratList, sizeList, 32, 1, expt.CompareOptions{})
			if err != nil {
				return err
			}
			digests["compare"] = oslayout.Digest(c.Render())
			return nil
		}
		if err := timeIt("compare_cold", compareOnce); err != nil {
			return err
		}
		if err := timeIt("compare_warm", compareOnce); err != nil {
			return err
		}
	}

	// stream: the constant-memory chunked pipeline at its own (large) ref
	// count, fresh study each repetition so trace generation is included.
	for rep := 0; rep < *n; rep++ {
		err := timeIt("stream", func() error {
			senv, err := expt.NewEnv(expt.Options{
				OSRefs: streamCount, KernelSeed: *seed, Stream: oslayout.StreamOn,
			})
			if err != nil {
				return err
			}
			r, err := expt.Run(senv, "table2")
			if err != nil {
				return err
			}
			digests["stream_table2"] = oslayout.Digest(r.Render())
			return nil
		})
		if err != nil {
			return err
		}
	}

	if *coord {
		if err := benchCoordinator(*n, coordCount, *seed, digests, timeIt); err != nil {
			return err
		}
	}

	for i := range samples {
		samples[i].Summarize()
		s := &samples[i]
		fmt.Fprintf(stdout, "%-14s n=%d median %12.0fns  min %12.0fns  max %12.0fns  (%s)\n",
			s.Name, s.N, s.MedianNs, s.MinNs, s.MaxNs, s.Note)
	}

	if !*record {
		return nil
	}
	seedVal := *seed
	if seedVal == 0 {
		seedVal = oslayout.DefaultKernelConfig().Seed
	}
	flags := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	m := &obs.Manifest{
		Command:            "oslayout bench " + strings.Join(args, " "),
		Flags:              flags,
		Seed:               seedVal,
		Refs:               refCount,
		Phases:             rec.Phases(),
		Counters:           rec.Counters(),
		ReplayEventsPerSec: rec.EventsPerSec(),
		Results:            digests,
		Provenance:         obs.CollectProvenance(),
	}
	store, err := runstore.Open(*dir)
	if err != nil {
		return err
	}
	id, err := store.Put(&runstore.Record{
		Kind:        "bench",
		CreatedUnix: time.Now().Unix(),
		Manifest:    *m,
		Bench:       samples,
	})
	if err != nil {
		return fmt.Errorf("archiving bench record: %w", err)
	}
	fmt.Fprintf(stderr, "[archived bench record %s to %s]\n", id[:12], *dir)
	return nil
}

// benchRunMany times n repetitions of the table sweep on one study: the
// steady-state cost of evaluating experiments, not of building the world.
// An Env memoizes experiment results, so each repetition gets a fresh one
// over st, built outside the timed region; the environments share st's
// layouts and compiled streams.
func benchRunMany(st *oslayout.Study, rec *obs.Recorder, n int, digests map[string]string, timeIt func(string, func() error) error) error {
	for rep := 0; rep < n; rep++ {
		env, err := expt.NewEnv(expt.Options{Study: st, Recorder: rec})
		if err != nil {
			return err
		}
		err = timeIt("run_many", func() error {
			for _, name := range benchExperiments {
				r, err := expt.Run(env, name)
				if err != nil {
					return err
				}
				digests[name] = oslayout.Digest(r.Render())
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// coordPar is each bench worker daemon's replay parallelism: half the
// machine, so two workers together use what one process would.
func coordPar() int {
	par := runtime.NumCPU() / 2
	if par < 1 {
		par = 1
	}
	return par
}

// benchCoordinator times the sharded-serve scenario: the same 8x3 compare
// grid submitted to a coordinator over a 1-worker and a 2-worker fleet,
// both fleets built from in-process daemons on loopback listeners. The two
// merged digests must agree (and are recorded), so the scenario doubles as
// a bit-identity check at bench scale.
func benchCoordinator(n int, refs uint64, seed int64, digests map[string]string, timeIt func(string, func() error) error) error {
	par := coordPar()
	w1, stop1, err := startBenchDaemon(serve.Config{Workers: 2, DrivePar: par})
	if err != nil {
		return err
	}
	defer stop1()
	w2, stop2, err := startBenchDaemon(serve.Config{Workers: 2, DrivePar: par})
	if err != nil {
		return err
	}
	defer stop2()
	c1, stopC1, err := startBenchDaemon(serve.Config{Coordinator: true, Peers: []string{w1}})
	if err != nil {
		return err
	}
	defer stopC1()
	c2, stopC2, err := startBenchDaemon(serve.Config{Coordinator: true, Peers: []string{w1, w2}})
	if err != nil {
		return err
	}
	defer stopC2()

	spec := fmt.Sprintf(`{"compare":{"strategies":["base","opts"],"sizes":["4k","8k","16k"]},"refs":%d,"seed":%d}`, refs, seed)
	// Warmup through the 2-worker fleet pools both workers' studies and
	// compiled streams, so the timed runs measure steady-state replay
	// throughput rather than one cold study build.
	if _, err := runCoordJob(c2, spec); err != nil {
		return fmt.Errorf("bench coordinator warmup: %w", err)
	}
	coordDigests := map[string]string{}
	for rep := 0; rep < n; rep++ {
		for name, base := range map[string]string{"coordinator_1w": c1, "coordinator_2w": c2} {
			err := timeIt(name, func() error {
				st, err := runCoordJob(base, spec)
				if err != nil {
					return err
				}
				coordDigests[name] = st.Results["compare"].Digest
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	if coordDigests["coordinator_1w"] != coordDigests["coordinator_2w"] {
		return fmt.Errorf("bench coordinator: 1-worker digest %s != 2-worker digest %s",
			coordDigests["coordinator_1w"], coordDigests["coordinator_2w"])
	}
	digests["coordinator_compare"] = coordDigests["coordinator_2w"]
	return nil
}

// startBenchDaemon runs an in-process serve daemon on a loopback listener.
func startBenchDaemon(cfg serve.Config) (url string, stop func(), err error) {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		s.Close()
	}, nil
}

// runCoordJob submits one job spec to a daemon and polls it to completion.
func runCoordJob(base, spec string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := http.Post(base+"/api/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return st, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("job submission answered %s", resp.Status)
	}
	deadline := time.Now().Add(30 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/api/jobs/" + st.ID)
		if err != nil {
			return st, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone:
			return st, nil
		case serve.StateFailed:
			return st, fmt.Errorf("job failed: %s", st.Error)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return st, fmt.Errorf("job %s did not finish before the bench deadline", st.ID)
}
