package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"oslayout/internal/runstore"
	"oslayout/internal/serve"
)

// runServe executes the serve subcommand: the live observability daemon.
// Experiments and compare grids are submitted as asynchronous jobs over
// HTTP; progress streams over SSE and the process exposes Prometheus
// metrics and pprof. With -coordinator the daemon executes nothing itself:
// jobs are decomposed into shards and fanned out over registered worker
// daemons, and the merged results are bit-identical to a single-process
// run. Every ordinary daemon doubles as a worker via POST /api/shard; -join
// announces it to a coordinator. See internal/serve for the surface.
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oslayout serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 2, "concurrent jobs (each job parallelises replays across cores); also sizes the worker's /api/shard slots")
		maxJobs = fs.Int("maxjobs", 64, "retained job table size; oldest finished jobs are evicted past it")
		par     = fs.Int("par", runtime.GOMAXPROCS(0), "default per-job parallelism bound (fan-out + replay drive pool); job specs override with \"par\"")
		budget  = fs.String("streambudget", "1g", "retained-trace memory budget (k/m/g suffixes): jobs projecting a larger materialised footprint stream instead, and stream=off jobs past it are rejected")
		archive = fs.String("archive", "", "run archive directory: every completed job is recorded there and /api/runs, /api/diff and /dash come alive")
		arcMax  = fs.String("archivebudget", "256m", "archive size budget (k/m/g suffixes): oldest run records are evicted past it")

		coordinator = fs.Bool("coordinator", false, "coordinate a worker fleet instead of executing jobs locally")
		peers       = fs.String("peers", "", "comma-separated worker base URLs to pre-register with the coordinator (workers can also self-register with -join)")
		shardRefs   = fs.String("shardrefs", "", "coordinator shard-packing target in replayed references (k/m/g suffixes); empty packs one grid cell per shard")
		shardTime   = fs.Duration("shardtimeout", 10*time.Minute, "coordinator bound on one shard's round trip before it is reassigned")
		shardTries  = fs.Int("shardattempts", 3, "workers one shard is tried on before the job fails")
		join        = fs.String("join", "", "coordinator base URL to register this worker with (e.g. http://coord:8080)")
		advertise   = fs.String("advertise", "", "base URL the coordinator should reach this worker at (default derived from -addr)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: oslayout serve [flags]

endpoints:
  POST /api/jobs              submit {"experiments":["table1"],"refs":400000}
                              or {"compare":{"strategies":["base","opts"],"sizes":["8k"]}}
  GET  /api/jobs              list jobs
  GET  /api/jobs/{id}         job status (rendered results once done)
  GET  /api/jobs/{id}/events  SSE progress stream
  GET  /api/jobs/{id}/trace   Chrome trace_event JSON of the job's phases
  POST /api/shard             run one shard for a coordinator (worker daemons)
  POST /api/workers           register a worker (coordinator daemons)
  GET  /api/workers           list the fleet and its health (coordinator daemons)
  GET  /api/runs              list the run archive (with -archive)
  GET  /api/runs/{ref}        one archived record ("latest", id prefix)
  GET  /api/diff?a=&b=        diff two archived runs (&gate=1: 409 on regression)
  GET  /dash                  HTML dashboard: perf trajectory, sparklines
  GET  /metrics               Prometheus text exposition
  GET  /healthz               liveness
  GET  /debug/pprof/          runtime profiling

flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %v)", fs.Args())
	}
	if *coordinator && *join != "" {
		return fmt.Errorf("-coordinator and -join are mutually exclusive: a daemon coordinates or works, not both")
	}
	if !*coordinator && (*peers != "" || *shardRefs != "") {
		return fmt.Errorf("-peers and -shardrefs only apply with -coordinator")
	}

	budgetBytes, err := serve.ParseRefs(*budget)
	if err != nil {
		return fmt.Errorf("bad -streambudget: %w", err)
	}
	if budgetBytes > math.MaxInt64 {
		return fmt.Errorf("bad -streambudget: %q overflows", *budget)
	}
	var shardRefTarget uint64
	if *shardRefs != "" {
		// The coordinator's packing target shares the CLI's reference-count
		// grammar, overflow rejection included.
		shardRefTarget, err = serve.ParseRefs(*shardRefs)
		if err != nil {
			return fmt.Errorf("bad -shardrefs: %w", err)
		}
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	var store *runstore.Store
	if *archive != "" {
		arcBytes, err := serve.ParseRefs(*arcMax)
		if err != nil {
			return fmt.Errorf("bad -archivebudget: %w", err)
		}
		if arcBytes > math.MaxInt64 {
			return fmt.Errorf("bad -archivebudget: %q overflows", *arcMax)
		}
		store, err = runstore.Open(*archive)
		if err != nil {
			return err
		}
		store.SetMaxBytes(int64(arcBytes))
	}
	s := serve.New(serve.Config{
		Workers: *workers, MaxJobs: *maxJobs, DrivePar: *par,
		StreamBudgetBytes: int64(budgetBytes), Archive: store,
		Coordinator: *coordinator, Peers: peerList, ShardRefs: shardRefTarget,
		ShardTimeout: *shardTime, ShardAttempts: *shardTries,
	})
	defer s.Close()

	// Listen before announcing, so ":0" prints the resolved port and a
	// bad address fails up front rather than inside Serve.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	self := hostport(ln.Addr().String())
	mode := ""
	if *coordinator {
		mode = " (coordinator)"
	}
	fmt.Fprintf(stdout, "oslayout serve%s listening on http://%s\n", mode, self)
	if *join != "" {
		selfURL := *advertise
		if selfURL == "" {
			selfURL = "http://" + self
		}
		go serve.RegisterWithCoordinator(context.Background(), strings.TrimRight(*join, "/"), selfURL, *workers,
			func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) })
	}
	return newHTTPServer(s.Handler(), serveReadHeaderTimeout, serveIdleTimeout).Serve(ln)
}

// The daemon's listener timeouts. A client must send its request headers
// within serveReadHeaderTimeout, and a keep-alive connection idle between
// requests closes after serveIdleTimeout, so a client that opens
// connections and stalls holds no goroutine or descriptor for long. There
// is no read or write timeout: a job's event stream (/api/jobs/{id}/events)
// stays open for the job's whole life.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server for h, with the given
// header-read and idle timeouts.
func newHTTPServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

// hostport rewrites a wildcard listen address into something curlable.
func hostport(addr string) string {
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if host == "" || host == "::" || strings.HasPrefix(host, "0.0.0.0") {
			return net.JoinHostPort("localhost", port)
		}
	}
	return addr
}
