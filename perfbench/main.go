// Command perfbench is the repository's benchmark: it runs one named
// workload through the public entry points of the layer stack (kernel
// synthesis, trace generation, profiling, layout building, replay, the
// experiment registry and the serve daemon), checks every rendered output,
// and prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics — as one JSON object on the last line of standard output.
//
//	perfbench --workload grid --seed 1995 --seconds 20 --trace 0
//
// Every timing is host time; simulated statistics are checked bit for bit
// through digests of the rendered outputs. See README.md for the metric
// definitions and the layer to end-to-end table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the kernel seed the paper experiments use; golden digests
// are recorded at it.
const defaultSeed = 1995

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies the host a result was measured on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Refs       uint64 `json:"refs"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Kernels are the kernel seeds the run's rounds cycle through.
	Kernels []int64 `json:"kernels,omitempty"`
}

// config is one run's inputs.
type config struct {
	seed   int64
	refs   uint64
	budget time.Duration
	golden goldenTable
	logf   func(format string, args ...any)
}

// run is one workload execution in progress: its inputs, the output checker
// and the metrics it reports.
type run struct {
	config
	name string
	// start is when the run began. Budgets count from it, so the reference
	// computations a workload makes before timing stay within --seconds.
	start time.Time
	// kernels are the kernel seeds the run measured, in round order.
	kernels []int64
	chk     *checker
	metrics map[string]metric
	// wall holds the run's wall-clock figures, printed on the provenance
	// line for information; they are not gated metrics.
	wall map[string]float64
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// useKernels returns the n kernel seeds an untraced run cycles its rounds
// or passes through: the run's own seed first, then seeds derived from it
// by SplitMix64. The layout-build and compile work of a synthesized kernel
// differs by about 15% from one seed to the next, so a run's medians cover
// several kernels instead of resting on one.
func (r *run) useKernels(n int) []int64 {
	ks := []int64{r.seed}
	x := uint64(r.seed)
	for len(ks) < n {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		ks = append(ks, int64((z^z>>31)%1_000_000)+1)
	}
	r.kernels = ks
	return ks
}

// kernelOutputs names a pass's outputs after its kernel when that is not
// the run's own seed, so each kernel's outputs are checked against their
// own golden or first digests. The run's own kernel keeps the bare names
// that the traced run and the in-process references share.
func (r *run) kernelOutputs(kernel int64, outputs map[string]string) map[string]string {
	if kernel == r.seed || outputs == nil {
		return outputs
	}
	named := make(map[string]string, len(outputs))
	for name, d := range outputs {
		named[fmt.Sprintf("%s@kernel=%d", name, kernel)] = d
	}
	return named
}

// wallLatency records the wall-clock distribution of a run's repeated
// passes or jobs: median, the highest percentile with at least ten samples
// beyond it, and the sample count.
func (r *run) wallLatency(xs []float64) {
	r.wall["p50_s"] = median(xs)
	r.wall["samples"] = float64(len(xs))
	if v, pct, ok := tail(xs); ok {
		r.wall["tail_s"], r.wall["tail_pct"] = v, pct
	}
}

// spec is one named benchmark workload: an input set and how to run it.
type spec struct {
	name string
	// refs is the per-workload OS reference target of a benchmark run;
	// testRefs the tiny target the self-test uses.
	refs, testRefs uint64
	// measure runs the workload untraced and sets the end-to-end metrics;
	// traced runs it through timed layer calls and sets the per-layer
	// metrics.
	measure, traced func(r *run) error
}

var workloads = []*spec{paperWorkload, gridWorkload, streamWorkload, serveWorkload}

func findWorkload(name string) (*spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// executeRun runs one workload and returns its result and the finished
// run; an error means the run could not produce a result at all (as
// opposed to failed checks, which are counted in the result).
func executeRun(w *spec, cfg config, traced bool) (*result, *run, error) {
	if cfg.seed == 0 {
		cfg.seed = defaultSeed
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	r := &run{config: cfg, name: w.name, start: time.Now(), chk: newChecker(w.name, cfg), metrics: make(map[string]metric), wall: make(map[string]float64)}
	f := w.measure
	if traced {
		f = w.traced
		zeroLayers(r)
	}
	if err := f(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.chk.attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	return &result{
		Correct:   r.chk.failed == 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   r.metrics,
	}, r, nil
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name        = fs.String("workload", "", "workload to run: paper, grid, stream or serve")
		seed        = fs.Int64("seed", defaultSeed, "kernel generation seed; golden digests are checked at 1995, cross-path identities at every seed")
		secs        = fs.Int("seconds", 20, "measurement budget in seconds")
		traceFlag   = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		writeGolden = fs.String("write-golden", "", "run every workload once at the default seed and write its digests to this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "perfbench: "+format+"\n", a...) }
	golden, err := loadGolden()
	if err != nil {
		logf("%v", err)
		return 1
	}
	if *writeGolden != "" {
		if err := recordGolden(*writeGolden, logf); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		logf("--trace must be 0 or 1")
		return 2
	}
	if *secs < 1 {
		logf("--seconds must be at least 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		logf("%v", err)
		return 2
	}
	cfg := config{seed: *seed, refs: w.refs, budget: time.Duration(*secs) * time.Second, golden: golden, logf: logf}
	res, r, err := executeRun(w, cfg, *traceFlag == 1)
	if err != nil {
		logf("%v", err)
		return 1
	}
	prov := provenance{
		Workload: w.name, Seed: *seed, Refs: w.refs, Trace: *traceFlag == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Kernels: r.kernels,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov, "wall": r.wall}); err != nil {
		logf("%v", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys in order, for stable iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
