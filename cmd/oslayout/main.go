// Command oslayout regenerates the tables and figures of Torrellas, Xia and
// Daigle, "Optimizing Instruction Cache Performance for Operating System
// Intensive Workloads" (HPCA 1995) from the synthetic reproduction study.
//
// Usage:
//
//	oslayout [flags] <experiment>...   one or more tables/figures
//	oslayout [flags] all               every registered experiment
//	oslayout [flags] stats             study summary (kernel, traces, profiles)
//	oslayout list                      list experiment names
//	oslayout strategies                list registered layout strategies
//	oslayout compare [flags]           evaluate strategies over a size grid
//	oslayout serve [flags]             HTTP daemon: jobs, metrics, SSE, pprof
//	oslayout diff [flags] <a> <b>      compare two archived runs (-gate for CI)
//	oslayout runs -dir <archive>       list the run archive
//	oslayout bench [-dir <archive>]    summarise perfbench runs read from stdin
//
// Paper experiments: table1-table4, fig1-fig8, fig12-fig18. Extensions:
// fig18x (way-partition policies), fig19 (shared-cache multiprocessor
// replay over -cpus interleaved traces), xprofile, baselines, ablation,
// cpus, policy (see EXPERIMENTS.md). The study — kernel synthesis, trace
// generation, profiling — is built once and shared by all requested
// experiments.
//
// The compare subcommand evaluates any set of registered layout strategies
// over a workload × cache-size grid through the single-pass simulation
// engine:
//
//	oslayout compare -strategies base,ch,ph,opts -sizes 4k,8k,16k
//
// The serve subcommand runs the same experiments as asynchronous HTTP jobs
// with live progress streaming and Prometheus metrics; see internal/serve.
// Offline runs can export their phase timings with -trace out.json (Chrome
// trace_event format, loadable in chrome://tracing or Perfetto).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/runstore"
	"oslayout/internal/serve"
	"oslayout/internal/simulate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "oslayout:", err)
		os.Exit(1)
	}
}

// run executes the CLI; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "serve":
			return runServe(args[1:], stdout, stderr)
		case "diff":
			return runDiff(args[1:], stdout, stderr)
		case "runs":
			return runRuns(args[1:], stdout, stderr)
		case "bench":
			return runBench(args[1:], os.Stdin, stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("oslayout", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		refs       = fs.String("refs", "3000000", "OS instruction-word references to trace per workload (k/m/g suffixes accepted)")
		seed       = fs.Int64("seed", 0, "kernel generation seed override (0 = default 1995)")
		stream     = fs.Bool("stream", false, "force the constant-memory streaming pipeline; by default it switches on automatically when the projected trace footprint exceeds 1 GiB")
		chunk      = fs.Int("chunk", 0, "streaming window size in trace events (0 = default, ~1M); results are identical at any setting")
		timings    = fs.Bool("time", false, "print per-experiment wall-clock time")
		dumpTraces = fs.String("dumptraces", "", "directory to write the captured workload traces to (binary format)")
		jsonDir    = fs.String("json", "", "directory to additionally write each experiment's result as <name>.json")
		reportDir  = fs.String("report", "", "directory to write a run manifest (manifest.json): phase timings, result digests, conflict attribution")
		archiveDir = fs.String("archive", "", "run archive directory to append this run's record to; defaults to <report>/archive when -report is set")
		tracePath  = fs.String("trace", "", "file to write the run's phase timings to as Chrome trace_event JSON (chrome://tracing, Perfetto)")
		par        = fs.Int("par", runtime.GOMAXPROCS(0), "parallelism bound for experiment fan-out and the replay drive pool (1 = fully sequential; results identical at any setting)")
		cpus       = fs.Int("cpus", 4, "simulated CPU count for the multiprocessor experiments (fig19 and cpus); the paper's machine has 4")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: oslayout [flags] <experiment>...|all|stats|list\n\nexperiments: %v\n\nflags:\n",
			strings.Join(expt.Names(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment given")
	}
	if len(rest) == 1 && rest[0] == "list" {
		for _, n := range expt.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	if len(rest) == 1 && rest[0] == "strategies" {
		for _, s := range oslayout.Strategies() {
			scope := "size-independent"
			if s.SizeDependent {
				scope = "per cache size"
			}
			fmt.Fprintf(stdout, "%-8s (%s) %s\n", s.Name, scope, s.Description)
		}
		return nil
	}
	names := rest
	if len(rest) == 1 && rest[0] == "all" {
		names = expt.Names()
	}
	wantStats := false
	var expNames []string
	for _, n := range names {
		// Subcommand words mixed into an experiment list would otherwise die
		// with a misleading "unknown experiment"; reject them with a pointer
		// to the right invocation instead.
		switch n {
		case "list", "strategies":
			return fmt.Errorf("%q must be the only argument: oslayout %s", n, n)
		case "compare", "serve", "diff", "runs", "bench":
			return fmt.Errorf("%s is a subcommand and must come first: oslayout %s [flags]", n, n)
		}
		if n == "stats" {
			wantStats = true
			continue
		}
		if !expt.Has(n) {
			return fmt.Errorf("unknown experiment %q; try 'oslayout list'", n)
		}
		expNames = append(expNames, n)
	}

	refCount, err := serve.ParseRefs(*refs)
	if err != nil {
		return err
	}
	if *cpus < 1 || *cpus > 16 {
		return fmt.Errorf("-cpus must be in 1..16 (got %d)", *cpus)
	}
	var rec *oslayout.Recorder
	if *reportDir != "" || *tracePath != "" || *archiveDir != "" {
		rec = oslayout.NewRecorder()
	}
	start := time.Now()
	env, err := expt.NewEnv(expt.Options{
		OSRefs:      refCount,
		KernelSeed:  *seed,
		Recorder:    rec,
		Par:         *par,
		CPUs:        *cpus,
		Stream:      streamMode(*stream),
		ChunkEvents: *chunk,
	})
	if err != nil {
		return fmt.Errorf("building study: %w", err)
	}
	if *timings {
		fmt.Fprintf(stdout, "[study built in %v]\n", time.Since(start).Round(time.Millisecond))
	}
	if *dumpTraces != "" {
		if err := dumpAllTraces(env, *dumpTraces, stdout); err != nil {
			return err
		}
	}
	results := make(map[string]string)
	if wantStats {
		var b strings.Builder
		printStats(env, &b)
		io.WriteString(stdout, b.String())
		results["stats"] = oslayout.Digest(b.String())
	}
	for _, n := range expNames {
		t0 := time.Now()
		done := rec.Span("experiment." + n)
		r, err := expt.Run(env, n)
		done()
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		rendered := r.Render()
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", n, rendered)
		results[n] = oslayout.Digest(rendered)
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, n, r); err != nil {
				return err
			}
		}
		if *timings {
			fmt.Fprintf(stdout, "[%s in %v]\n", n, time.Since(t0).Round(time.Millisecond))
		}
	}
	if *reportDir != "" || *archiveDir != "" {
		m, err := buildManifest("oslayout "+strings.Join(args, " "), fs, env, rec, results)
		if err != nil {
			return err
		}
		if *reportDir != "" {
			if err := m.Write(*reportDir); err != nil {
				return err
			}
		}
		dir := *archiveDir
		if dir == "" {
			dir = filepath.Join(*reportDir, "archive")
		}
		if err := archiveRecord(dir, &runstore.Record{Kind: "report", Manifest: *m, Cells: conflictCells(m.Conflicts)}, stderr); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := obs.WriteTraceFile(*tracePath, rec.Phases()); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}

// runCompare executes the compare subcommand: any set of registered layout
// strategies evaluated over a workload × cache-size grid in one study.
func runCompare(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oslayout compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		strategies = fs.String("strategies", "base,ch,ph,opts", "comma-separated registered strategy names")
		sizes      = fs.String("sizes", "4k,8k,16k", "comma-separated cache sizes (bytes, or with k/K suffix)")
		line       = fs.Int("line", 32, "cache line size in bytes")
		assoc      = fs.Int("assoc", 1, "cache associativity")
		refs       = fs.String("refs", "3000000", "OS instruction-word references to trace per workload (k/m/g suffixes accepted)")
		seed       = fs.Int64("seed", 0, "kernel generation seed override (0 = default 1995)")
		stream     = fs.Bool("stream", false, "force the constant-memory streaming pipeline; by default it switches on automatically when the projected trace footprint exceeds 1 GiB")
		chunk      = fs.Int("chunk", 0, "streaming window size in trace events (0 = default, ~1M); results are identical at any setting")
		timings    = fs.Bool("time", false, "print study build and grid wall-clock time")
		jsonDir    = fs.String("json", "", "directory to additionally write the result as compare.json")
		detail     = fs.Bool("detail", false, "print per-strategy conflict attribution next to the miss rates")
		part       = fs.String("partition", "", "way-partition policy applied to every cell, e.g. 'static', 'interval,every=4,grain=1', 'missdriven,os=5,app=3' (see 'oslayout run fig18x' for the scenario sweep)")
		reportDir  = fs.String("report", "", "directory to write a run manifest (manifest.json): phase timings, result digests, conflict attribution")
		archiveDir = fs.String("archive", "", "run archive directory to append this run's record to; defaults to <report>/archive when -report is set")
		par        = fs.Int("par", runtime.GOMAXPROCS(0), "parallelism bound for grid fan-out and the replay drive pool (1 = fully sequential; results identical at any setting)")
		cpus       = fs.Int("cpus", 1, "simulated CPUs sharing each cell's cache (1 = classic single-CPU grid; above 1 the per-CPU traces are interleaved into one shared cache)")
		private    = fs.Bool("private", false, "give each simulated CPU its own cache fed by its own trace instead of the shared cache (requires -cpus > 1)")
	)
	fs.Usage = func() {
		var names []string
		for _, s := range oslayout.Strategies() {
			names = append(names, s.Name)
		}
		fmt.Fprintf(stderr, "usage: oslayout compare [flags]\n\nstrategies: %s\n\nflags:\n",
			strings.Join(names, " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("compare takes no positional arguments (got %v)", fs.Args())
	}
	stratList := splitList(*strategies)
	if len(stratList) == 0 {
		return fmt.Errorf("no strategies given")
	}
	known := map[string]bool{}
	for _, s := range oslayout.Strategies() {
		known[s.Name] = true
	}
	for _, n := range stratList {
		if !known[n] {
			return fmt.Errorf("unknown strategy %q; try 'oslayout strategies'", n)
		}
	}
	sizeList, err := parseSizes(*sizes)
	if err != nil {
		return err
	}

	refCount, err := serve.ParseRefs(*refs)
	if err != nil {
		return err
	}
	if *cpus < 1 || *cpus > 16 {
		return fmt.Errorf("-cpus must be in 1..16 (got %d)", *cpus)
	}
	if *private && *cpus < 2 {
		return fmt.Errorf("-private needs -cpus > 1")
	}
	var rec *oslayout.Recorder
	if *reportDir != "" || *archiveDir != "" {
		rec = oslayout.NewRecorder()
	}
	start := time.Now()
	env, err := expt.NewEnv(expt.Options{
		OSRefs:      refCount,
		KernelSeed:  *seed,
		Recorder:    rec,
		Par:         *par,
		Stream:      streamMode(*stream),
		ChunkEvents: *chunk,
	})
	if err != nil {
		return fmt.Errorf("building study: %w", err)
	}
	if *timings {
		fmt.Fprintf(stdout, "[study built in %v]\n", time.Since(start).Round(time.Millisecond))
	}
	t0 := time.Now()
	c, err := env.RunCompareOpts(stratList, sizeList, *line, *assoc,
		expt.CompareOptions{Detail: *detail, Partition: *part, CPUs: *cpus, Private: *private})
	if err != nil {
		return err
	}
	rendered := c.Render()
	fmt.Fprint(stdout, rendered)
	if *timings {
		fmt.Fprintf(stdout, "[grid in %v]\n", time.Since(t0).Round(time.Millisecond))
	}
	if *jsonDir != "" {
		if err := writeJSON(*jsonDir, "compare", c); err != nil {
			return err
		}
	}
	if *reportDir != "" || *archiveDir != "" {
		results := map[string]string{"compare": oslayout.Digest(rendered)}
		m, err := buildManifest("oslayout compare "+strings.Join(args, " "), fs, env, rec, results)
		if err != nil {
			return err
		}
		if *reportDir != "" {
			if err := m.Write(*reportDir); err != nil {
				return err
			}
		}
		dir := *archiveDir
		if dir == "" {
			dir = filepath.Join(*reportDir, "archive")
		}
		return archiveRecord(dir, &runstore.Record{Kind: "report", Manifest: *m, Cells: serve.CompareCells(c)}, stderr)
	}
	return nil
}

// buildManifest assembles the run manifest: the effective flag values, the
// recorder's phase timings and counters, the digest of every rendered
// result, the conflict attribution of each workload replayed under the Base
// layout at the reference cache organisation, and the run's provenance.
// The caller writes it (-report) and/or archives it (-archive).
func buildManifest(command string, fs *flag.FlagSet, env *expt.Env, rec *oslayout.Recorder, results map[string]string) (*obs.Manifest, error) {
	flags := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	seed, _ := strconv.ParseInt(flags["seed"], 10, 64)
	if seed == 0 {
		seed = oslayout.DefaultKernelConfig().Seed
	}
	refs, _ := serve.ParseRefs(flags["refs"])
	conflicts, err := conflictReports(env, rec)
	if err != nil {
		return nil, err
	}
	return &obs.Manifest{
		Command:            command,
		Flags:              flags,
		Seed:               seed,
		Refs:               refs,
		Phases:             rec.Phases(),
		Counters:           rec.Counters(),
		ReplayEventsPerSec: rec.EventsPerSec(),
		Results:            results,
		Conflicts:          conflicts,
		Provenance:         obs.CollectProvenance(),
	}, nil
}

// conflictReports replays every workload under the kernel's Base layout at
// the reference cache with a SimStats observer attached: the manifest's
// per-set conflict histograms, miss-rate time series and top conflicting
// routine pairs.
func conflictReports(env *expt.Env, rec *oslayout.Recorder) ([]obs.ConflictReport, error) {
	done := rec.Span("report.conflicts")
	defer done()
	base := env.Base()
	cfg := expt.DefaultCache
	resolver := obs.NewLineResolver(cfg.Line, base)
	resolve := func(line uint64) string {
		if line*uint64(cfg.Line) >= simulate.AppBase {
			return "app"
		}
		return resolver.Owner(line)
	}
	var reps []obs.ConflictReport
	for i, d := range env.St.Data {
		s := oslayout.NewSimStats(0)
		res, err := env.EvalMany(i, []oslayout.Group{{OS: base, Configs: []oslayout.CacheConfig{cfg}}}, []obs.Observer{s}, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, obs.NewConflictReport(d.Workload.Name, base.Name, s, res[0].Stats.MissRate(), resolve, 8))
	}
	return reps, nil
}

// streamMode maps the -stream flag to a study stream mode: the bare flag
// forces the constant-memory pipeline, its absence lets the study pick by
// projected footprint.
func streamMode(force bool) oslayout.StreamMode {
	if force {
		return oslayout.StreamOn
	}
	return oslayout.StreamAuto
}

// splitList splits a comma-separated list, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseSizes parses a comma-separated cache-size list: plain byte counts,
// k/K-suffixed kilobytes or m/M-suffixed megabytes ("4k,8192,1M"). The
// element syntax is shared with the serve job specs.
func parseSizes(s string) ([]int, error) {
	return serve.ParseSizes(splitList(s))
}

// writeJSON stores one experiment's result struct as indented JSON, the
// machine-readable counterpart of the rendered table.
func writeJSON(dir, name string, r expt.Renderer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: marshalling: %w", name, err)
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// printStats summarises the study: the kernel image and each workload's
// trace and profile. Each workload's executed-code figures read its own
// profile's weights, applied under the study's strategy-cache lock.
func printStats(env *expt.Env, w io.Writer) {
	k := env.St.Kernel.Prog
	fmt.Fprintf(w, "==== stats ====\n")
	fmt.Fprintf(w, "kernel: %d routines, %d basic blocks, %d KB code, %d dispatch points\n",
		k.NumRoutines(), k.NumBlocks(), k.CodeSize()>>10, k.NumDispatch)
	for _, d := range env.St.Data {
		osRefs, appRefs := d.Trace.Refs()
		var execBytes int64
		var execRoutines int
		if err := env.St.WithProfile(d.OSProfile, func(k *oslayout.Program) error {
			execBytes, execRoutines = k.ExecutedCodeSize(), k.ExecutedRoutines()
			return nil
		}); err != nil {
			fmt.Fprintf(w, "%s: profile error: %v\n", d.Workload.Name, err)
			continue
		}
		fmt.Fprintf(w, "%-12s %9d events, OS refs %9d, app refs %9d, invocations %6d, executed %6d B (%.1f%%), %3d routines\n",
			d.Workload.Name, d.Trace.NumEvents(), osRefs, appRefs,
			d.OSProfile.TotalInvocations(),
			execBytes, 100*float64(execBytes)/float64(k.CodeSize()),
			execRoutines)
	}
	fmt.Fprintln(w)
}

// dumpAllTraces writes each workload's trace in the binary format to dir.
func dumpAllTraces(env *expt.Env, dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range env.St.Data {
		name := strings.ReplaceAll(d.Workload.Name, "/", "_") + ".trace"
		path := filepath.Join(dir, name)
		// Write via a temporary name and rename into place, so an aborted
		// run never leaves a truncated trace under the final name.
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		n, err := d.Trace.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
			return fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Fprintf(w, "[wrote %s: %d events, %d bytes]\n", path, d.Trace.NumEvents(), n)
	}
	return nil
}
