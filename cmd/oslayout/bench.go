package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"oslayout/internal/obs"
	"oslayout/internal/runstore"
)

// benchLine is either line perfbench prints per run: the provenance line,
// whose toolchain, platform and GOMAXPROCS fill obs.Provenance, or the result.
type benchLine struct {
	Provenance *struct {
		obs.Provenance
		Workload string `json:"workload"`
	} `json:"provenance"`
	Correct *bool `json:"correct"`
	Failed  int   `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runBench executes the bench subcommand: it summarises each
// <workload>/<metric> of the perfbench runs on stdin, in the unit and
// direction that BENCHMARK.json (in the working directory, the repository
// root) gives it, and with -dir archives the summaries as one "bench"
// record. A failed run, a line out of order, an unlisted metric, or runs on
// different toolchains, platforms or GOMAXPROCS refuse the whole input.
func runBench(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oslayout bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "run archive directory to append the summaries to as one bench record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("bench takes no positional arguments (got %v)", fs.Args())
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("bench: %w (run it from the repository root)", err)
	}
	// A listed metric decodes as an empty sample: name, unit and direction.
	var listed struct {
		EndToEnd []runstore.BenchSample `json:"end_to_end"`
		PerLayer []runstore.BenchSample `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &listed); err != nil {
		return fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	metrics := map[string]runstore.BenchSample{}
	for _, m := range append(listed.EndToEnd, listed.PerLayer...) {
		metrics[m.Name] = m
	}
	samples := map[string]*runstore.BenchSample{}
	var host *obs.Provenance
	var run *benchLine // the run whose provenance line awaits its result
	dec := json.NewDecoder(stdin)
	for n := 1; ; n++ { // perfbench prints one JSON value per line
		var l benchLine
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("bench: line %d: %w", n, err)
		}
		switch {
		case l.Provenance != nil && run == nil:
			if host == nil {
				host = &l.Provenance.Provenance
			} else if ok, note := host.ComparableTo(&l.Provenance.Provenance); !ok {
				return fmt.Errorf("bench: line %d: runs disagree: %s", n, note)
			}
			run = &l
		case l.Correct == nil || run == nil:
			return fmt.Errorf("bench: line %d: want each run's provenance line, then its result line", n)
		case !*l.Correct || l.Failed > 0:
			return fmt.Errorf("bench: line %d: the %s run failed (correct %v, failed %d)", n, run.Provenance.Workload, *l.Correct, l.Failed)
		default:
			for name, m := range l.Metrics {
				spec, ok := metrics[name]
				if !ok {
					return fmt.Errorf("bench: line %d: metric %q is not in BENCHMARK.json", n, name)
				}
				key := run.Provenance.Workload + "/" + name
				if samples[key] == nil {
					samples[key] = &runstore.BenchSample{Name: key, Unit: spec.Unit, Better: spec.Better}
				}
				samples[key].Values = append(samples[key].Values, m.Value)
			}
			run = nil
		}
	}
	if run != nil || host == nil {
		return fmt.Errorf("bench: stdin does not end with a complete perfbench run")
	}
	cmd := strings.Join(append([]string{"oslayout", "bench"}, args...), " ")
	rec := &runstore.Record{Kind: "bench", Manifest: obs.Manifest{Command: cmd, Provenance: host}}
	for _, s := range samples {
		s.Summarize()
		rec.Bench = append(rec.Bench, *s)
	}
	sort.Slice(rec.Bench, func(i, j int) bool { return rec.Bench[i].Name < rec.Bench[j].Name })
	for _, s := range rec.Bench {
		fmt.Fprintf(stdout, "%-40s n=%d median %.4g  min %.4g  max %.4g %s (%s is better)\n", s.Name, s.N, s.Median, s.Min, s.Max, s.Unit, s.Better)
	}
	if *dir == "" {
		return nil
	}
	local := obs.CollectProvenance() // the runs' toolchain and GOMAXPROCS, this host
	host.Hostname, host.NumCPU, host.Git = local.Hostname, local.NumCPU, local.Git
	return archiveRecord(*dir, rec, stderr)
}
