package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oslayout/internal/expt"
)

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig12", "xprofile"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"fig99"}, &out, &errb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunNoArgs(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Fatal("missing experiment accepted")
	}
	if !strings.Contains(errb.String(), "usage") {
		t.Error("usage not printed")
	}
}

func TestRunStatsAndExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-refs", "150000", "-time", "stats", "table1"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"==== stats ====", "kernel:", "==== table1 ====", "Executed OS Code", "[study built"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestStatsDoesNotPerturbExperiments is the regression test for the profile
// state leak: printStats used to walk the per-workload profiles and leave
// the last one applied, so experiments rendered after `stats` on the same
// command line saw different kernel weights than they would alone.
func TestStatsDoesNotPerturbExperiments(t *testing.T) {
	var alone, combined, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "table1"}, &alone, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-refs", "120000", "stats", "table1"}, &combined, &errb); err != nil {
		t.Fatal(err)
	}
	const marker = "==== table1 ===="
	idx := strings.Index(combined.String(), marker)
	if idx < 0 {
		t.Fatal("combined run did not render table1")
	}
	if got := combined.String()[idx:]; got != alone.String() {
		t.Errorf("table1 after stats differs from table1 alone:\n--- alone ---\n%s--- after stats ---\n%s",
			alone.String(), got)
	}
}

// TestPrintStatsReadsWorkloadProfiles checks the mechanism directly: each
// workload's stats line reports the executed code of that workload's own
// profile, whatever an earlier build left in the kernel's weight fields.
func TestPrintStatsReadsWorkloadProfiles(t *testing.T) {
	env, err := expt.NewEnv(expt.Options{OSRefs: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// An OptS build leaves the averaged profile applied.
	if _, err := env.Plan("opts", 8<<10); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printStats(env, &out)
	k := env.St.Kernel.Prog
	seen := map[int64]bool{}
	for _, d := range env.St.Data {
		var want int64
		for b, n := range d.OSProfile.Block {
			if n > 0 {
				want += int64(k.Blocks[b].Size)
			}
		}
		seen[want] = true
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == d.Workload.Name {
				found = strings.Contains(line, fmt.Sprintf("executed %6d B", want))
			}
		}
		if !found {
			t.Errorf("%s: stats do not report the profile's %d executed bytes:\n%s", d.Workload.Name, want, out.String())
		}
	}
	if len(seen) < 2 {
		t.Fatal("every workload executes the same bytes; the check cannot tell profiles apart")
	}
}

// TestRunSubcommandRouting: subcommand words mixed into an experiment list
// must be rejected with a routing error, not "unknown experiment".
func TestRunSubcommandRouting(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stats", "list"}, "only argument"},
		{[]string{"list", "table1"}, "only argument"},
		{[]string{"table1", "strategies"}, "only argument"},
		{[]string{"-refs", "100000", "compare"}, "compare"},
		{[]string{"table1", "compare"}, "must come first"},
	} {
		var out, errb bytes.Buffer
		err := run(tc.args, &out, &errb)
		if err == nil {
			t.Errorf("args %v accepted, want routing error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"4k", []int{4 << 10}},
		{"8192", []int{8192}},
		{"1m", []int{1 << 20}},
		{"2M,4k", []int{2 << 20, 4 << 10}},
	} {
		got, err := parseSizes(tc.in)
		if err != nil {
			t.Errorf("parseSizes(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseSizes(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
	for _, in := range []string{"0", "-4k", "4q", "", "99999999999999m", "9999999999999999999"} {
		if _, err := parseSizes(in); err == nil {
			t.Errorf("parseSizes(%q) accepted, want error", in)
		}
	}
}

func TestRunDumpTraces(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	err := run([]string{"-refs", "100000", "-dumptraces", dir, "stats"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("wrote %d trace files, want 4", len(entries))
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < 1000 {
			t.Errorf("trace file %s suspiciously small (%d bytes)", e.Name(), fi.Size())
		}
		if filepath.Ext(e.Name()) != ".trace" {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

// TestRunStreamFlagsBitIdentical drives the streaming flags end to end:
// `-refs 120k` must parse as 122880, and forcing `-stream` with a small
// `-chunk` must render the experiment byte-identically to the default
// materialised run.
func TestRunStreamFlagsBitIdentical(t *testing.T) {
	var mat, str, errb bytes.Buffer
	if err := run([]string{"-refs", "122880", "table1"}, &mat, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	if err := run([]string{"-refs", "120k", "-stream", "-chunk", "8192", "table1"}, &str, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	if mat.String() != str.String() {
		t.Error("streamed CLI run differs from materialised run")
	}
}

func TestRunBadRefs(t *testing.T) {
	for _, bad := range []string{"", "0", "-5", "3q", "99999999999999999999g"} {
		var out, errb bytes.Buffer
		if err := run([]string{"-refs", bad, "table1"}, &out, &errb); err == nil {
			t.Errorf("-refs %q accepted, want error", bad)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-nonsense"}, &out, &errb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunAllExperiments drives every registered experiment through the CLI
// end to end with a short trace — the smoke test for `oslayout all`.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-refs", "200000", "all"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{
		"==== table1 ====", "==== table4 ====", "==== fig12 ====",
		"==== fig18 ====", "==== xprofile ====", "==== fragments ====",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunStrategies(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"strategies"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"base", "ch", "mcf", "ph", "shuffle", "opts", "optl", "optcall"} {
		if !strings.Contains(s, want) {
			t.Errorf("strategies output missing %q", want)
		}
	}
	if !strings.Contains(s, "per cache size") || !strings.Contains(s, "size-independent") {
		t.Error("strategies output missing size-dependence annotations")
	}
}

// TestRunCompare drives the compare subcommand end to end: four strategies
// over three cache sizes on a short trace, with text and JSON output.
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	err := run([]string{"compare", "-refs", "100000",
		"-strategies", "base,ch,ph,opts", "-sizes", "4k,8k,16k", "-json", dir},
		&out, &errb)
	if err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Strategy comparison", "4KB", "8KB", "16KB", "base", "ph", "opts", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("compare output missing %q", want)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "compare.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Strategies []string
		Sizes      []int
		Workloads  []string
		Rates      [][][]float64
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("compare.json: invalid JSON: %v", err)
	}
	if len(decoded.Strategies) != 4 || len(decoded.Sizes) != 3 {
		t.Fatalf("compare.json grid %dx%d, want 4 strategies x 3 sizes",
			len(decoded.Strategies), len(decoded.Sizes))
	}
	if len(decoded.Rates) != 3 || len(decoded.Rates[0]) != len(decoded.Workloads) {
		t.Fatalf("compare.json rates shape wrong")
	}
	for si := range decoded.Rates {
		for wi := range decoded.Rates[si] {
			for k, v := range decoded.Rates[si][wi] {
				if v <= 0 || v >= 1 {
					t.Errorf("rate[%d][%d][%d] = %v out of (0,1)", si, wi, k, v)
				}
			}
		}
	}
}

// TestRunReportManifest drives the -report flag end to end and checks the
// manifest has the keys downstream tooling relies on: phase timings, result
// digests, and per-set conflict histograms.
func TestRunReportManifest(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "-report", dir, "table1", "stats"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command string            `json:"command"`
		Flags   map[string]string `json:"flags"`
		Seed    int64             `json:"seed"`
		Refs    uint64            `json:"refs"`
		Phases  []struct {
			Name   string  `json:"name"`
			Millis float64 `json:"ms"`
		} `json:"phases"`
		Counters           map[string]uint64 `json:"counters"`
		ReplayEventsPerSec float64           `json:"replay_events_per_sec"`
		Results            map[string]string `json:"results"`
		Conflicts          []struct {
			Workload  string   `json:"workload"`
			SetMisses []uint64 `json:"set_misses"`
			Windows   []struct {
				Refs   uint64 `json:"refs"`
				Misses uint64 `json:"misses"`
			} `json:"windows"`
			TopPairs []struct {
				Victim  string `json:"victim"`
				Evictor string `json:"evictor"`
				Count   uint64 `json:"count"`
			} `json:"top_pairs"`
		} `json:"conflicts"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if m.Seed != 1995 || m.Refs != 120000 {
		t.Errorf("manifest seed/refs = %d/%d, want 1995/120000", m.Seed, m.Refs)
	}
	if !strings.Contains(m.Command, "table1") || m.Flags["refs"] != "120000" {
		t.Errorf("manifest command/flags wrong: %q %v", m.Command, m.Flags)
	}
	for _, res := range []string{"table1", "stats"} {
		if len(m.Results[res]) != 64 {
			t.Errorf("manifest missing %s result digest", res)
		}
	}
	phase := map[string]bool{}
	for _, p := range m.Phases {
		phase[p.Name] = true
	}
	for _, want := range []string{"study.build", "kernel.synthesis", "layout.base", "report.conflicts"} {
		if !phase[want] {
			t.Errorf("manifest phases missing %q (have %v)", want, m.Phases)
		}
	}
	if m.Counters["replay.events"] == 0 || m.ReplayEventsPerSec <= 0 {
		t.Errorf("manifest has no replay throughput: %v", m.Counters)
	}
	if len(m.Conflicts) != 4 {
		t.Fatalf("manifest has %d conflict reports, want one per workload", len(m.Conflicts))
	}
	for _, c := range m.Conflicts {
		var misses uint64
		for _, v := range c.SetMisses {
			misses += v
		}
		if len(c.SetMisses) == 0 || misses == 0 {
			t.Errorf("%s: empty per-set conflict histogram", c.Workload)
		}
		if len(c.Windows) == 0 {
			t.Errorf("%s: no miss-rate time series", c.Workload)
		}
		if len(c.TopPairs) == 0 || c.TopPairs[0].Victim == "" {
			t.Errorf("%s: top conflict pairs missing or unresolved", c.Workload)
		}
	}
}

// TestRunCompareDetail drives compare -detail with a manifest and checks the
// conflict attribution rendering.
func TestRunCompareDetail(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	err := run([]string{"compare", "-refs", "100000", "-detail",
		"-strategies", "base,opts", "-sizes", "4k", "-report", dir}, &out, &errb)
	if err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Conflict attribution", "cold", "self", "cross", "top4", "worst"} {
		if !strings.Contains(s, want) {
			t.Errorf("compare -detail output missing %q", want)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Results map[string]string `json:"results"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if len(m.Results["compare"]) != 64 {
		t.Error("compare manifest missing result digest")
	}
}

func TestRunCompareBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"compare", "-strategies", "nonesuch"},
		{"compare", "-sizes", "0"},
		{"compare", "-sizes", "4q"},
		{"compare", "-strategies", ","},
		{"compare", "positional"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "-json", dir, "table1", "table3"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.json", "table3.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("%s: invalid JSON: %v", name, err)
		}
		if len(decoded) == 0 {
			t.Fatalf("%s: empty object", name)
		}
	}
}

// TestRunReportNestedRelativeDir is the regression test for -report paths
// whose parent directories do not exist yet: the manifest write must create
// the whole chain (relative paths included) rather than fail at CreateTemp.
func TestRunReportNestedRelativeDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	rel := filepath.Join("out", "nested", "report")
	var out, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "-report", rel, "table1"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	if _, err := os.Stat(filepath.Join(rel, "manifest.json")); err != nil {
		t.Errorf("manifest not written under nested relative dir: %v", err)
	}
	leftovers, _ := filepath.Glob(filepath.Join(rel, "*.tmp"))
	if len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

// TestRunTraceExport checks the offline -trace flag: the file must be a
// valid Chrome trace_event JSON array covering the run's phases, and nested
// parent directories must be created.
func TestRunTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "trace.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "-trace", path, "table2"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr: %s", err, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		Ts    float64 `json:"ts"`
		Dur   float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	names := map[string]bool{}
	for _, e := range evs {
		if e.Phase != "X" && e.Phase != "M" {
			t.Errorf("unexpected event phase %q", e.Phase)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"study.build", "experiment.table2"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestRunArchiveRoundTrip drives the run archive end to end through the
// CLI: two identical runs archive two distinct records, the diff gate
// passes on the re-run, a seed perturbation makes the gate fail on digest
// drift, and `runs` lists all of it newest first.
func TestRunArchiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	for i := 0; i < 2; i++ {
		out.Reset()
		errb.Reset()
		if err := run([]string{"-refs", "120000", "-archive", dir, "table1"}, &out, &errb); err != nil {
			t.Fatalf("archived run %d: %v\nstderr: %s", i, err, errb.String())
		}
		if !strings.Contains(errb.String(), "[archived run ") {
			t.Fatalf("run %d printed no archive notice:\n%s", i, errb.String())
		}
	}

	// Same-commit re-run: identical digests, so the gate passes.
	out.Reset()
	if err := run([]string{"diff", "-dir", dir, "-gate", "latest~1", "latest"}, &out, &errb); err != nil {
		t.Fatalf("gate failed on identical re-run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verdict: pass") {
		t.Errorf("diff output missing pass verdict:\n%s", out.String())
	}

	// Perturbed run: a different kernel seed drifts every digest, which the
	// gate must catch regardless of timing noise.
	if err := run([]string{"-refs", "120000", "-seed", "7", "-archive", dir, "table1"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run([]string{"diff", "-dir", dir, "-gate", "latest~1", "latest"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "regression detected") {
		t.Fatalf("gate passed across digest drift: err = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "DRIFT") || !strings.Contains(out.String(), "verdict: REGRESSED") {
		t.Errorf("diff output missing drift report:\n%s", out.String())
	}

	// -json emits a decodable Diff.
	out.Reset()
	_ = run([]string{"diff", "-dir", dir, "-json", "latest~1", "latest"}, &out, &errb)
	var d struct {
		Regressed   bool `json:"regressed"`
		DigestDrift []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
		} `json:"digest_drift"`
	}
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatalf("diff -json invalid: %v\n%s", err, out.String())
	}
	if !d.Regressed || len(d.DigestDrift) == 0 {
		t.Errorf("diff -json = %+v, want regressed with drift", d)
	}

	// runs lists all three records newest first.
	out.Reset()
	if err := run([]string{"runs", "-dir", dir}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("runs listed %d records, want 3:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "-seed 7") {
		t.Errorf("newest record is not the perturbed run:\n%s", out.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, "report") || !strings.Contains(line, "table1") {
			t.Errorf("runs line missing kind or command: %q", line)
		}
	}
}

// TestRunArchiveStdoutBitIdentical: enabling archiving must not perturb the
// experiment's stdout — notices go to stderr.
func TestRunArchiveStdoutBitIdentical(t *testing.T) {
	var plain, archived, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "table1"}, &plain, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-refs", "120000", "-archive", t.TempDir(), "table1"}, &archived, &errb); err != nil {
		t.Fatal(err)
	}
	if plain.String() != archived.String() {
		t.Error("archiving changed the experiment's stdout")
	}
}

// TestRunReportDefaultsArchive: -report alone archives into <report>/archive.
func TestRunReportDefaultsArchive(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"-refs", "120000", "-report", dir, "table3"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"runs", "-dir", filepath.Join(dir, "archive")}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "archive is empty") || !strings.Contains(out.String(), "table3") {
		t.Errorf("-report did not archive into <report>/archive:\n%s", out.String())
	}
}

func TestRunDiffBenchBadInput(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"diff", "latest~1", "latest"},              // missing -dir
		{"diff", "-dir", dir, "latest"},             // one ref
		{"diff", "-dir", dir, "latest~1", "latest"}, // empty archive
		{"runs"},                            // missing -dir
		{"runs", "-dir", dir, "positional"}, // positional args
		{"bench", "-record"},                // unknown flag: -dir alone archives
		{"bench", "positional"},             // positional args
		{"table1", "diff"},                  // subcommand mixed into experiments
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestRunServeRouting checks the serve subcommand's arg handling without
// binding a socket.
func TestRunServeRouting(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"table1", "serve"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "must come first") {
		t.Errorf("serve mixed into experiments: err = %v, want routing error", err)
	}
	if err := run([]string{"serve", "positional"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "no positional arguments") {
		t.Errorf("serve with positional args: err = %v", err)
	}
	if err := run([]string{"serve", "-addr", "not-an-address"}, &out, &errb); err == nil {
		t.Error("serve accepted an unparseable listen address")
	}
}
