package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oslayout/internal/runstore"
)

// inRepoRoot moves the test to the repository root, where bench reads
// BENCHMARK.json, and returns the path it left, this package's directory.
func inRepoRoot(t *testing.T) string {
	t.Helper()
	pkg, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(pkg, "..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(pkg) })
	return pkg
}

// perfbenchRun renders one run as perfbench prints it: the provenance line,
// then the result line with the given metric values.
func perfbenchRun(t *testing.T, workload string, correct bool, failed int, gomaxprocs int, values map[string]float64) string {
	t.Helper()
	metrics := map[string]any{}
	for name, v := range values {
		metrics[name] = map[string]any{"value": v, "unit": "s"}
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, line := range []any{
		map[string]any{"provenance": map[string]any{
			"workload": workload, "seed": 1995, "trace": false, "nproc": 2, "gomaxprocs": gomaxprocs,
			"go_version": "go1.24.0", "goos": "linux", "goarch": "amd64",
		}},
		map[string]any{"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics},
	} {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// benchInto runs bench on input with -dir dir.
func benchInto(dir, input string) (string, error) {
	var out, errb bytes.Buffer
	err := runBench([]string{"-dir", dir}, strings.NewReader(input), &out, &errb)
	return out.String() + errb.String(), err
}

// TestRunBenchRecord feeds bench two real untraced grid runs and a traced
// one, as perfbench printed them, and checks the one bench record it
// archives: every sample's count, summary, unit and direction.
func TestRunBenchRecord(t *testing.T) {
	pkg := inRepoRoot(t)
	input, err := os.ReadFile(filepath.Join(pkg, "testdata", "perfbench_grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []runstore.BenchSample `json:"end_to_end"`
		PerLayer []runstore.BenchSample `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if out, err := benchInto(dir, string(input)); err != nil {
		t.Fatalf("%v\n%s", err, out)
	} else if !strings.Contains(out, "grid/mrefs_per_cpu_s") || !strings.Contains(out, "[archived run ") {
		t.Errorf("bench printed no summary or archive notice:\n%s", out)
	}
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil || len(entries) != 1 || entries[0].Kind != "bench" {
		t.Fatalf("archive holds %+v (%v), want one bench record", entries, err)
	}
	rec, err := store.Get("latest")
	if err != nil {
		t.Fatal(err)
	}
	if p := rec.Manifest.Provenance; p == nil || p.GoVersion != "go1.24.0" || p.GOMAXPROCS != 2 {
		t.Errorf("record provenance %+v, want the runs' toolchain and GOMAXPROCS", p)
	}
	got := map[string]runstore.BenchSample{}
	for _, s := range rec.Bench {
		got[s.Name] = s
	}
	for _, list := range []struct {
		metrics []runstore.BenchSample
		n       int
	}{{bm.EndToEnd, 2}, {bm.PerLayer, 1}} {
		for _, m := range list.metrics {
			s, ok := got["grid/"+m.Name]
			switch {
			case !ok:
				t.Errorf("no sample grid/%s", m.Name)
			case s.N != list.n || len(s.Values) != list.n:
				t.Errorf("grid/%s has N=%d and %d values, want %d", m.Name, s.N, len(s.Values), list.n)
			case s.Unit != m.Unit || s.Better != m.Better:
				t.Errorf("grid/%s is in %q, %s is better; BENCHMARK.json says %q, %s", m.Name, s.Unit, s.Better, m.Unit, m.Better)
			case s.Min != slices.Min(s.Values) || s.Max != slices.Max(s.Values) || s.Median != (s.Min+s.Max)/2:
				// The median of one or two values is the mean of their extremes.
				t.Errorf("grid/%s summary min %v median %v max %v of %v", m.Name, s.Min, s.Median, s.Max, s.Values)
			}
		}
	}
	if len(got) != len(bm.EndToEnd)+len(bm.PerLayer) {
		t.Errorf("record holds %d samples, want %d", len(got), len(bm.EndToEnd)+len(bm.PerLayer))
	}
}

// TestRunBenchRefusesBadInput checks that each kind of bad input refuses
// the whole input and archives nothing, though a good run precedes it.
func TestRunBenchRefusesBadInput(t *testing.T) {
	inRepoRoot(t)
	good := perfbenchRun(t, "grid", true, 0, 2, map[string]float64{"cold_cpu_s": 1})
	resultOnly := good[strings.Index(good, "\n")+1:]
	provOnly := good[:strings.Index(good, "\n")+1]
	for name, input := range map[string]string{
		"not correct":          perfbenchRun(t, "grid", false, 0, 2, map[string]float64{"cold_cpu_s": 1}),
		"failed operations":    perfbenchRun(t, "grid", true, 1, 2, map[string]float64{"cold_cpu_s": 1}),
		"no provenance":        resultOnly,
		"provenance twice":     provOnly + good,
		"no result at the end": provOnly,
		"unlisted metric":      perfbenchRun(t, "grid", true, 0, 2, map[string]float64{"cold_wall_s": 1}),
		"other GOMAXPROCS":     perfbenchRun(t, "paper", true, 0, 1, map[string]float64{"cold_cpu_s": 1}),
		"other toolchain":      strings.Replace(good, "go1.24.0", "go1.23.4", 1),
		"other platform":       strings.Replace(good, `"goarch":"amd64"`, `"goarch":"arm64"`, 1),
		"not a perfbench line": `{"wall":{"p50_s":1}}` + "\n",
		"not JSON":             "ok\n",
		"empty":                "",
	} {
		dir := t.TempDir()
		input = good + input
		if name == "empty" {
			input = ""
		}
		if out, err := benchInto(dir, input); err == nil {
			t.Errorf("%s: bench accepted it:\n%s", name, out)
		}
		if _, err := os.Stat(filepath.Join(dir, "index.jsonl")); !os.IsNotExist(err) {
			t.Errorf("%s: bench archived a record", name)
		}
	}
}

// TestRunBenchDiffGate archives bench records from canned runs and checks
// that diff -gate passes the same runs and fails a metric that moves
// beyond the band the way BENCHMARK.json calls worse, in either direction.
// The same runs come in another order: identical input archived within one
// second is one record, with no previous record to diff against.
func TestRunBenchDiffGate(t *testing.T) {
	inRepoRoot(t)
	runs := func(cold, mrefs []float64) string {
		var s string
		for i := range cold {
			s += perfbenchRun(t, "grid", true, 0, 2, map[string]float64{"cold_cpu_s": cold[i], "mrefs_per_cpu_s": mrefs[i]})
		}
		return s
	}
	// Bands: cold_cpu_s max(3 x 0.04, 10% of 1.02) = 0.12 s; mrefs_per_cpu_s
	// max(3 x 10, 10% of 505) = 50.5 Mref/cpu-s.
	base := runs([]float64{1.00, 1.02, 1.04}, []float64{500, 505, 510})
	for _, c := range []struct {
		name      string
		candidate string
		regressed bool
	}{
		{"same runs", runs([]float64{1.04, 1.00, 1.02}, []float64{510, 500, 505}), false},
		{"mrefs falls beyond the band", runs([]float64{1.00, 1.02, 1.04}, []float64{400, 405, 410}), true},
		{"cold rises beyond the band", runs([]float64{1.50, 1.52, 1.54}, []float64{500, 505, 510}), true},
		{"mrefs rises, cold falls", runs([]float64{0.50, 0.52, 0.54}, []float64{900, 905, 910}), false},
		{"inside both bands", runs([]float64{1.08, 1.10, 1.12}, []float64{460, 465, 470}), false},
	} {
		dir := t.TempDir()
		for _, input := range []string{base, c.candidate} {
			if out, err := benchInto(dir, input); err != nil {
				t.Fatalf("%s: %v\n%s", c.name, err, out)
			}
		}
		var out, errb bytes.Buffer
		err := run([]string{"diff", "-dir", dir, "-gate", "latest~1", "latest"}, &out, &errb)
		if regressed := err != nil; regressed != c.regressed {
			t.Errorf("%s: gate regressed=%v (%v), want %v\n%s", c.name, regressed, err, c.regressed, out.String())
		}
	}
}
