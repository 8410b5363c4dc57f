package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// tinyConfig runs a workload at its self-test reference count with the
// smallest budget: one pass, job cycle or round of each kind.
func tinyConfig(t *testing.T, w *spec) config {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: defaultSeed, refs: w.testRefs, budget: time.Nanosecond, golden: golden, logf: t.Logf}
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json at tiny refs,
// untraced and traced, and checks that its output is correct against the
// golden digests and carries exactly the metrics BENCHMARK.json names,
// each with its unit; end-to-end metrics must also never read 0.
func TestEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, bw := range b.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, _, err := executeRun(w, tinyConfig(t, w), traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): metric %s not printed", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s (traced=%v): metric %s has unit %q, want %q", w.name, traced, name, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s reads %v", w.name, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (traced=%v): metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

// TestPerturbedGoldenFails checks that a golden digest that does not match
// the output counts as a failed operation.
func TestPerturbedGoldenFails(t *testing.T) {
	w := gridWorkload
	cfg := tinyConfig(t, w)
	key := goldenKey(w.name, w.testRefs)
	if _, ok := cfg.golden[key]["compare"]; !ok {
		t.Fatalf("golden.json has no compare digest under %s", key)
	}
	// Every kernel the run cycles through has its own digest; perturb all.
	perturbed := map[string]string{}
	for name, want := range cfg.golden[key] {
		perturbed[name] = strings.Repeat("0", len(want))
	}
	if len(perturbed) != gridRounds {
		t.Fatalf("golden.json has %d grid digests under %s, want one per kernel (%d)", len(perturbed), key, gridRounds)
	}
	cfg.golden = goldenTable{key: perturbed}
	res, _, err := executeRun(w, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed golden digest: correct=%v failed=%d of %d, want failures", res.Correct, res.Failed, res.Attempted)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac != 1 {
		t.Errorf("failed fraction %v, want 1: every grid pass renders the perturbed output", frac)
	}
}

// TestResultLine checks the command-line output format: the last line of
// standard output is one JSON object with exactly the four result keys,
// and a bad invocation exits non-zero without one.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := mainErr([]string{"--workload", "nosuch"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {0.5, "s"}}}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly four", keys)
	}
}
