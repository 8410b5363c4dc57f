package expt

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"oslayout"
	"oslayout/internal/obs"
)

// update rewrites testdata/outputs.golden from the current code. Use it
// only for a change that is meant to move a rendered result, and say why in
// the change log:
//
//	go test ./internal/expt -run TestOutputsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/outputs.golden")

const outputsGoldenFile = "testdata/outputs.golden"

// outputsGoldenRefs keeps the golden studies small: the digests pin what
// every experiment and compare mode computes, not statistical fidelity.
const outputsGoldenRefs = 60_000

// outputsGoldenSeeds are the kernels whose experiment renderings are
// pinned: the default kernel and one other seed.
var outputsGoldenSeeds = []int64{oslayout.DefaultKernelConfig().Seed, 7}

// compareGoldenModes are the compare subcommand's grid modes, each over
// the CLI's default strategies and sizes. The name spells the CLI flags
// that select the mode.
var compareGoldenModes = []struct {
	name        string
	line, assoc int
	opt         CompareOptions
}{
	{"plain", 32, 1, CompareOptions{}},
	{"-assoc 2", 32, 2, CompareOptions{}},
	{"-line 4", 4, 1, CompareOptions{}},
	{"-line 256 -assoc 2", 256, 2, CompareOptions{}},
	{"-detail", 32, 1, CompareOptions{Detail: true}},
	{"-cpus 4", 32, 1, CompareOptions{CPUs: 4}},
	{"-cpus 4 -private", 32, 1, CompareOptions{CPUs: 4, Private: true}},
	{"-assoc 4 -partition static", 32, 4, CompareOptions{Partition: "static"}},
	{"-assoc 4 -partition interval", 32, 4, CompareOptions{Partition: "interval"}},
	{"-assoc 4 -partition missdriven", 32, 4, CompareOptions{Partition: "missdriven"}},
}

// TestOutputsGolden is the output contract: the rendering of every
// registered experiment on two kernels, and of every compare mode, must
// match the SHA-256 digests recorded in testdata/outputs.golden. Each
// compare mode runs three ways — materialised at Par 1, materialised at
// Par 4 and streamed at a small chunk — and all three must agree before
// their digest is checked. A second environment on the default kernel's
// study (Options.Study, as the serve daemon pools studies) runs the
// registry in reverse, concurrently with the forward pass, and must match
// the same golden lines: no experiment may see weights another left
// applied.
func TestOutputsGolden(t *testing.T) {
	var keys []string
	got := map[string]string{}
	add := func(key, sum string) {
		keys = append(keys, key)
		got[key] = sum
	}
	// Every pass below runs on an Env of its own, so the six passes run
	// concurrently.
	var wg sync.WaitGroup
	start := func(what string, opt Options, pass func(e *Env) ([]string, error), out *[]string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt.OSRefs = outputsGoldenRefs
			e, err := NewEnv(opt)
			if err == nil {
				*out, err = pass(e)
			}
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}()
	}
	names := Names()
	// runNames renders the registry in order, or in reverse, and returns
	// the digests in registry order.
	runNames := func(e *Env, reverse bool) ([]string, error) {
		sums := make([]string, len(names))
		for k := range names {
			j := k
			if reverse {
				j = len(names) - 1 - k
			}
			r, err := Run(e, names[j])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[j], err)
			}
			sums[j] = obs.Digest(r.Render())
		}
		return sums, nil
	}
	exptSums := make([][]string, len(outputsGoldenSeeds))
	var sharedSums []string
	for k, seed := range outputsGoldenSeeds {
		start(fmt.Sprintf("seed=%d", seed), Options{KernelSeed: seed}, func(e *Env) ([]string, error) {
			if k == 0 {
				start("shared study, reversed", Options{Study: e.St}, func(e *Env) ([]string, error) {
					return runNames(e, true)
				}, &sharedSums)
			}
			return runNames(e, false)
		}, &exptSums[k])
	}
	runs := []struct {
		name string
		opt  Options
	}{
		{"par=1", Options{Par: 1, Stream: oslayout.StreamOff}},
		{"par=4", Options{Par: 4, Stream: oslayout.StreamOff}},
		{"streamed", Options{Stream: oslayout.StreamOn, ChunkEvents: 4 << 10}},
	}
	strategies := []string{"base", "ch", "ph", "opts"}
	sizes := []int{4 << 10, 8 << 10, 16 << 10}
	cmpSums := make([][]string, len(runs))
	for k, run := range runs {
		start(run.name, run.opt, func(e *Env) ([]string, error) {
			var sums []string
			for _, m := range compareGoldenModes {
				c, err := e.RunCompareOpts(strategies, sizes, m.line, m.assoc, m.opt)
				if err != nil {
					return nil, fmt.Errorf("compare %s: %w", m.name, err)
				}
				sums = append(sums, obs.Digest(c.Render()))
			}
			return sums, nil
		}, &cmpSums[k])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for k, seed := range outputsGoldenSeeds {
		for j, name := range names {
			add(fmt.Sprintf("seed=%d/%s", seed, name), exptSums[k][j])
		}
	}
	for j, m := range compareGoldenModes {
		for k := 1; k < len(runs); k++ {
			if cmpSums[k][j] != cmpSums[0][j] {
				t.Errorf("compare %s: %s digest %s, %s digest %s", m.name, runs[k].name, cmpSums[k][j], runs[0].name, cmpSums[0][j])
			}
		}
		add("compare/"+strings.ReplaceAll(m.name, " ", "_"), cmpSums[0][j])
	}

	if *update {
		var sb strings.Builder
		sb.WriteString("# SHA-256 digests of every experiment and compare mode rendering; see outputs_golden_test.go.\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(outputsGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outputsGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), outputsGoldenFile)
		return
	}

	want := readOutputsGolden(t)
	for j, name := range names {
		key := fmt.Sprintf("seed=%d/%s", outputsGoldenSeeds[0], name)
		if w := want[key]; sharedSums[j] != w {
			t.Errorf("%s on a shared study, run in reverse: digest %s, golden %s", key, sharedSums[j], w)
		}
	}
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: not in %s", k, outputsGoldenFile)
		case w != got[k]:
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("%s: in %s but not produced", k, outputsGoldenFile)
	}
}

// readOutputsGolden parses "key digest" lines, skipping comments.
func readOutputsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(outputsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", outputsGoldenFile, line)
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
