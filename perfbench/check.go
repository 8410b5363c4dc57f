package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// goldenJSON holds the SHA-256 digests of every rendered output of every
// workload at the default seed, keyed by goldenKey; regenerate it with
// --write-golden after a change that is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

// goldenTable maps goldenKey(workload, refs) to output name to digest.
type goldenTable map[string]map[string]string

func goldenKey(workload string, refs uint64) string {
	return fmt.Sprintf("%s/seed=%d/refs=%d", workload, defaultSeed, refs)
}

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding golden.json: %w", err)
	}
	return g, nil
}

// checker counts attempted and failed operations. An operation fails when
// it errors or when any of its output digests differs from the expected
// one: the golden digest at the default seed, and otherwise the digest the
// same output had the first time the run produced it — which is how the
// cross-path identities (warm ≡ cold, fleet ≡ in-process, streamed ≡
// materialised) are enforced on every seed.
type checker struct {
	golden    map[string]string
	seen      map[string]string
	attempted int
	failed    int
	logf      func(format string, args ...any)
}

func newChecker(workload string, cfg config) *checker {
	c := &checker{seen: make(map[string]string), logf: cfg.logf}
	if cfg.seed == defaultSeed {
		c.golden = cfg.golden[goldenKey(workload, cfg.refs)]
	}
	return c
}

// op accounts one operation with its output digests. It returns whether the
// operation completed: one whose outputs mismatch still did its work, so
// its timing counts while the mismatch counts as a failure.
func (c *checker) op(what string, outputs map[string]string, err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		c.logf("%s failed: %v", what, err)
		return false
	}
	ok := true
	for _, name := range sortedKeys(outputs) {
		got := outputs[name]
		want, have := c.golden[name]
		if !have {
			want, have = c.seen[name]
		}
		if !have {
			c.seen[name] = got
			continue
		}
		if got != want {
			ok = false
			c.logf("%s: output %s has digest %.12s, want %.12s", what, name, got, want)
		}
	}
	if !ok {
		c.failed++
	}
	return true
}

// recordGolden runs every workload once at the default seed, at its
// benchmark and its self-test reference counts, and writes the digests.
func recordGolden(path string, logf func(string, ...any)) error {
	g := goldenTable{}
	for _, w := range workloads {
		for _, refs := range []uint64{w.refs, w.testRefs} {
			cfg := config{seed: defaultSeed, refs: refs, budget: time.Nanosecond, logf: logf}
			res, r, err := executeRun(w, cfg, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s at %d refs: cross-path identities failed", w.name, refs)
			}
			g[goldenKey(w.name, refs)] = r.chk.seen
			logf("recorded %d digests for %s at %d refs", len(r.chk.seen), w.name, refs)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
