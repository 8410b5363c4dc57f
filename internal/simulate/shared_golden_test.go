package simulate

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// update rewrites testdata/shared_books.golden from the current code. Use
// it only for a change that is meant to move a shared-cache result, and say
// why in the change log:
//
//	go test ./internal/simulate -run TestSharedBooksGolden -update
var update = flag.Bool("update", false, "rewrite testdata/shared_books.golden")

const sharedBooksGoldenFile = "testdata/shared_books.golden"

// sharedBooksDigest hashes the little-endian encoding of one shared result:
// its cache stats, the per-CPU books and the independent eviction count.
func sharedBooksDigest(r *SharedResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	st := &r.Stats
	for _, a := range [][trace.NumDomains]uint64{st.Refs, st.Misses, st.Cold, st.Self, st.Cross} {
		put(a[:]...)
	}
	for cpu := 0; cpu < r.CPU.NumCPUs; cpu++ {
		put(r.CPU.Refs[cpu][:]...)
		put(r.CPU.Misses[cpu][:]...)
		put(r.CPU.Evictions[cpu]...)
		put(r.CPU.SharedHits[cpu][:]...)
	}
	put(r.Evictions)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSharedBooksGolden pins what the shared-cache replay computes, per-CPU
// books included, against testdata/shared_books.golden. Two 3-CPU traces
// run: the mixed test trace under a synthetic schedule, and a merged trace
// of the default kernel (its working set is large enough that the
// direct-mapped sizes of the equivalence grid differ, so a skipped hit
// shows in the sibling-hit counts). Each replays the equivalence grid plus
// a static and an interval-controlled partitioned cache, materialised and
// header-only at two chunk sizes, at workers 1 and 4; every run must agree
// before the digests are checked.
func TestSharedBooksGolden(t *testing.T) {
	const cpus = 3
	mixed, osL, appL := mixedTrace(30_000, 29)
	k := kernelgen.Build(kernelgen.DefaultConfig())
	kmt, app, err := workload.GenerateMulti(k, workload.Paper()[1], workload.Options{Seed: 5, OSRefs: 60_000},
		workload.InterleaveOptions{CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	traces := []struct {
		name      string
		mt        *trace.MultiTrace
		osL, appL *layout.Layout
	}{
		{"mixed", asMulti(mixed, cpus), osL, appL},
		{"kernel", kmt, layout.NewBase(k.Prog, 0), layout.NewBase(app.Prog, AppBase)},
	}

	sp, err := partition.Parse("interval,every=2,grain=1")
	if err != nil {
		t.Fatal(err)
	}
	if sp, err = sp.WithDefaults(8); err != nil {
		t.Fatal(err)
	}
	cfgs := append(append([]cache.Config(nil), equivalenceGrid...),
		cache.Config{Size: 1 << 10, Line: 32, Assoc: 4, Part: cache.Partition{OSWays: 3, AppWays: 1}},
		cache.Config{Size: 2 << 10, Line: 32, Assoc: 8, Part: sp.Initial()})
	interval := len(cfgs) - 1

	var keys []string
	got := map[string]string{}
	cfgOf := map[string]cache.Config{}
	for _, tc := range traces {
		var want []string
		for _, chunk := range []int{0, 1 << 10, 64 << 10} {
			for _, workers := range []int{1, 4} {
				mt := tc.mt
				if chunk > 0 {
					mt = &trace.MultiTrace{Trace: tc.mt.ChunkView(chunk), CPUs: tc.mt.CPUs, Runs: tc.mt.Runs}
				}
				observers := make([]obs.Observer, len(cfgs))
				setups := make([]CacheSetup, len(cfgs))
				ctrl := partition.NewController(sp, 16, nil)
				observers[interval], setups[interval] = ctrl, ctrl.Bind
				ress, err := RunShared(mt, []Group{{OS: tc.osL, App: tc.appL, Configs: cfgs}}, Options{Observers: observers, Setups: setups, Workers: workers})
				if err != nil {
					t.Fatalf("%s chunk %d workers %d: %v", tc.name, chunk, workers, err)
				}
				if err := ctrl.Err(); err != nil {
					t.Fatal(err)
				}
				if ctrl.Events().Events == 0 {
					t.Fatalf("%s: the interval controller never repartitioned", tc.name)
				}
				sums := make([]string, len(ress))
				for i, r := range ress {
					sums[i] = sharedBooksDigest(r)
				}
				if want == nil {
					want = sums
				} else if !reflect.DeepEqual(sums, want) {
					t.Fatalf("%s chunk %d workers %d: shared results differ from the materialised sequential run", tc.name, chunk, workers)
				}
			}
		}
		for i, sum := range want {
			key := fmt.Sprintf("%s/%02d", tc.name, i)
			keys = append(keys, key)
			got[key], cfgOf[key] = sum, cfgs[i]
		}
	}

	if *update {
		var sb strings.Builder
		sb.WriteString("# SHA-256 digests of shared-cache results and per-CPU books; see shared_golden_test.go.\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(sharedBooksGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sharedBooksGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), sharedBooksGoldenFile)
		return
	}

	want := readSharedBooksGolden(t)
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: not in %s", k, sharedBooksGoldenFile)
		case w != got[k]:
			t.Errorf("%s %v: digest %s, golden %s", k, cfgOf[k], got[k], w)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("%s: in %s but not produced", k, sharedBooksGoldenFile)
	}
}

// readSharedBooksGolden parses "key digest" lines, skipping comments.
func readSharedBooksGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(sharedBooksGoldenFile)
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
			t.Fatalf("%s: malformed line %q", sharedBooksGoldenFile, line)
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
