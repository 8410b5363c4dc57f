package strategy_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oslayout"
	"oslayout/internal/program"
	"oslayout/internal/strategy"
)

// update rewrites testdata/layouts.golden from the current build. Use it
// only for a change that is meant to move placed blocks, and say so in the
// change log:
//
//	go test ./internal/strategy -run TestLayoutGolden -update
var update = flag.Bool("update", false, "rewrite testdata/layouts.golden")

const goldenFile = "testdata/layouts.golden"

// goldenRefs keeps the traced studies small: the digests pin layout
// construction, not profile fidelity.
const goldenRefs = 200_000

// goldenSeeds are the kernels the layout golden covers: the default kernel
// and one other seed of the same configuration.
var goldenSeeds = []int64{oslayout.DefaultKernelConfig().Seed, 7}

var goldenSizes = []int{4 << 10, 8 << 10, 16 << 10}

// digest hashes the little-endian encoding of every value fill emits.
func digest(fill func(put func(...uint64))) string {
	h := sha256.New()
	var buf [8]byte
	fill(func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// kernelDigests pins the synthesized kernel's structure: block sizes, arcs,
// call sites and link order. Profile weights are excluded; they change
// with every applied profile.
func kernelDigests(p *program.Program, add func(key, sum string)) {
	add("kernel.sizes", digest(func(put func(...uint64)) {
		for i := range p.Blocks {
			put(uint64(p.Blocks[i].Routine), uint64(p.Blocks[i].Size))
		}
	}))
	add("kernel.arcs", digest(func(put func(...uint64)) {
		for i := range p.Blocks {
			put(uint64(len(p.Blocks[i].Out)))
			for _, a := range p.Blocks[i].Out {
				put(uint64(a.To), uint64(a.Kind), math.Float64bits(a.Prob))
			}
		}
	}))
	add("kernel.calls", digest(func(put func(...uint64)) {
		for i := range p.Blocks {
			if b := &p.Blocks[i]; b.HasCall {
				put(uint64(i), uint64(b.Call.Callee), uint64(b.Call.Cont))
			}
		}
	}))
	add("kernel.linkorder", digest(func(put func(...uint64)) {
		for _, r := range p.Order() {
			put(uint64(r))
		}
	}))
}

// layoutDigests builds every registered strategy at every golden size and
// pins its block addresses; for the paper's optimisers it also pins the
// plan's sequences, SelfConfFree area and block classes.
func layoutDigests(t *testing.T, st *oslayout.Study, add func(key, sum string)) {
	t.Helper()
	c := strategy.NewCache(st)
	for _, name := range strategy.Names() {
		for _, size := range goldenSizes {
			b, err := c.Build(name, strategy.Params{CacheSize: size})
			if err != nil {
				t.Fatalf("%s at %d: %v", name, size, err)
			}
			key := fmt.Sprintf("%s/%dk", name, size>>10)
			add(key+".addr", digest(func(put func(...uint64)) { put(b.Layout.Addr...) }))
			if b.Plan == nil {
				continue
			}
			add(key+".sequences", digest(func(put func(...uint64)) {
				for _, s := range b.Plan.Sequences {
					put(uint64(s.Seed), uint64(s.Iter), uint64(len(s.Blocks)))
					for _, blk := range s.Blocks {
						put(uint64(blk))
					}
				}
			}))
			add(key+".selfconffree", digest(func(put func(...uint64)) {
				for _, blk := range b.Plan.SelfConfFree {
					put(uint64(blk))
				}
			}))
			add(key+".classes", digest(func(put func(...uint64)) {
				for _, cl := range b.Plan.Classes {
					put(uint64(cl))
				}
			}))
		}
	}
}

// TestLayoutGolden is the layout contract: every placed byte of every
// registered strategy, and the plans behind the paper's optimisers, must
// match the digests recorded in testdata/layouts.golden.
func TestLayoutGolden(t *testing.T) {
	var keys []string
	got := map[string]string{}
	for _, seed := range goldenSeeds {
		kc := oslayout.DefaultKernelConfig()
		kc.Seed = seed
		st, err := oslayout.NewStudy(oslayout.StudyOptions{
			Kernel: kc,
			Trace:  oslayout.TraceOptions{OSRefs: goldenRefs},
		})
		if err != nil {
			t.Fatal(err)
		}
		add := func(key, sum string) {
			key = fmt.Sprintf("seed=%d/%s", seed, key)
			keys = append(keys, key)
			got[key] = sum
		}
		kernelDigests(st.KernelProgram(), add)
		layoutDigests(t, st, add)
	}

	if *update {
		var sb strings.Builder
		sb.WriteString("# SHA-256 digests of kernel structure, layouts and plans; see layouts_golden_test.go.\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), goldenFile)
		return
	}

	want := readGolden(t)
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: not in %s", k, goldenFile)
		case w != got[k]:
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("%s: in %s but not produced", k, goldenFile)
	}
}

// readGolden parses "key digest" lines, skipping comments.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
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
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
