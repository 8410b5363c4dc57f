package expt

import (
	"testing"

	"oslayout"
	"oslayout/internal/obs"
	"oslayout/internal/strategy"
	"oslayout/internal/workload"
)

// TestStreamingStudyDigests builds the study twice — once forcing the
// constant-memory streaming pipeline at a small chunk size, once forcing
// materialisation — and requires digest-identical renderings across a set
// of experiments covering every trace-consuming path: profiles (table1),
// sequence characterisation over the raw event stream (table2), temporal
// reuse (fig7), the multi-config replay engine (fig12), size sweeps
// (fig15) and the split/reserved cache setups (fig18). The CI smoke
// extends this to the full table1-fig18 suite.
func TestStreamingStudyDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two studies")
	}
	const refs = 150_000
	build := func(mode oslayout.StreamMode, chunk int) *Env {
		t.Helper()
		e, err := NewEnv(Options{OSRefs: refs, Stream: mode, ChunkEvents: chunk})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	mat := build(oslayout.StreamOff, 0)
	str := build(oslayout.StreamOn, 8<<10)
	if !str.St.Streaming() {
		t.Fatal("StreamOn study is not streaming")
	}
	if mat.St.Streaming() {
		t.Fatal("StreamOff study is streaming")
	}
	for _, d := range str.St.Data {
		if !d.Trace.Streaming() {
			t.Fatalf("%s: trace materialised under StreamOn", d.Workload.Name)
		}
	}
	for _, name := range []string{"table1", "table2", "fig7", "fig12", "fig15", "fig18"} {
		rm, err := Run(mat, name)
		if err != nil {
			t.Fatalf("%s materialised: %v", name, err)
		}
		rs, err := Run(str, name)
		if err != nil {
			t.Fatalf("%s streamed: %v", name, err)
		}
		if dm, ds := obs.Digest(rm.Render()), obs.Digest(rs.Render()); dm != ds {
			t.Errorf("%s: streamed digest %s != materialised %s", name, ds, dm)
		}
	}
}

// TestStreamedCompareOpensEachSourceOnce checks that a streamed compare
// pass regenerates each workload's trace exactly once, however many
// strategies and sizes the grid holds: every single-CPU mode replays a
// workload's trace under all of its layout pairs in one pass. It counts
// generator opens as the streamed set-up's test does; every workload's
// replay needs a walk of its trace, so one open per workload is one each.
func TestStreamedCompareOpensEachSourceOnce(t *testing.T) {
	e, err := NewEnv(Options{OSRefs: 60_000, Stream: oslayout.StreamOn, ChunkEvents: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{4 << 10, 8 << 10, 16 << 10}
	two := []string{"base", "opts"}
	cases := []struct {
		name       string
		strategies []string
		assoc      int
		opt        CompareOptions
	}{
		{"base,opts", two, 1, CompareOptions{}},
		{"all strategies", strategy.Names(), 1, CompareOptions{}},
		{"detail", two, 1, CompareOptions{Detail: true}},
		{"partition", two, 4, CompareOptions{Partition: "interval,every=4,grain=1"}},
	}
	for _, tc := range cases {
		before := workload.Opens()
		if _, err := e.RunCompareOpts(tc.strategies, sizes, 32, tc.assoc, tc.opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := workload.Opens() - before; n != int64(len(e.St.Data)) {
			t.Errorf("%s: %d trace generators started for %d workloads in one pass, want one each", tc.name, n, len(e.St.Data))
		}
	}
}

// TestStreamedFig19WalksEachCPUThrice checks that a streamed fig19 starts
// three generators per CPU per workload: the merged walk that counts the
// trace and its CPU schedule, the merged (shared-cache) replay, and the
// private replay, whose header-only per-CPU trace takes its totals from
// the merged walk instead of counting them in a walk of its own. Its
// rendering matches the materialised run's byte for byte.
func TestStreamedFig19WalksEachCPUThrice(t *testing.T) {
	const refs, cpus = 60_000, 4
	mat, err := NewEnv(Options{OSRefs: refs, Stream: oslayout.StreamOff, CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	str, err := NewEnv(Options{OSRefs: refs, Stream: oslayout.StreamOn, ChunkEvents: 4 << 10, CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(mat, "fig19")
	if err != nil {
		t.Fatal(err)
	}
	before := workload.Opens()
	rs, err := Run(str, "fig19")
	if err != nil {
		t.Fatal(err)
	}
	if n, want := workload.Opens()-before, int64(3*cpus*len(str.St.Data)); n != want {
		t.Errorf("streamed fig19 started %d trace generators, want %d (3 per CPU for each of %d workloads)", n, want, len(str.St.Data))
	}
	if sm, ss := rm.Render(), rs.Render(); sm != ss {
		t.Errorf("streamed fig19 differs from materialised:\n%s\nwant:\n%s", ss, sm)
	}
}

// TestStreamedMultiCPUWalksEachCPUTwice checks that a streamed cpus
// extension starts two generators per CPU per workload: the counting walk
// that builds the CPU's header-only trace, and one replay under Base and
// OptS together. Its rendering matches the materialised run's byte for
// byte.
func TestStreamedMultiCPUWalksEachCPUTwice(t *testing.T) {
	const refs, cpus = 60_000, 4
	mat, err := NewEnv(Options{OSRefs: refs, Stream: oslayout.StreamOff, CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	str, err := NewEnv(Options{OSRefs: refs, Stream: oslayout.StreamOn, ChunkEvents: 4 << 10, CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(mat, "cpus")
	if err != nil {
		t.Fatal(err)
	}
	before := workload.Opens()
	rs, err := Run(str, "cpus")
	if err != nil {
		t.Fatal(err)
	}
	if n, want := workload.Opens()-before, int64(2*cpus*len(str.St.Data)); n != want {
		t.Errorf("streamed cpus started %d trace generators, want %d (2 per CPU for each of %d workloads)", n, want, len(str.St.Data))
	}
	if sm, ss := rm.Render(), rs.Render(); sm != ss {
		t.Errorf("streamed cpus differs from materialised:\n%s\nwant:\n%s", ss, sm)
	}
}
