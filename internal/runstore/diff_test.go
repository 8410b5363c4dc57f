package runstore

import (
	"strings"
	"testing"

	"oslayout/internal/obs"
)

func baselineRecord() *Record {
	return &Record{
		Kind:        "report",
		CreatedUnix: 100,
		Manifest: obs.Manifest{
			Command: "table1",
			Phases: []obs.Phase{
				{Name: "trace-gen", Millis: 100},
				{Name: "replay", Millis: 1000},
				{Name: "replay", Millis: 1000}, // repeated spans aggregate
			},
			Results:    map[string]string{"table1": "aaa", "fig18": "bbb"},
			Provenance: obs.CollectProvenance(),
		},
		Cells: []Cell{
			{Strategy: "base", Workload: "Shell", SizeBytes: 8192, CPU: -1, MissRate: 0.031},
			{Strategy: "opts", Workload: "Shell", SizeBytes: 8192, CPU: -1, MissRate: 0.012},
		},
		Bench: []BenchSample{
			{Name: "compare_warm", Values: []float64{100_000, 102_000, 104_000}},
		},
	}
}

// finish derives the summarized bench fields, as the bench recorder does.
func finish(r *Record) *Record {
	for i := range r.Bench {
		r.Bench[i].Summarize()
	}
	return r
}

func TestDiffIdenticalRunsPass(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	a.ID, b.ID = "a", "b"
	d := Compare(a, b, DiffOptions{})
	if d.Regressed {
		t.Fatalf("identical runs regressed:\n%s", d.Render())
	}
	if !d.Comparable {
		t.Errorf("same-host records not comparable: %s", d.ProvenanceNote)
	}
	if len(d.DigestDrift) != 0 {
		t.Errorf("identical digests drifted: %+v", d.DigestDrift)
	}
	if !strings.Contains(d.Render(), "verdict: pass") {
		t.Errorf("render lacks pass verdict:\n%s", d.Render())
	}
}

func TestDiffDigestDriftHardFails(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	b.Manifest.Results["table1"] = "ccc"
	d := Compare(a, b, DiffOptions{})
	if !d.Regressed {
		t.Fatal("digest drift did not regress")
	}
	if len(d.DigestDrift) != 1 || d.DigestDrift[0].Status != "changed" {
		t.Errorf("drift = %+v", d.DigestDrift)
	}
	out := d.Render()
	if !strings.Contains(out, "DRIFT") || !strings.Contains(out, "verdict: REGRESSED") {
		t.Errorf("render:\n%s", out)
	}
	// Drift gates even across hosts: correctness has no noise band.
	b.Manifest.Provenance = &obs.Provenance{GOOS: "plan9", GOARCH: "mips", GOMAXPROCS: 1, NumCPU: 1}
	if d := Compare(a, b, DiffOptions{}); !d.Regressed {
		t.Error("cross-host digest drift did not regress")
	}
}

func TestDiffOneSidedResultsAnnotateOnly(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	delete(b.Manifest.Results, "fig18")
	b.Manifest.Results["fig19"] = "ddd"
	d := Compare(a, b, DiffOptions{})
	if d.Regressed {
		t.Fatalf("differing experiment sets regressed:\n%s", d.Render())
	}
	statuses := map[string]int{}
	for _, dd := range d.DigestDrift {
		statuses[dd.Status]++
	}
	if statuses["only_a"] != 1 || statuses["only_b"] != 1 {
		t.Errorf("drift statuses = %v", statuses)
	}
}

func TestDiffTimingRegressionBeyondBand(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	// Baseline replay aggregates to 2000ms; band = max(250, 0.5*2000) =
	// 1000ms. A 3x slowdown clears it; a 20% one does not.
	b.Manifest.Phases = []obs.Phase{
		{Name: "trace-gen", Millis: 100},
		{Name: "replay", Millis: 6000},
	}
	d := Compare(a, b, DiffOptions{})
	if !d.Regressed {
		t.Fatalf("3x replay slowdown not flagged:\n%s", d.Render())
	}
	var replay PhaseDelta
	for _, p := range d.Phases {
		if p.Name == "replay" {
			replay = p
		}
	}
	if !replay.Regressed || replay.AMillis != 2000 || replay.BMillis != 6000 {
		t.Errorf("replay delta = %+v", replay)
	}

	b.Manifest.Phases = []obs.Phase{
		{Name: "trace-gen", Millis: 100},
		{Name: "replay", Millis: 2400},
	}
	if d := Compare(a, b, DiffOptions{}); d.Regressed {
		t.Fatalf("20%% slowdown inside the band regressed:\n%s", d.Render())
	}
}

func TestDiffCrossHostTimingAnnotatedNotGated(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	b.Manifest.Provenance = &obs.Provenance{
		GoVersion: "go0.0", GOOS: "plan9", GOARCH: "mips",
		Hostname: "elsewhere", GOMAXPROCS: 1, NumCPU: 1,
	}
	b.Manifest.Phases = []obs.Phase{{Name: "replay", Millis: 60_000}}
	d := Compare(a, b, DiffOptions{})
	if d.Comparable {
		t.Fatal("cross-host records reported comparable")
	}
	if d.Regressed {
		t.Errorf("cross-host timing delta gated:\n%s", d.Render())
	}
	if d.ProvenanceNote == "" || !strings.Contains(d.Render(), "provenance:") {
		t.Error("cross-host diff missing provenance annotation")
	}
}

func TestDiffBenchSpreadBand(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	// Baseline spread 4000; band = max(3*4000, 0.10*102000) = 12000.
	// +50% median clears it.
	b.Bench = []BenchSample{{Name: "compare_warm", Values: []float64{150_000, 153_000, 156_000}}}
	finish(b)
	d := Compare(a, b, DiffOptions{})
	if !d.Regressed || len(d.Bench) != 1 || !d.Bench[0].Regressed {
		t.Fatalf("bench regression not flagged: %+v", d.Bench)
	}
	// +5% stays inside the relative floor.
	b.Bench = []BenchSample{{Name: "compare_warm", Values: []float64{106_000, 107_000, 108_000}}}
	finish(b)
	if d := Compare(a, b, DiffOptions{}); d.Regressed {
		t.Fatalf("bench delta inside band regressed:\n%s", d.Render())
	}
	// Getting faster never regresses.
	b.Bench = []BenchSample{{Name: "compare_warm", Values: []float64{50_000, 51_000, 52_000}}}
	finish(b)
	if d := Compare(a, b, DiffOptions{}); d.Regressed {
		t.Error("speedup reported as regression")
	}
}

// TestDiffBenchHigherIsBetter: for a metric that improves upward the same
// band gates a fall, and a rise of any size passes.
func TestDiffBenchHigherIsBetter(t *testing.T) {
	rec := func(values ...float64) *Record {
		r := finish(baselineRecord())
		r.Bench = []BenchSample{{Name: "grid/mrefs_per_cpu_s", Unit: "Mref/cpu-s", Better: "higher", Values: values}}
		return finish(r)
	}
	a := rec(500, 505, 510) // band = max(3*10, 0.10*505) = 50.5
	for _, c := range []struct {
		b         *Record
		regressed bool
	}{
		{rec(400, 405, 410), true},
		{rec(460, 465, 470), false},
		{rec(900, 905, 910), false},
	} {
		d := Compare(a, c.b, DiffOptions{})
		if d.Regressed != c.regressed || len(d.Bench) != 1 || d.Bench[0].Regressed != c.regressed {
			t.Errorf("median %v against %v: regressed=%v, want %v\n%s", c.b.Bench[0].Median, a.Bench[0].Median, d.Regressed, c.regressed, d.Render())
		}
	}
}

func TestDiffCellDeltasInformational(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	b.Cells[0].MissRate = 0.040
	d := Compare(a, b, DiffOptions{})
	if len(d.Cells) != 1 {
		t.Fatalf("cell deltas = %+v", d.Cells)
	}
	got := d.Cells[0]
	if got.A != 0.031 || got.B != 0.040 {
		t.Errorf("cell delta = %+v", got)
	}
	// Cells alone never gate — rate movement without digest drift means the
	// runs measured different cells, which digests would have caught.
	if d.Regressed {
		t.Error("cell delta alone gated the diff")
	}
}

func TestDiffOptionOverrides(t *testing.T) {
	a, b := finish(baselineRecord()), finish(baselineRecord())
	b.Manifest.Phases = []obs.Phase{
		{Name: "trace-gen", Millis: 100},
		{Name: "replay", Millis: 2400},
	}
	// Default band absorbs +400ms on a 2000ms baseline; a tightened one
	// must not.
	if d := Compare(a, b, DiffOptions{}); d.Regressed {
		t.Fatal("default band flagged +20%")
	}
	if d := Compare(a, b, DiffOptions{FloorMs: 50, RelBand: 0.1}); !d.Regressed {
		t.Fatal("tight band missed +20%")
	}
}

// Coordinator-merged records (satellite of the sharded-serve PR): digest
// drift gates regardless of the fleet annotation, merged-vs-single timings
// are annotated rather than gated, and two runs merged over one fleet
// still gate timings.
func TestDiffMergedRuns(t *testing.T) {
	mergedRec := func() *Record {
		r := finish(baselineRecord())
		r.Manifest.Provenance.Merged = true
		r.Manifest.Provenance.Workers = []string{"host-a", "host-b"}
		return r
	}

	// Merged vs single-process: incomparable timings, annotated.
	a, b := finish(baselineRecord()), mergedRec()
	b.Manifest.Phases = []obs.Phase{{Name: "replay", Millis: 60_000}}
	d := Compare(a, b, DiffOptions{})
	if d.Comparable {
		t.Fatal("merged vs single-process reported comparable")
	}
	if d.Regressed {
		t.Errorf("merged-vs-single timing delta gated:\n%s", d.Render())
	}
	if !strings.Contains(d.ProvenanceNote, "coordinator-merged") {
		t.Errorf("provenance note %q lacks the merged annotation", d.ProvenanceNote)
	}
	if !strings.Contains(strings.Join(d.Notes, "\n"), "digest drift still gates") {
		t.Errorf("merged diff lacks the digest-gate note: %v", d.Notes)
	}

	// Digest drift on a merged record is still a hard failure.
	b = mergedRec()
	b.Manifest.Results["table1"] = "ccc"
	if d := Compare(a, b, DiffOptions{}); !d.Regressed {
		t.Error("digest drift on a merged record did not regress")
	}

	// Two runs merged over the same fleet compare timings and gate them.
	c1, c2 := mergedRec(), mergedRec()
	c2.Manifest.Phases = []obs.Phase{
		{Name: "trace-gen", Millis: 100},
		{Name: "replay", Millis: 60_000},
	}
	d = Compare(c1, c2, DiffOptions{})
	if !d.Comparable {
		t.Fatalf("same-fleet merged runs not comparable: %s", d.ProvenanceNote)
	}
	if !d.Regressed {
		t.Errorf("same-fleet timing blowup not gated:\n%s", d.Render())
	}

	// Different fleets: annotated, not gated.
	c3 := mergedRec()
	c3.Manifest.Provenance.Workers = []string{"host-c"}
	c3.Manifest.Phases = []obs.Phase{{Name: "replay", Millis: 60_000}}
	d = Compare(c1, c3, DiffOptions{})
	if d.Comparable || d.Regressed {
		t.Errorf("different-fleet merged runs comparable=%v regressed=%v, want neither", d.Comparable, d.Regressed)
	}
	if !strings.Contains(d.ProvenanceNote, "fleet") {
		t.Errorf("note %q lacks the fleet mismatch", d.ProvenanceNote)
	}
}
