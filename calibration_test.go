package oslayout

import (
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/trace"
)

// TestCalibrationReport prints the study's headline statistics next to the
// paper's measured values. Run with -v to inspect calibration; the
// assertions here are deliberately loose order-of-magnitude checks — the
// tight per-experiment shape checks live in the expt package tests.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration study is slow")
	}
	st, err := NewStudy(StudyOptions{Trace: TraceOptions{OSRefs: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	k := st.Kernel.Prog
	t.Logf("kernel: %d routines, %d blocks, %d KB code",
		k.NumRoutines(), k.NumBlocks(), k.CodeSize()>>10)

	// withProfile runs f on the kernel with prof's weights applied.
	withProfile := func(prof *Profile, f func()) {
		t.Helper()
		if err := st.WithProfile(prof, func(*Program) error { f(); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range st.Data {
		withProfile(d.OSProfile, func() {
			execBytes := k.ExecutedCodeSize()
			execBB := k.ExecutedBlocks()
			t.Logf("%-11s executed: %6d bytes (%.1f%%), %5d BBs (%.1f%%), %4d routines; invocations I/P/S/O = %v",
				d.Workload.Name, execBytes,
				100*float64(execBytes)/float64(k.CodeSize()),
				execBB, 100*float64(execBB)/float64(k.NumBlocks()),
				k.ExecutedRoutines(), d.OSProfile.ClassInv)
		})
		osRefs, appRefs := d.Trace.Refs()
		t.Logf("%-11s refs: OS %d, app %d (OS share %.2f)",
			d.Workload.Name, osRefs, appRefs, float64(osRefs)/float64(osRefs+appRefs))
	}

	// Union executed footprint across workloads (paper: 18% of code, 26%
	// of routines).
	withProfile(st.AvgOS, func() {
		t.Logf("union executed: %d bytes (%.1f%%), %d routines (%.1f%%)",
			k.ExecutedCodeSize(), 100*float64(k.ExecutedCodeSize())/float64(k.CodeSize()),
			k.ExecutedRoutines(), 100*float64(k.ExecutedRoutines())/float64(k.NumRoutines()))
	})

	cfg := cache.Config{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _ := mustBuild(t, st, "base", 0)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	ch, _ := mustBuild(t, st, "ch", 0)
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
	_, plan := mustBuild(t, st, "opts", cfg.Size)
	if err := plan.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	// Block-invocation skew (Figure 8 targets: top ~5%%, 22 blocks >3%%,
	// 157 blocks >1%%).
	var totW float64
	for _, w := range st.AvgOS.Block {
		totW += float64(w)
	}
	var n3, n1, n01 int
	var top float64
	for _, w := range st.AvgOS.Block {
		sh := float64(w) / totW
		if sh > top {
			top = sh
		}
		if sh > 0.03 {
			n3++
		}
		if sh > 0.01 {
			n1++
		}
		if sh > 0.001 {
			n01++
		}
	}
	t.Logf("block skew: top=%.2f%%, >3%%: %d, >1%%: %d, >0.1%%: %d blocks", 100*top, n3, n1, n01)

	t.Logf("OptS: %d sequences, SCF %d blocks %d bytes",
		len(plan.Sequences), len(plan.SelfConfFree), plan.SCFBytes)
	for _, s := range plan.Sequences[:min(8, len(plan.Sequences))] {
		t.Logf("  seq iter%d seed=%s exec=%g branch=%g: %d BBs %d bytes",
			s.Iter, s.Seed, s.Thresh.Exec, s.Thresh.Branch, len(s.Blocks), s.Bytes)
	}

	for i, d := range st.Data {
		rb, err := st.Evaluate(i, base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := st.Evaluate(i, ch, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := st.Evaluate(i, plan.Layout, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		osSelf := rb.Stats.Self[trace.DomainOS]
		osMiss := rb.Stats.Misses[trace.DomainOS]
		t.Logf("%-11s miss rate base=%.3f%% ch=%.3f%% opts=%.3f%%  (OS self share of OS misses: %.2f)",
			d.Workload.Name,
			100*rb.Stats.MissRate(), 100*rc.Stats.MissRate(), 100*ro.Stats.MissRate(),
			float64(osSelf)/float64(osMiss))
		if rc.Stats.TotalMisses() >= rb.Stats.TotalMisses() {
			t.Errorf("%s: C-H (%d misses) did not beat Base (%d)", d.Workload.Name,
				rc.Stats.TotalMisses(), rb.Stats.TotalMisses())
		}
		if ro.Stats.TotalMisses() >= rc.Stats.TotalMisses() {
			t.Errorf("%s: OptS (%d misses) did not beat C-H (%d)", d.Workload.Name,
				ro.Stats.TotalMisses(), rc.Stats.TotalMisses())
		}
	}
}
