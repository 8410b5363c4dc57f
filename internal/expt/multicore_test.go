package expt

import (
	"math"
	"strings"
	"testing"
)

// TestMeanSpreadGuards is the regression test for the empty/NaN handling:
// a zero-reference replay's 0/0 miss rate must not poison the rendered
// mean, and empty input must not divide by zero.
func TestMeanSpreadGuards(t *testing.T) {
	if m, s := meanSpread(nil); m != 0 || s != 0 {
		t.Errorf("meanSpread(nil) = %v, %v; want 0, 0", m, s)
	}
	if m, s := meanSpread([]float64{}); m != 0 || s != 0 {
		t.Errorf("meanSpread(empty) = %v, %v; want 0, 0", m, s)
	}
	nan := math.NaN()
	if m, s := meanSpread([]float64{nan, nan}); m != 0 || s != 0 {
		t.Errorf("meanSpread(all-NaN) = %v, %v; want 0, 0", m, s)
	}
	m, s := meanSpread([]float64{0.02, nan, 0.04, math.Inf(1)})
	if math.Abs(m-0.03) > 1e-12 || math.Abs(s-0.02) > 1e-12 {
		t.Errorf("meanSpread with NaN/Inf = %v, %v; want 0.03, 0.02 (non-finite skipped)", m, s)
	}
	m, s = meanSpread([]float64{0.05})
	if m != 0.05 || s != 0 {
		t.Errorf("meanSpread(single) = %v, %v; want 0.05, 0", m, s)
	}
}

// TestFigure19Shape runs the multiprocessor sweep on the shared test study
// and checks its structure and physics: every cell filled for all four
// workloads, per-CPU rates present, cross-CPU evictions bounded by totals
// (the exact-sum invariant is asserted inside RunFigure19 itself), OptS
// beating Base in every scenario, and constructive sharing visible on the
// shared rows.
func TestFigure19Shape(t *testing.T) {
	e := testEnv(t)
	f, err := e.RunFigure19()
	if err != nil {
		t.Fatal(err)
	}
	if f.CPUs != e.CPUs() {
		t.Fatalf("fig19 ran %d CPUs, env has %d", f.CPUs, e.CPUs())
	}
	wantRows := []string{"private", "shared", "sh+static", "sh+md"}
	if len(f.Rows) != len(wantRows) {
		t.Fatalf("%d rows, want %d", len(f.Rows), len(wantRows))
	}
	for i, r := range wantRows {
		if f.Rows[i] != r {
			t.Fatalf("row %d = %q, want %q", i, f.Rows[i], r)
		}
	}
	if len(f.Workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(f.Workloads))
	}
	for i, w := range f.Workloads {
		for l, lay := range f.Layouts {
			for r, row := range f.Rows {
				if f.Rate[i][l][r] <= 0 {
					t.Errorf("%s/%s/%s: zero miss rate", w, lay, row)
				}
				if len(f.PerCPU[i][l][r]) != f.CPUs {
					t.Errorf("%s/%s/%s: %d per-CPU rates, want %d", w, lay, row, len(f.PerCPU[i][l][r]), f.CPUs)
				}
				if r > 0 {
					if f.Evictions[i][l][r] == 0 {
						t.Errorf("%s/%s/%s: no evictions recorded", w, lay, row)
					}
					if f.CrossEvict[i][l][r] > f.Evictions[i][l][r] {
						t.Errorf("%s/%s/%s: cross-CPU evictions exceed the total", w, lay, row)
					}
					if f.SharedOSHits[i][l][r] == 0 {
						t.Errorf("%s/%s/%s: no cross-CPU OS sharing on a shared kernel image", w, lay, row)
					}
				}
			}
			// The paper's layout conclusion must survive the multiprocessor
			// substrate: OptS beats Base cell for cell.
			if l == 1 {
				for r, row := range f.Rows {
					if f.Rate[i][1][r] >= f.Rate[i][0][r] {
						t.Errorf("%s/%s: OptS (%.4f) did not beat Base (%.4f)", w, row, f.Rate[i][1][r], f.Rate[i][0][r])
					}
				}
			}
		}
	}
	out := f.Render()
	for _, want := range append([]string{"Figure 19", "Per-CPU miss rates", "Cross-CPU attribution"}, wantRows[1:]...) {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestCompareMultiCPU checks the compare grid's shared-cache mode: per-CPU
// rates filled for every cell, eviction counts bounded, and the cpus<=1
// path identical to the classic grid.
func TestCompareMultiCPU(t *testing.T) {
	e := testEnv(t)
	strategies := []string{"base", "opts"}
	sizes := []int{8 << 10}
	grid, err := e.RunCompareOpts(strategies, sizes, 32, 1, CompareOptions{CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if grid.CPUs != 2 || grid.CPURates == nil {
		t.Fatalf("multi-CPU grid: CPUs=%d, CPURates nil=%v", grid.CPUs, grid.CPURates == nil)
	}
	for wi, w := range grid.Workloads {
		for k, s := range strategies {
			if grid.Rates[0][wi][k] <= 0 {
				t.Errorf("%s/%s: zero miss rate", w, s)
			}
			if len(grid.CPURates[0][wi][k]) != 2 {
				t.Errorf("%s/%s: %d per-CPU rates, want 2", w, s, len(grid.CPURates[0][wi][k]))
			}
			if grid.CrossEvictions[0][wi][k] > grid.Evictions[0][wi][k] {
				t.Errorf("%s/%s: cross-CPU evictions exceed the total", w, s)
			}
		}
	}
	if !strings.Contains(grid.Render(), "2 CPUs sharing each cache") {
		t.Error("render missing the CPU header")
	}

	// cpus<=1 must leave the classic grid untouched — same rates, same
	// render, no multiprocessor fields.
	classic, err := e.RunCompareOpts(strategies, sizes, 32, 1, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := e.RunCompareOpts(strategies, sizes, 32, 1, CompareOptions{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.CPURates != nil || one.Evictions != nil {
		t.Error("single-CPU grid grew multiprocessor fields")
	}
	if classic.Render() != one.Render() {
		t.Error("cpus=1 render differs from the classic grid")
	}
	for wi := range classic.Workloads {
		for k := range strategies {
			if classic.Rates[0][wi][k] != one.Rates[0][wi][k] {
				t.Errorf("cpus=1 rate differs from the classic grid at w%d k%d", wi, k)
			}
		}
	}
}

// TestMultiCPUShape checks the rewired cpus extension: one mean/spread pair
// per workload per layout, spreads finite and small relative to the rates,
// and the render shape unchanged.
func TestMultiCPUShape(t *testing.T) {
	e := testEnv(t)
	m, err := e.RunMultiCPU()
	if err != nil {
		t.Fatal(err)
	}
	if m.CPUs != e.CPUs() {
		t.Fatalf("ran %d CPUs, env has %d", m.CPUs, e.CPUs())
	}
	n := len(m.Workloads)
	if len(m.MeanBase) != n || len(m.SpreadBase) != n || len(m.MeanOptS) != n || len(m.SpreadOptS) != n {
		t.Fatalf("ragged results: %d workloads, %d/%d/%d/%d stats",
			n, len(m.MeanBase), len(m.SpreadBase), len(m.MeanOptS), len(m.SpreadOptS))
	}
	for i, w := range m.Workloads {
		if m.MeanBase[i] <= 0 || m.MeanOptS[i] <= 0 {
			t.Errorf("%s: zero mean miss rate", w)
		}
		if m.MeanOptS[i] >= m.MeanBase[i] {
			t.Errorf("%s: OptS mean (%.4f) did not beat Base mean (%.4f)", w, m.MeanOptS[i], m.MeanBase[i])
		}
		for _, v := range []float64{m.SpreadBase[i], m.SpreadOptS[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: bad spread %v", w, v)
			}
		}
	}
	out := m.Render()
	for _, want := range []string{"per-CPU variation", "Base mean±spread", "OptS mean±spread"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
