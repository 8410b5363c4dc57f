package expt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oslayout/internal/cache"
)

const shardTestRefs = 50_000

func shardTestEnv(t *testing.T, cpus int) *Env {
	t.Helper()
	e, err := NewEnv(Options{OSRefs: shardTestRefs, CPUs: cpus})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return e
}

// A grid reassembled from per-cell shards must render bit-identically to
// the whole-grid run: every cell is an independent replay, so the shard
// boundary cannot leak into the results.
func TestCompareShardMergeMatchesWhole(t *testing.T) {
	e := shardTestEnv(t, 1)
	strategies := []string{"base", "opts"}
	sizes := []int{4 << 10, 8 << 10}
	whole, err := e.RunCompareOpts(strategies, sizes, 32, 1, CompareOptions{})
	if err != nil {
		t.Fatalf("whole grid: %v", err)
	}
	var merged *Compare
	for wi := range whole.Workloads {
		for k := range strategies {
			mask := &CompareShard{Workloads: []int{wi}, Strategies: []int{k}}
			part, err := e.RunCompareOpts(strategies, sizes, 32, 1, CompareOptions{Shard: mask})
			if err != nil {
				t.Fatalf("shard (%d,%d): %v", wi, k, err)
			}
			if merged == nil {
				merged = part
				continue
			}
			if err := merged.MergeShard(part, mask); err != nil {
				t.Fatalf("merging shard (%d,%d): %v", wi, k, err)
			}
		}
	}
	merged.Finalize()
	if got, want := merged.Render(), whole.Render(); got != want {
		t.Fatalf("merged render differs from whole-grid render:\n--- merged ---\n%s\n--- whole ---\n%s", got, want)
	}
}

// Private multiprocessor grids shard along the CPU axis too; the merged
// aggregate must come out of the same integer sums as the whole run.
func TestComparePrivateShardsMatchWhole(t *testing.T) {
	const cpus = 2
	e := shardTestEnv(t, cpus)
	strategies := []string{"base", "opts"}
	sizes := []int{8 << 10}
	whole, err := e.RunCompareOpts(strategies, sizes, 32, 1,
		CompareOptions{CPUs: cpus, Private: true})
	if err != nil {
		t.Fatalf("whole private grid: %v", err)
	}
	if !whole.Private || whole.CPURefs == nil || whole.CPUMisses == nil {
		t.Fatalf("private grid missing per-CPU integer sums")
	}
	for wi := range whole.Workloads {
		for k := range strategies {
			var refs, misses uint64
			for cpu := 0; cpu < cpus; cpu++ {
				refs += whole.CPURefs[0][wi][k][cpu]
				misses += whole.CPUMisses[0][wi][k][cpu]
			}
			if refs == 0 {
				t.Fatalf("cell (%d,%d): no references replayed", wi, k)
			}
			if got, want := whole.Rates[0][wi][k], float64(misses)/float64(refs); got != want {
				t.Fatalf("cell (%d,%d): aggregate %v != exact sum %v", wi, k, got, want)
			}
		}
	}
	if !strings.Contains(whole.Render(), "private caches") {
		t.Fatalf("private render missing the private-caches label:\n%s", whole.Render())
	}

	var merged *Compare
	for wi := range whole.Workloads {
		for cpu := 0; cpu < cpus; cpu++ {
			mask := &CompareShard{Workloads: []int{wi}, CPUs: []int{cpu}}
			part, err := e.RunCompareOpts(strategies, sizes, 32, 1,
				CompareOptions{CPUs: cpus, Private: true, Shard: mask})
			if err != nil {
				t.Fatalf("shard (%d,cpu%d): %v", wi, cpu, err)
			}
			if merged == nil {
				merged = part
				continue
			}
			if err := merged.MergeShard(part, mask); err != nil {
				t.Fatalf("merging shard (%d,cpu%d): %v", wi, cpu, err)
			}
		}
	}
	merged.Finalize()
	if got, want := merged.Render(), whole.Render(); got != want {
		t.Fatalf("merged private render differs from whole run:\n--- merged ---\n%s\n--- whole ---\n%s", got, want)
	}
}

func TestCompareShardValidation(t *testing.T) {
	e := shardTestEnv(t, 1)
	strategies := []string{"base"}
	sizes := []int{4 << 10}
	cases := []struct {
		name string
		opt  CompareOptions
	}{
		{"private needs cpus", CompareOptions{Private: true}},
		{"private rejects detail", CompareOptions{CPUs: 2, Private: true, Detail: true}},
		{"private rejects partition", CompareOptions{CPUs: 2, Private: true, Partition: "static"}},
		{"cpu shard needs private", CompareOptions{CPUs: 2, Shard: &CompareShard{CPUs: []int{0}}}},
		{"workload out of range", CompareOptions{Shard: &CompareShard{Workloads: []int{99}}}},
		{"strategy out of range", CompareOptions{Shard: &CompareShard{Strategies: []int{-1}}}},
		{"empty selection", CompareOptions{Shard: &CompareShard{Workloads: []int{}}}},
	}
	for _, tc := range cases {
		if _, err := e.RunCompareOpts(strategies, sizes, 32, 1, tc.opt); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestMergeShardRejectsMismatchedGrids(t *testing.T) {
	a := &Compare{Strategies: []string{"base"}, Sizes: []int{4096}, Line: 32, Assoc: 1, Workloads: []string{"w"}, CPUs: 1}
	b := &Compare{Strategies: []string{"opts"}, Sizes: []int{4096}, Line: 32, Assoc: 1, Workloads: []string{"w"}, CPUs: 1}
	if err := a.MergeShard(b, nil); err == nil {
		t.Fatalf("expected strategy mismatch to be rejected")
	}
	c := &Compare{Strategies: []string{"base"}, Sizes: []int{4096}, Line: 32, Assoc: 1, Workloads: []string{"w"}, CPUs: 2, Private: true}
	if err := a.MergeShard(c, nil); err == nil {
		t.Fatalf("expected CPU-model mismatch to be rejected")
	}
}

// TestMergeShardRejectsShortArrays merges grids whose headers match but
// one of whose arrays is short by one at one level, as a misbehaving
// worker's response can be. Every array the merge indexes, at every level,
// in the shard and in the grid merged into, must fail the merge with an
// error before any cell is copied, never with a panic.
func TestMergeShardRejectsShortArrays(t *testing.T) {
	const ns, nw, nk, cpus = 2, 2, 2, 2
	header := func(n int) *Compare {
		return &Compare{Strategies: []string{"base", "opts"}, Sizes: []int{4096, 8192}, Line: 32, Assoc: 1, Workloads: []string{"a", "b"}, CPUs: n,
			Rates: alloc3[float64](ns, nw, nk)}
	}
	modes := []struct {
		name   string
		grid   func() *Compare
		arrays []string
	}{
		{"detail+partition", func() *Compare {
			c := header(1)
			c.Attr = alloc3[*Attribution](ns, nw, nk)
			c.PartEvents = alloc3[uint64](ns, nw, nk)
			c.PartFinal = alloc3[string](ns, nw, nk)
			c.PartSplit = alloc3[cache.Partition](ns, nw, nk)
			return c
		}, []string{"Rates", "Attr", "PartEvents", "PartFinal", "PartSplit"}},
		{"shared", func() *Compare {
			c := header(cpus)
			c.CPURates = alloc4[float64](ns, nw, nk, cpus)
			c.Evictions = alloc3[uint64](ns, nw, nk)
			c.CrossEvictions = alloc3[uint64](ns, nw, nk)
			return c
		}, []string{"Rates", "CPURates", "Evictions", "CrossEvictions"}},
		{"private", func() *Compare {
			c := header(cpus)
			c.Private = true
			c.CPURates = alloc4[float64](ns, nw, nk, cpus)
			c.CPURefs = alloc4[uint64](ns, nw, nk, cpus)
			c.CPUMisses = alloc4[uint64](ns, nw, nk, cpus)
			return c
		}, []string{"Rates", "CPURates", "CPURefs", "CPUMisses"}},
	}
	for _, m := range modes {
		if err := m.grid().MergeShard(m.grid(), nil); err != nil {
			t.Fatalf("%s: whole grids: %v", m.name, err)
		}
		for _, name := range m.arrays {
			levels := 0
			for ty := reflect.ValueOf(m.grid()).Elem().FieldByName(name).Type(); ty.Kind() == reflect.Slice; ty = ty.Elem() {
				levels++
			}
			for level := 0; level < levels; level++ {
				for _, role := range []string{"shard", "merged"} {
					t.Run(fmt.Sprintf("%s/%s/level%d/%s", m.name, name, level, role), func(t *testing.T) {
						dst, src := m.grid(), m.grid()
						short := src
						if role == "merged" {
							short = dst
						}
						f := reflect.ValueOf(short).Elem().FieldByName(name)
						f.Set(shortened(f, level))
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("merge panicked: %v", r)
							}
						}()
						if err := dst.MergeShard(src, nil); err == nil {
							t.Fatal("merge accepted a short array")
						}
					})
				}
			}
		}
	}
}

// shortened returns a copy of the nested slice v in which the first slice
// at the given nesting level (0 = v itself) is one element short.
func shortened(v reflect.Value, level int) reflect.Value {
	if level == 0 {
		return v.Slice(0, v.Len()-1)
	}
	out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	reflect.Copy(out, v)
	out.Index(0).Set(shortened(v.Index(0), level-1))
	return out
}
