package expt

import (
	"fmt"
	"math/rand"
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

// TestCompareRandomShardsMatchWhole is the merge property: a grid
// reassembled from random complementary shards, merged in random order,
// equals the whole grid's run, every array and the render. Each axis a
// shard may select (workloads and strategies, and the CPUs of a private
// grid) is split into random groups, and the shards are their cross
// product; each case draws several decompositions. The plain grids run the whole grid first on a fresh study, so
// its replays are first sightings that walk the decodes while the shards'
// replays compile: the property also pins walked ≡ compiled across a grid,
// observed (detail) and not.
func TestCompareRandomShardsMatchWhole(t *testing.T) {
	cases := []struct {
		name       string
		cpus       int
		strategies []string
		sizes      []int
		opt        CompareOptions
	}{
		{"plain", 1, []string{"base", "ch", "opts", "optl"}, []int{4 << 10, 8 << 10}, CompareOptions{}},
		{"detail", 1, []string{"base", "ph", "opts"}, []int{8 << 10}, CompareOptions{Detail: true}},
		{"private", 2, []string{"base", "opts", "optl"}, []int{4 << 10, 8 << 10}, CompareOptions{CPUs: 2, Private: true}},
	}
	const draws = 4
	for n, tc := range cases {
		for d := 0; d < draws; d++ {
			t.Run(fmt.Sprintf("%s/draw=%d", tc.name, d), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*draws + d)))
				e := shardTestEnv(t, tc.cpus)
				whole, err := e.RunCompareOpts(tc.strategies, tc.sizes, 32, 1, tc.opt)
				if err != nil {
					t.Fatalf("whole grid: %v", err)
				}
				if _, misses := e.StreamCacheStats(); misses != 0 {
					t.Fatalf("the whole grid compiled %d streams, want first sightings only", misses)
				}
				cpuGroups := [][]int{nil}
				if tc.opt.Private {
					cpuGroups = randomGroups(rng, tc.cpus)
				}
				var masks []*CompareShard
				for _, ws := range randomGroups(rng, len(whole.Workloads)) {
					for _, ks := range randomGroups(rng, len(tc.strategies)) {
						for _, cs := range cpuGroups {
							masks = append(masks, &CompareShard{Workloads: ws, Strategies: ks, CPUs: cs})
						}
					}
				}
				rng.Shuffle(len(masks), func(i, j int) { masks[i], masks[j] = masks[j], masks[i] })
				var merged *Compare
				for _, mask := range masks {
					opt := tc.opt
					opt.Shard = mask
					part, err := e.RunCompareOpts(tc.strategies, tc.sizes, 32, 1, opt)
					if err != nil {
						t.Fatalf("shard %+v: %v", *mask, err)
					}
					if merged == nil {
						merged = part
						continue
					}
					if err := merged.MergeShard(part, mask); err != nil {
						t.Fatalf("merging shard %+v: %v", *mask, err)
					}
				}
				merged.Finalize()
				if _, misses := e.StreamCacheStats(); !tc.opt.Private && misses == 0 {
					t.Error("the shards compiled no streams")
				}
				if !reflect.DeepEqual(merged, whole) {
					t.Errorf("merged grid of %d shards differs from the whole grid", len(masks))
				}
				if got, want := merged.Render(), whole.Render(); got != want {
					t.Errorf("merged render differs from whole-grid render:\n--- merged ---\n%s\n--- whole ---\n%s", got, want)
				}
			})
		}
	}
}

// randomGroups splits 0..n-1 into a random number of non-empty groups,
// each index in exactly one, in random order.
func randomGroups(rng *rand.Rand, n int) [][]int {
	groups := make([][]int, 1+rng.Intn(n))
	for i, v := range rng.Perm(n) {
		g := i
		if g >= len(groups) {
			g = rng.Intn(len(groups))
		}
		groups[g] = append(groups[g], v)
	}
	return groups
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
