package core

import (
	"testing"

	"oslayout/internal/cfa"
	"oslayout/internal/kernelgen"
)

// BenchmarkBuildSequences times the full sequence schedule on the default
// kernel under the averaged workload profile.
func BenchmarkBuildSequences(b *testing.B) {
	f := newProfiledFixture(b, kernelgen.DefaultConfig().Seed)
	p := f.use(b, 0)
	entries, sched := SeedEntries(p), DefaultSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSequencesCapped(p, entries, sched, 0)
	}
}

// BenchmarkOptimize times one layout build per strategy variant on the
// default kernel at 8 KB, with the parameters the strategy registry uses.
// The loop analysis is made once, as the strategy cache makes it.
func BenchmarkOptimize(b *testing.B) {
	f := newProfiledFixture(b, kernelgen.DefaultConfig().Seed)
	p := f.use(b, 0)
	entries, loops := SeedEntries(p), cfa.AllLoops(p)
	for _, v := range []struct {
		name           string
		loops, callOpt bool
	}{{"opts", false, false}, {"optl", true, false}, {"optcall", true, true}} {
		b.Run(v.name, func(b *testing.B) {
			params := DefaultParams(8 << 10)
			params.LoopExtract, params.CallOpt = v.loops, v.callOpt
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(p, loops, entries, 0, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlace times the placement step alone, per strategy variant on
// the default kernel at 8 KB: the per-size cost that remains once a
// skeleton of the averaged profile is built and memoized, as the strategy
// cache builds it.
func BenchmarkPlace(b *testing.B) {
	f := newProfiledFixture(b, kernelgen.DefaultConfig().Seed)
	p := f.use(b, 0)
	sk, err := NewSkeleton(p, cfa.AllLoops(p), SeedEntries(p), nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name           string
		loops, callOpt bool
	}{{"opts", false, false}, {"optl", true, false}, {"optcall", true, true}} {
		b.Run(v.name, func(b *testing.B) {
			params := DefaultParams(8 << 10)
			params.LoopExtract, params.CallOpt = v.loops, v.callOpt
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Place(p, 0, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
