package oslayout_test

// The benchmark harness: one benchmark per table and figure of the paper
// (dispatching through the experiment registry), plus micro-benchmarks of
// the substrates (kernel synthesis, trace generation, profiling, layout
// construction, cache simulation).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks share one study environment (built on first
// use), so each measures the incremental cost of regenerating its table or
// figure, exactly what `cmd/oslayout <experiment>` does after startup.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/chlayout"
	"oslayout/internal/core"
	"oslayout/internal/expt"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/mcflayout"
	"oslayout/internal/profile"
	"oslayout/internal/simulate"
	"oslayout/internal/streamcache"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *expt.Env
	benchEnvErr  error
)

func sharedEnv(b *testing.B) *expt.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = expt.NewEnv(expt.Options{OSRefs: 1_000_000})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, name string) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Run(env, name); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// --- one benchmark per paper figure ---

func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFigure18(b *testing.B) { benchExperiment(b, "fig18") }

// --- substrate micro-benchmarks ---

// BenchmarkKernelSynthesis measures building the full ~940KB synthetic
// kernel CFG.
func BenchmarkKernelSynthesis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kernelgen.Build(kernelgen.DefaultConfig())
	}
}

// BenchmarkTraceGeneration measures generating a 1M-OS-reference Shell
// trace (walker throughput).
func BenchmarkTraceGeneration(b *testing.B) {
	k := kernelgen.Build(kernelgen.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.Generate(k, workload.Shell(),
			workload.Options{Seed: int64(i + 1), OSRefs: 1_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileCollection measures turning a trace into a profile.
func BenchmarkProfileCollection(b *testing.B) {
	k := kernelgen.Build(kernelgen.DefaultConfig())
	tr, _, err := workload.Generate(k, workload.Shell(), workload.Options{Seed: 1, OSRefs: 1_000_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.FromTrace(tr)
	}
}

// BenchmarkCacheSimulation measures replaying a 1M-reference trace through
// the 8KB direct-mapped cache under the Base layout.
func BenchmarkCacheSimulation(b *testing.B) {
	env := sharedEnv(b)
	base := env.Base()
	tr := env.St.Data[3].Trace // Shell: OS-only, no app layout needed
	cfg := cache.Config{Size: 8 << 10, Line: 32, Assoc: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(tr, base, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// runManyGrid is the 8-configuration grid the batched-engine benchmarks
// sweep: the Figure 15/16-style cache-size sweep at two line sizes, all
// direct-mapped (the paper's headline organisation).
var runManyGrid = []cache.Config{
	{Size: 4 << 10, Line: 32, Assoc: 1},
	{Size: 8 << 10, Line: 32, Assoc: 1},
	{Size: 16 << 10, Line: 32, Assoc: 1},
	{Size: 32 << 10, Line: 32, Assoc: 1},
	{Size: 4 << 10, Line: 16, Assoc: 1},
	{Size: 8 << 10, Line: 16, Assoc: 1},
	{Size: 16 << 10, Line: 16, Assoc: 1},
	{Size: 32 << 10, Line: 16, Assoc: 1},
}

// runManyLayout builds the layout the grid benchmarks evaluate: the OptS
// layout from the averaged profile, the case the sweeps spend most of their
// time in (every Figure 15-17 grid point and the entire Figure 16 cutoff
// sweep simulate optimised candidate layouts).
func runManyLayout(b *testing.B, env *expt.Env) *layout.Layout {
	b.Helper()
	plan, err := env.St.OptimizeFrom(env.St.AvgOS, oslayout.DefaultPlacementParams(8<<10))
	if err != nil {
		b.Fatal(err)
	}
	return plan.Layout
}

// BenchmarkRunRepeated replays the 1M-reference Shell trace once per grid
// configuration through simulate.Run — the pre-batching sweep strategy.
func BenchmarkRunRepeated(b *testing.B) {
	env := sharedEnv(b)
	osL := runManyLayout(b, env)
	tr := env.St.Data[3].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range runManyGrid {
			if _, err := simulate.Run(tr, osL, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunMany drives the same 8-configuration grid through the
// single-pass batched engine: the trace is decoded and block spans are
// resolved once, all caches sharing a line size consume one event stream,
// and the nested direct-mapped sizes are elided through their inclusion
// chain. Compare ns/op against BenchmarkRunRepeated.
func BenchmarkRunMany(b *testing.B) {
	env := sharedEnv(b)
	osL := runManyLayout(b, env)
	tr := env.St.Data[3].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.RunManyOpt(tr, osL, nil, runManyGrid, simulate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunManyParallel drives the same grid with the drive units
// fanned across a worker pool (the CLI's -par flag): the direct-mapped
// inclusion chain stays whole and the other caches are dealt round-robin
// into up to Workers units, all replaying one compiled stream concurrently. Results are bit-identical to
// the sequential drive; the speedup shows only on multi-core hosts.
func BenchmarkRunManyParallel(b *testing.B) {
	env := sharedEnv(b)
	osL := runManyLayout(b, env)
	tr := env.St.Data[3].Trace
	opt := simulate.Options{Workers: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.RunManyOpt(tr, osL, nil, runManyGrid, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunManyMemoized is the warm replay path: compiled streams come
// from a stream cache populated before the timer starts, so steady state
// measures pure cache driving with decode, span expansion and elision
// amortised away — the cost a repeated serve job or a later sweep over the
// same (trace, layout, line size) pays.
func BenchmarkRunManyMemoized(b *testing.B) {
	env := sharedEnv(b)
	osL := runManyLayout(b, env)
	tr := env.St.Data[3].Trace
	opt := simulate.Options{Streams: streamcache.New(0)}
	if _, err := simulate.RunManyOpt(tr, osL, nil, runManyGrid, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.RunManyOpt(tr, osL, nil, runManyGrid, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareGrid runs the 8-strategy × 3-size compare grid that
// serve compare jobs execute. The environment — and with it the study's
// layout and stream caches — is shared across iterations, so the first
// iteration builds layouts and compiles streams and the rest replay from
// the memo: steady-state ns/op is the repeated-job fast path the serve
// daemon's pooled studies hit. Timed as a daemon job at 3M refs on a
// 1-vCPU host, the grid took 2.8 s cold and 0.56 s per repeat.
func BenchmarkCompareGrid(b *testing.B) {
	env := sharedEnv(b)
	strategies := []string{"base", "shuffle", "mcf", "ch", "ph", "opts", "optl", "optcall"}
	sizes := []int{4 << 10, 8 << 10, 16 << 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.RunCompareOpts(strategies, sizes, 32, 1, expt.CompareOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptSConstruction measures the full placement algorithm
// (sequences, SelfConfFree selection, loop qualification, assembly) on the
// averaged profile, over the study's one loop analysis. It calls core.Optimize directly: the study's memoized
// builders would time a map lookup on every iteration after the first.
func BenchmarkOptSConstruction(b *testing.B) {
	env := sharedEnv(b)
	params := oslayout.DefaultPlacementParams(8 << 10)
	loops := env.St.StrategyCache().Loops()
	benchWithAverage(b, env, func(prog *oslayout.Program) error {
		_, err := core.Optimize(prog, loops, core.SeedEntries(prog), 0, params)
		return err
	})
}

// benchWithAverage times build on the kernel with the averaged profile
// applied, holding the study's strategy-cache lock for the whole loop.
func benchWithAverage(b *testing.B, env *expt.Env, build func(prog *oslayout.Program) error) {
	b.Helper()
	if err := env.St.WithProfile(env.St.AvgOS, func(prog *oslayout.Program) error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := build(prog); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCHConstruction measures the Chang-Hwu baseline construction,
// calling chlayout.New directly for the same reason.
func BenchmarkCHConstruction(b *testing.B) {
	benchWithAverage(b, sharedEnv(b), func(prog *oslayout.Program) error {
		chlayout.New(prog, 0)
		return nil
	})
}

// --- extension experiment benchmarks ---

func BenchmarkExtCrossProfile(b *testing.B) { benchExperiment(b, "xprofile") }
func BenchmarkExtBaselines(b *testing.B)    { benchExperiment(b, "baselines") }
func BenchmarkExtAblation(b *testing.B)     { benchExperiment(b, "ablation") }
func BenchmarkExtMultiCPU(b *testing.B)     { benchExperiment(b, "cpus") }
func BenchmarkExtPolicy(b *testing.B)       { benchExperiment(b, "policy") }

// BenchmarkTraceSerialization measures the varint trace codec round trip.
func BenchmarkTraceSerialization(b *testing.B) {
	env := sharedEnv(b)
	tr := env.St.Data[3].Trace
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := tr.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()), tr.OS, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMcFConstruction measures the McFarling-style baseline.
func BenchmarkMcFConstruction(b *testing.B) {
	benchWithAverage(b, sharedEnv(b), func(prog *oslayout.Program) error {
		mcflayout.New(prog, 0)
		return nil
	})
}

func BenchmarkExtOverhead(b *testing.B) { benchExperiment(b, "overhead") }
func BenchmarkExtLineUtil(b *testing.B) { benchExperiment(b, "lineutil") }
