package simulate

import (
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// fixedStream serves one precompiled stream, so a replay times the drive
// alone.
type fixedStream struct{ s *Stream }

func (f fixedStream) Stream(*trace.Trace, *layout.Layout, *layout.Layout, int) (*Stream, error) {
	return f.s, nil
}

// chainGrid is the 4/8/16 KB direct-mapped inclusion chain at 32 B lines
// that the drive benchmarks replay.
var chainGrid = []cache.Config{
	{Size: 4 << 10, Line: 32, Assoc: 1},
	{Size: 8 << 10, Line: 32, Assoc: 1},
	{Size: 16 << 10, Line: 32, Assoc: 1},
}

// BenchmarkDriveChain drives a precompiled stream through chainGrid on one
// worker: the default kernel's Shell trace at 2M OS references under Base
// layouts. The ns/access-config metric is the time per (access, cache)
// pair, counting the pairs the chain skips after a hit.
func BenchmarkDriveChain(b *testing.B) {
	tr, osL, appL := shellTrace(b)
	s, err := CompileEvents(Decode(tr), tr, osL, appL, 32)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Streams: fixedStream{s}, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunManyOpt(tr, osL, appL, chainGrid, opt); err != nil {
			b.Fatal(err)
		}
	}
	pairs := float64(b.N) * float64(s.Accesses()) * float64(len(chainGrid))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/access-config")
}

// BenchmarkWalk replays the same trace through the same chain with no
// stream source, so it walks: the producer decodes each
// trace.DefaultChunkEvents window while one unit expands the previous
// window's line spans as it drives. The ns/event metric is the time per
// block event; against BenchmarkDriveChain it prices span expansion and
// elision, which a compiled stream pays once at compile time.
func BenchmarkWalk(b *testing.B) {
	tr, osL, appL := shellTrace(b)
	events := tr.Summarize().Blocks
	opt := Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunManyOpt(tr, osL, appL, chainGrid, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(events)), "ns/event")
}

// shellTrace generates the default kernel's Shell trace at 2M OS
// references, with Base layouts for its programs.
func shellTrace(b *testing.B) (*trace.Trace, *layout.Layout, *layout.Layout) {
	b.Helper()
	k := kernelgen.Build(kernelgen.DefaultConfig())
	tr, app, err := workload.Generate(k, workload.Shell(), workload.Options{Seed: 1, OSRefs: 2_000_000})
	if err != nil {
		b.Fatal(err)
	}
	var appL *layout.Layout
	if app != nil {
		appL = layout.NewBase(app.Prog, AppBase)
	}
	return tr, layout.NewBase(k.Prog, 0), appL
}
