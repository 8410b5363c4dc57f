package oslayout_test

// Streaming-pipeline benchmarks: streamed versus materialised replay
// throughput, and the heap high-water measurement showing the streamed
// footprint is set by the chunk size, not the reference count.
//
//	go test -bench 'Pipeline' -benchtime 3x -count 3
//	OSLAYOUT_STREAM_REFS=50m go test -run TestStreamedReplayHeapHighWater -v
//
// On a 1-vCPU host these measured streamed replay at ~1.6x the
// materialised time per pass at 3M refs, and the heap high-water at 41 MiB
// (3m), 88 MiB (50m) and 84 MiB (1g). The heap test skips without the env
// var so the regular suite stays fast.

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oslayout/internal/cache"
	"oslayout/internal/kernelgen"
	"oslayout/internal/layout"
	"oslayout/internal/serve"
	"oslayout/internal/simulate"
	"oslayout/internal/workload"
)

// pipelineGrid is the direct-mapped size sweep the throughput benchmarks
// replay — the shape every Figure 15-17 grid point drives.
var pipelineGrid = []cache.Config{
	{Size: 4 << 10, Line: 32, Assoc: 1},
	{Size: 8 << 10, Line: 32, Assoc: 1},
	{Size: 16 << 10, Line: 32, Assoc: 1},
	{Size: 32 << 10, Line: 32, Assoc: 1},
}

// pipelineSource builds the Shell workload source (OS-only, so one layout)
// at the given reference volume.
func pipelineSource(tb testing.TB, refs uint64, chunk int) (*workload.Source, *layout.Layout) {
	tb.Helper()
	k := kernelgen.Build(kernelgen.DefaultConfig())
	src, err := workload.NewSource(k, workload.Shell(),
		workload.Options{Seed: 1, OSRefs: refs, ChunkEvents: chunk})
	if err != nil {
		tb.Fatal(err)
	}
	return src, layout.NewBase(k.Prog, 0)
}

// BenchmarkPipelineMaterialised3M replays a pre-generated 3M-ref Shell
// trace through the materialised path: per iteration the engine decodes,
// compiles and drives, with the whole event slice resident. Generation is
// outside the timer — the materialised path pays it once and keeps the
// slice, which is exactly its memory/throughput trade against streaming.
func BenchmarkPipelineMaterialised3M(b *testing.B) {
	k := kernelgen.Build(kernelgen.DefaultConfig())
	tr, _, err := workload.Generate(k, workload.Shell(), workload.Options{Seed: 1, OSRefs: 3_000_000})
	if err != nil {
		b.Fatal(err)
	}
	osL := layout.NewBase(k.Prog, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.RunManyOpt(tr, osL, nil, pipelineGrid, simulate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStreamed3M replays the same 3M references through the
// constant-memory pipeline: per iteration the walker regenerates the trace
// chunk by chunk while the drive pool consumes the previous window.
func BenchmarkPipelineStreamed3M(b *testing.B) {
	src, osL := pipelineSource(b, 3_000_000, 0)
	st, err := src.Trace(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.RunManyOpt(st, osL, nil, pipelineGrid, simulate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamedReplayHeapHighWater measures the streamed pipeline's heap
// high-water mark at a reference volume named by OSLAYOUT_STREAM_REFS
// (k/m/g suffixes; unset skips). The mark must be set by the chunk size —
// constant across 3m, 50m and 1g — which is what lets a billion-reference
// replay run on a laptop.
func TestStreamedReplayHeapHighWater(t *testing.T) {
	spec := os.Getenv("OSLAYOUT_STREAM_REFS")
	if spec == "" {
		t.Skip("set OSLAYOUT_STREAM_REFS (e.g. 50m) to measure")
	}
	refs, err := serve.ParseRefs(spec)
	if err != nil {
		t.Fatal(err)
	}
	src, osL := pipelineSource(t, refs, 0)
	st, err := src.Trace(nil)
	if err != nil {
		t.Fatal(err)
	}

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()

	start := time.Now()
	res, err := simulate.RunManyOpt(st, osL, nil, pipelineGrid, simulate.Options{Workers: runtime.GOMAXPROCS(0)})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	osRefs, _ := st.Refs()
	var misses uint64
	for _, r := range res {
		misses += r.Stats.TotalMisses()
	}
	t.Logf("refs=%s events=%d elapsed=%v refs/sec=%.1fM peak HeapAlloc=%d MiB misses=%d",
		spec, st.NumEvents(), elapsed.Round(time.Millisecond),
		float64(osRefs)/elapsed.Seconds()/1e6, peak.Load()>>20, misses)
}
