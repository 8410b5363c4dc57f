package simulate

import (
	"fmt"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// TestStreamedMatchesMaterialised is the pipeline's acceptance test:
// replaying a trace through the chunked pipeline must produce results
// bit-identical to the materialised path, at every chunk size — including
// one larger than the trace, so the whole stream is one window, and small
// ones where a later window needs more accesses than a buffer's first,
// exactly sized, window — and every worker count.
func TestStreamedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	want, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileEvents(Decode(tr), tr, osL, appL, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{100, 333} {
		sizes := windowAccesses(tr, s, chunk)
		grows := false
		for k := 2; k < len(sizes); k++ {
			// Two buffers alternate, so window k reuses window k%2's buffer.
			grows = grows || sizes[k] > sizes[k%2]
		}
		if !grows {
			t.Fatalf("chunk=%d: no later window outgrows its buffer's first (%v)", chunk, sizes)
		}
	}
	for _, chunk := range []int{100, 333, 1 << 10, 64 << 10, 1 << 20, len(tr.Events) + 1} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("chunk=%d/workers=%d", chunk, workers), func(t *testing.T) {
				view := tr.ChunkView(chunk)
				if !view.Streaming() {
					t.Fatal("ChunkView did not produce a streaming trace")
				}
				got, err := RunManyOpt(view, osL, appL, equivalenceGrid, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i := range equivalenceGrid {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Errorf("%v: streamed result differs from materialised\n  mat: %+v\n  str: %+v",
							equivalenceGrid[i], want[i].Stats, got[i].Stats)
					}
				}
			})
		}
	}
}

// windowAccesses returns the 32 B access count of each chunk-event window
// of tr, read off its materialised stream s.
func windowAccesses(tr *trace.Trace, s *Stream, chunk int) []uint32 {
	var sizes []uint32
	blocks := 0
	for lo := 0; lo < len(tr.Events); lo += chunk {
		n := uint32(0)
		for _, e := range tr.Events[lo:min(lo+chunk, len(tr.Events))] {
			if e.IsBlock() {
				n += uint32(s.counts[blocks])
				blocks++
			}
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// TestStreamedObservedMatchesMaterialised checks that observers see the
// identical event/miss/eviction sequence — and thus produce identical
// windowed statistics — whether the replay is materialised or chunked.
func TestStreamedObservedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(20_000, 7)
	cfgs := []cache.Config{
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 64, Assoc: 2},
	}
	collect := func(streamed bool, chunk, workers int) []*obs.SimStats {
		t.Helper()
		target := tr
		if streamed {
			target = tr.ChunkView(chunk)
		}
		observers := make([]obs.Observer, len(cfgs))
		stats := make([]*obs.SimStats, len(cfgs))
		for i := range cfgs {
			s := obs.NewSimStats(16)
			stats[i] = s
			observers[i] = s
		}
		if _, err := RunManyOpt(target, osL, appL, cfgs, Options{Observers: observers, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return stats
	}
	want := collect(false, 0, 1)
	for _, chunk := range []int{512, 8 << 10} {
		for _, workers := range []int{1, 4} {
			got := collect(true, chunk, workers)
			for i := range cfgs {
				if !reflect.DeepEqual(want[i].Windows, got[i].Windows) {
					t.Errorf("chunk=%d workers=%d cfg=%v: windowed series differ", chunk, workers, cfgs[i])
				}
				if !reflect.DeepEqual(want[i].SetMisses, got[i].SetMisses) ||
					want[i].Evictions != got[i].Evictions ||
					!reflect.DeepEqual(want[i].TopPairs(10), got[i].TopPairs(10)) {
					t.Errorf("chunk=%d workers=%d cfg=%v: observer attributions differ", chunk, workers, cfgs[i])
				}
			}
		}
	}
}

// TestStreamedSingleConfigPaths checks the single-cache replay entry points
// (Run, RunUtil) accept header-only traces and match their materialised
// results exactly. (The paper's Sep/Resv setups are now way partitions of
// one cache, exercised by partition_test.go.)
func TestStreamedSingleConfigPaths(t *testing.T) {
	tr, osL, appL := mixedTrace(12_000, 11)
	view := tr.ChunkView(1 << 10)
	cfg := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}

	wantRun, err := Run(tr, osL, appL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotRun, err := Run(view, osL, appL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRun, gotRun) {
		t.Errorf("Run: streamed differs from materialised")
	}

	wantUtil, wantU, err := RunUtil(tr, osL, appL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotUtil, gotU, err := RunUtil(view, osL, appL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantUtil, gotUtil) || wantU != gotU {
		t.Errorf("RunUtil: streamed differs from materialised")
	}
}
