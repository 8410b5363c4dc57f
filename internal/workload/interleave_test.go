package workload

import (
	"slices"
	"testing"

	"oslayout/internal/trace"
)

// multiOpt is the test grid's interleaving shape: small enough that every
// workload's merged stream builds in milliseconds, jittered (granularity 3)
// so run lengths actually vary.
var multiOpt = InterleaveOptions{CPUs: 3, Granularity: 3, Seed: 0}

// TestInterleaveDeterminism is the tentpole's reproducibility guarantee:
// the same seeds produce a byte-identical merged stream and CPU schedule on
// every regeneration — materialised or header-only, at any chunk size.
func TestInterleaveDeterminism(t *testing.T) {
	k := testKernel(t)
	for _, w := range Paper() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opt := Options{Seed: 21, OSRefs: 60_000}
			want, _, err := GenerateMulti(k, w, opt, multiOpt)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.CheckRuns(); err != nil {
				t.Fatal(err)
			}
			// Regenerate materialised: byte-identical events and runs.
			again, _, err := GenerateMulti(k, w, opt, multiOpt)
			if err != nil {
				t.Fatal(err)
			}
			if len(again.Events) != len(want.Events) {
				t.Fatalf("regeneration: %d events, want %d", len(again.Events), len(want.Events))
			}
			for i := range want.Events {
				if again.Events[i] != want.Events[i] {
					t.Fatalf("regeneration: event %d differs", i)
				}
			}
			if len(again.Runs) != len(want.Runs) {
				t.Fatalf("regeneration: %d runs, want %d", len(again.Runs), len(want.Runs))
			}
			for i := range want.Runs {
				if again.Runs[i] != want.Runs[i] {
					t.Fatalf("regeneration: run %d = %+v, want %+v", i, again.Runs[i], want.Runs[i])
				}
			}

			// Header-only: the reopened stream drains to the same bytes, on
			// every reopen, at several chunk sizes.
			for _, chunk := range []int{1, 777, len(want.Events) + 1} {
				o := opt
				o.ChunkEvents = chunk
				ms, err := NewMultiSource(k, w, o, multiOpt)
				if err != nil {
					t.Fatal(err)
				}
				ht, err := ms.Trace()
				if err != nil {
					t.Fatal(err)
				}
				if err := ht.CheckRuns(); err != nil {
					t.Fatal(err)
				}
				if got, tot := *ht.Total, *want.Summarize(); got != tot {
					t.Fatalf("chunk %d: Totals = %+v, want %+v", chunk, got, tot)
				}
				if len(ht.Runs) != len(want.Runs) {
					t.Fatalf("chunk %d: %d runs, want %d", chunk, len(ht.Runs), len(want.Runs))
				}
				for i := range want.Runs {
					if ht.Runs[i] != want.Runs[i] {
						t.Fatalf("chunk %d: run %d differs", chunk, i)
					}
				}
				for pass := 0; pass < 2; pass++ {
					got := readAll(t, ht.Chunks())
					if len(got) != len(want.Events) {
						t.Fatalf("chunk %d pass %d: %d events, want %d", chunk, pass, len(got), len(want.Events))
					}
					for i := range got {
						if got[i] != want.Events[i] {
							t.Fatalf("chunk %d pass %d: event %d differs", chunk, pass, i)
						}
					}
				}
			}
		})
	}
}

// TestInterleavePreservesPerCPUSubsequences checks the merge model's core
// property: splitting the merged stream by its run schedule recovers each
// CPU's own single-CPU trace exactly — interleaving reorders across CPUs,
// never within one.
func TestInterleavePreservesPerCPUSubsequences(t *testing.T) {
	k := testKernel(t)
	w := Paper()[1] // TRFD+Make: OS and app segments
	mt, _, err := GenerateMulti(k, w, Options{Seed: 21, OSRefs: 60_000}, multiOpt)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMultiSource(k, w, Options{Seed: 21, OSRefs: 60_000}, multiOpt)
	if err != nil {
		t.Fatal(err)
	}
	// A header-only merged trace hands out each CPU's header-only trace,
	// counted in the merging walk: it replays the CPU's own events with
	// their totals, and the walk starts no generator beyond one per CPU.
	before := Opens()
	ht, err := ms.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if n := Opens() - before; n != int64(mt.CPUs) {
		t.Errorf("merged header-only trace started %d generators for %d CPUs", n, mt.CPUs)
	}
	for cpu := 0; cpu < mt.CPUs; cpu++ {
		split, err := mt.CPUTrace(cpu)
		if err != nil {
			t.Fatal(err)
		}
		own, err := ms.Source(cpu).Generate()
		if err != nil {
			t.Fatal(err)
		}
		if len(split.Events) != len(own.Events) {
			t.Fatalf("cpu %d: %d merged events, want %d", cpu, len(split.Events), len(own.Events))
		}
		for i := range own.Events {
			if split.Events[i] != own.Events[i] {
				t.Fatalf("cpu %d: event %d differs from the CPU's own trace", cpu, i)
			}
		}
		header, err := ht.CPUTrace(cpu)
		if err != nil {
			t.Fatal(err)
		}
		if !header.Streaming() || *header.Total != *own.Summarize() {
			t.Errorf("cpu %d: header-only trace totals %+v, want the CPU's own %+v", cpu, header.Total, own.Summarize())
		}
		var replayed []trace.Event
		r := header.Chunks()
		for {
			batch, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) == 0 {
				break
			}
			replayed = append(replayed, batch...)
		}
		if !slices.Equal(replayed, own.Events) {
			t.Errorf("cpu %d: header-only trace replays %d events, not the CPU's own %d", cpu, len(replayed), len(own.Events))
		}
	}

	// A header-only merged trace without per-CPU traces holds no events to
	// cut, and a schedule short of the events cannot be followed: both are
	// refused.
	bare := *ht
	bare.PerCPU = nil
	if _, err := bare.CPUTrace(0); err == nil {
		t.Error("CPUTrace split a header-only merged trace")
	}
	short := *mt
	short.Runs = mt.Runs[:len(mt.Runs)-1]
	if _, err := short.CPUTrace(0); err == nil {
		t.Error("CPUTrace followed a schedule short of the events")
	}
}

// TestInterleaveBoundaries checks that the merge respects OS-invocation
// boundaries: within every run, Begin/End markers nest properly, so a CPU
// switch never lands inside an invocation. It also checks each run's block
// count against the block events of its raw slice.
func TestInterleaveBoundaries(t *testing.T) {
	k := testKernel(t)
	mt, _, err := GenerateMulti(k, Paper()[3], Options{Seed: 21, OSRefs: 60_000}, multiOpt)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for ri, run := range mt.Runs {
		depth, blocks := 0, 0
		for _, e := range mt.Events[pos : pos+run.Events] {
			switch {
			case e.IsBegin():
				depth++
			case e.IsEnd():
				depth--
			case e.IsBlock():
				blocks++
			}
			if depth < 0 {
				t.Fatalf("run %d: End without Begin", ri)
			}
		}
		if depth != 0 {
			t.Fatalf("run %d (cpu %d): CPU switch inside an OS invocation (depth %d)", ri, run.CPU, depth)
		}
		if blocks != run.Blocks {
			t.Fatalf("run %d (cpu %d): %d block events, schedule counts %d", ri, run.CPU, blocks, run.Blocks)
		}
		pos += run.Events
	}
}

// TestInterleaveSingleCPU checks the degenerate merge: one CPU's multi
// trace is that CPU's single trace with one trivial schedule.
func TestInterleaveSingleCPU(t *testing.T) {
	k := testKernel(t)
	w := Paper()[0]
	opt := Options{Seed: 21, OSRefs: 60_000}
	mt, _, err := GenerateMulti(k, w, opt, InterleaveOptions{CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := Generate(k, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Events) != len(single.Events) {
		t.Fatalf("%d events, want %d", len(mt.Events), len(single.Events))
	}
	for i := range single.Events {
		if mt.Events[i] != single.Events[i] {
			t.Fatalf("event %d differs from the single-CPU trace", i)
		}
	}
	var runEvents int
	for _, r := range mt.Runs {
		if r.CPU != 0 {
			t.Fatalf("run on cpu %d in a 1-CPU trace", r.CPU)
		}
		runEvents += r.Events
	}
	if runEvents != len(single.Events) {
		t.Fatalf("schedule covers %d events, want %d", runEvents, len(single.Events))
	}
}
