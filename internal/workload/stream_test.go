package workload

import (
	"slices"
	"testing"

	"oslayout/internal/trace"
)

// readAll drains a trace reader into one slice.
func readAll(t *testing.T, r trace.Reader) []trace.Event {
	t.Helper()
	var all []trace.Event
	for {
		batch, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return all
		}
		all = append(all, batch...)
	}
}

// TestSourceReplaysGenerate is the generation-identity guarantee behind the
// streaming pipeline: a Source's regenerated stream must equal the
// materialised Generate output event for event — at any chunk size, and on
// every reopen — because Generate is itself a drain of the same generator.
func TestSourceReplaysGenerate(t *testing.T) {
	k := testKernel(t)
	for _, w := range Paper() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opt := Options{Seed: 9, OSRefs: 60_000}
			tr, _, err := Generate(k, w, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 777, 16 << 10, len(tr.Events) + 1} {
				opt.ChunkEvents = chunk
				s, err := NewSource(k, w, opt)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got := readAll(t, s.Open())
					if len(got) != len(tr.Events) {
						t.Fatalf("chunk %d pass %d: %d events, want %d", chunk, pass, len(got), len(tr.Events))
					}
					for i := range got {
						if got[i] != tr.Events[i] {
							t.Fatalf("chunk %d pass %d: event %d differs", chunk, pass, i)
						}
					}
				}
			}
		})
	}
}

// TestGenerateStreamingHeaderOnly checks the header-only trace a streaming
// study hands to the replay engine: no materialised events, a Source that
// regenerates them, and Totals matching the materialised trace exactly.
func TestGenerateStreamingHeaderOnly(t *testing.T) {
	k := testKernel(t)
	w := TRFDMake()
	opt := Options{Seed: 9, OSRefs: 60_000}
	mat, _, err := Generate(k, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	str, app, err := GenerateStreaming(k, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if app == nil || str.App == nil {
		t.Fatal("streaming trace lost the application")
	}
	if !str.Streaming() || str.Events != nil {
		t.Fatal("GenerateStreaming returned a materialised trace")
	}
	if got, want := str.NumEvents(), mat.NumEvents(); got != want {
		t.Errorf("NumEvents = %d, want %d", got, want)
	}
	gotOS, gotApp := str.Refs()
	wantOS, wantApp := mat.Refs()
	if gotOS != wantOS || gotApp != wantApp {
		t.Errorf("Refs = (%d, %d), want (%d, %d)", gotOS, gotApp, wantOS, wantApp)
	}
	wantTot := mat.Summarize()
	if *str.Total != *wantTot {
		t.Errorf("Totals = %+v, want %+v", *str.Total, *wantTot)
	}
	got := readAll(t, str.Chunks())
	if len(got) != len(mat.Events) {
		t.Fatalf("regenerated %d events, want %d", len(got), len(mat.Events))
	}
	for i := range got {
		if got[i] != mat.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestTraceCountsAndFeedsInOneWalk checks the one-walk header-only trace a
// streamed study builds: the batches Trace feeds concatenate to Generate's
// events, its Totals equal the materialised trace's, and it starts exactly
// one generator, at two chunk sizes and for every paper workload.
func TestTraceCountsAndFeedsInOneWalk(t *testing.T) {
	k := testKernel(t)
	for _, w := range Paper() {
		opt := Options{Seed: 9, OSRefs: 60_000}
		mat, _, err := Generate(k, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{777, 16 << 10} {
			opt.ChunkEvents = chunk
			s, err := NewSource(k, w, opt)
			if err != nil {
				t.Fatal(err)
			}
			var fed []trace.Event
			before := Opens()
			str, err := s.Trace(func(batch []trace.Event) { fed = append(fed, batch...) })
			if err != nil {
				t.Fatal(err)
			}
			if n := Opens() - before; n != 1 {
				t.Errorf("%s chunk %d: Trace started %d generators, want 1", w.Name, chunk, n)
			}
			if !slices.Equal(fed, mat.Events) {
				t.Fatalf("%s chunk %d: fed %d events that differ from Generate's %d", w.Name, chunk, len(fed), len(mat.Events))
			}
			if got, want := *str.Total, *mat.Summarize(); got != want {
				t.Errorf("%s chunk %d: Totals = %+v, want %+v", w.Name, chunk, got, want)
			}
		}
	}
}
