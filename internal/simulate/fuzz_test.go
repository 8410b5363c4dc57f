package simulate

import (
	"slices"
	"testing"

	"oslayout/internal/trace"
)

// FuzzChunkCompile compiles an event sequence window by window into one
// reused lineWindow, as the streamed pipeline does, and checks every window
// against a naive per-line reference. The input is a span table, the block
// events and the window lengths:
//
//   - spans: bytes 0..63 are the OS blocks and bytes 64..127 the
//     application blocks; a byte b is a span of b&3+1 lines starting at
//     line b>>2, so spans overlap and repeat lines often;
//   - events: a byte e is block e&127 (modulo the domain's block count) of
//     domain e>>7, or of the other domain when that one has no blocks;
//   - cuts: each byte is one window's length in events; the events left
//     after the last cut form a final window.
//
// Each window's accesses, and its per-event access counts when they are
// asked for, must equal the reference's. After each window the access
// buffer's capacity must be the largest window's exact count so far, and
// the count buffer's the longest window's length: the buffers grow only to
// what a window needs.
func FuzzChunkCompile(f *testing.F) {
	// Spans of 4 lines at lines 0, 8 and 16, and of 2 lines at line 19.
	// The first window needs 8 accesses. The second's first two events fit
	// that buffer, its third does not, and its fourth elides its first
	// line against the third's last, which the count of the rest must see.
	growSpans, growEvents, growCuts := []byte{3, 35, 67, 77}, []byte{0, 1, 0, 1, 2, 3}, []byte{2, 4}
	f.Add(growSpans, growEvents, growCuts)
	// Block 1 starts on block 0's last line, and a window starts with it.
	f.Add([]byte{3, 13}, []byte{0, 1, 1, 0, 1}, []byte{1, 2})
	// One single-line block repeated: every event after the first elides
	// its only access, across empty and all-elided windows.
	f.Add([]byte{20}, []byte{0, 0, 0, 0, 0}, []byte{0, 1, 0, 3})
	// Both domains, whose spans share line addresses.
	spans := make([]byte, 128)
	for i := range spans {
		spans[i] = byte(i * 37)
	}
	f.Add(spans, []byte{0, 128, 5, 133, 133, 200, 7, 255, 64, 1, 129, 2}, []byte{3, 0, 5})

	if checkChunkCompile(f, growSpans, growEvents, growCuts) == 0 {
		f.Fatal("no window of the growth seed outgrew its buffer after its first event")
	}
	f.Fuzz(func(t *testing.T, spans, events, cuts []byte) {
		checkChunkCompile(t, spans, events, cuts)
	})
}

// checkChunkCompile runs one FuzzChunkCompile input and returns how many
// windows outgrew their buffer after their first event fitted it.
func checkChunkCompile(tb testing.TB, spanBytes, events, cuts []byte) (midGrows int) {
	tb.Helper()
	var spans [trace.NumDomains][]lineSpan
	for i, b := range spanBytes[:min(len(spanBytes), 128)] {
		first := uint32(b >> 2)
		spans[i/64] = append(spans[i/64], lineSpan{first, first + uint32(b&3)})
	}
	if len(spans[trace.DomainOS]) == 0 {
		return 0
	}
	attrs := make([]uint32, len(events))
	for i, e := range events {
		d := e >> 7
		if len(spans[d]) == 0 {
			d ^= 1
		}
		attrs[i] = uint32(d)<<eventDomainShift | uint32(int(e&127)%len(spans[d]))
	}

	// Two compilers, with and without per-event access counts, each with
	// its own reused window; prev starts where newChunkCompiler starts it.
	withCounts := &chunkCompiler{spans: spans, prev: ^uint32(0)}
	noCounts := &chunkCompiler{spans: spans, prev: ^uint32(0)}
	var lwCounts, lwNoCounts lineWindow
	prev := ^uint32(0)
	maxAccs, maxEvents := 0, 0
	for w, lo := 0, 0; lo < len(attrs) || w <= len(cuts); w++ {
		hi := len(attrs)
		if w < len(cuts) {
			hi = min(lo+int(cuts[w]), len(attrs))
		}
		window := attrs[lo:hi]
		lo = hi

		var wantAccs []uint32
		var wantCounts []uint8
		wantAccs, wantCounts, prev = naiveCompile(spans, prev, window)
		if len(window) > 0 && wantCounts[0] > 0 && int(wantCounts[0]) <= cap(lwNoCounts.accs) && len(wantAccs) > cap(lwNoCounts.accs) {
			midGrows++
		}
		maxAccs, maxEvents = max(maxAccs, len(wantAccs)), max(maxEvents, len(window))

		withCounts.compile(window, &lwCounts, true)
		noCounts.compile(window, &lwNoCounts, false)
		for _, lw := range []lineWindow{lwCounts, lwNoCounts} {
			if !slices.Equal(lw.accs, wantAccs) {
				tb.Fatalf("window %d %v: accesses %v, want %v", w, window, lw.accs, wantAccs)
			}
			if cap(lw.accs) != maxAccs {
				tb.Fatalf("window %d: access buffer capacity %d, want the largest exact count %d", w, cap(lw.accs), maxAccs)
			}
		}
		if !slices.Equal(lwCounts.counts, wantCounts) {
			tb.Fatalf("window %d %v: event access counts %v, want %v", w, window, lwCounts.counts, wantCounts)
		}
		if cap(lwCounts.counts) != maxEvents {
			tb.Fatalf("window %d: count buffer capacity %d, want the longest window %d", w, cap(lwCounts.counts), maxEvents)
		}
		if lwNoCounts.counts != nil {
			tb.Fatalf("window %d: compiled without counts, got %v", w, lwNoCounts.counts)
		}
	}
	return midGrows
}

// naiveCompile is the reference compiler: it expands every span line by
// line and elides each line equal to the one before it, carrying prev from
// the previous window, and returns the window's accesses, the number each
// event emitted and the new prev.
func naiveCompile(spans [trace.NumDomains][]lineSpan, prev uint32, attrs []uint32) (accs []uint32, counts []uint8, last uint32) {
	for _, a := range attrs {
		sp := spans[a>>eventDomainShift][a&(1<<eventDomainShift-1)]
		n := 0
		for line := sp.First; line <= sp.Last; line++ {
			if line == prev {
				continue
			}
			prev = line
			accs = append(accs, a&(1<<eventDomainShift)|line)
			n++
		}
		counts = append(counts, uint8(n))
	}
	return accs, counts, prev
}
