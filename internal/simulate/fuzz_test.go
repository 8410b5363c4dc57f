package simulate

import (
	"slices"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// FuzzChunkCompile walks an event sequence window by window through drive
// units, as a walked replay does, and compiles it whole, as CompileEvents
// does, checking both against a naive per-line reference. The input is a
// span table, the block events and the window lengths:
//
//   - spans: bytes 0..63 are the OS blocks and bytes 64..127 the
//     application blocks; a byte b is a span of b&3+1 lines starting at
//     line b>>2, so spans overlap and repeat lines often;
//   - events: a byte e is block e&127 (modulo the domain's block count) of
//     domain e>>7, or of the other domain when that one has no blocks;
//   - cuts: each byte is one window's length in events; the events left
//     after the last cut form a final window.
//
// Two units walk the windows, each carrying its own elision state across
// them: an unobserved one (no watchers) through a chain runner and an
// observed one through a rest runner. Each runner's probe never hits, since
// its cache is never accessed, and its access function records every line,
// so a unit's recorded lines are exactly the ones it drives; the observed
// unit's recorder also opens a count at each Event. Each window's lines,
// and the observed unit's per-event counts, must equal the reference's,
// and the whole compile's accesses and counts the reference's over all
// events.
func FuzzChunkCompile(f *testing.F) {
	// Spans of 4 lines at lines 0, 8 and 16, and of 2 lines at line 19.
	// The second window's fourth event elides its first line against the
	// third's last.
	f.Add([]byte{3, 35, 67, 77}, []byte{0, 1, 0, 1, 2, 3}, []byte{2, 4})
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

	f.Fuzz(checkChunkCompile)
}

// lineRecorder stands in for a cache in FuzzChunkCompile: its access
// function records every access as a packed access word and reports a hit,
// and as an observer it opens a new per-event count at each Event.
type lineRecorder struct {
	accs   []uint32
	counts []uint8
}

func (r *lineRecorder) access(line uint64, d trace.Domain) cache.MissClass {
	r.accs = append(r.accs, uint32(d)<<eventDomainShift|uint32(line))
	if len(r.counts) > 0 {
		r.counts[len(r.counts)-1]++
	}
	return cache.Hit
}

func (r *lineRecorder) Begin(cache.Config, int)                            {}
func (r *lineRecorder) Event(trace.Domain, uint32, uint64)                 { r.counts = append(r.counts, 0) }
func (r *lineRecorder) Miss(uint64, trace.Domain, cache.MissClass, uint32) {}
func (r *lineRecorder) Evict(uint64, int, trace.Domain)                    {}

// checkChunkCompile runs one FuzzChunkCompile input.
func checkChunkCompile(t *testing.T, spanBytes, events, cuts []byte) {
	var spans [trace.NumDomains][]lineSpan
	for i, b := range spanBytes[:min(len(spanBytes), 128)] {
		first := uint32(b >> 2)
		spans[i/64] = append(spans[i/64], lineSpan{first, first + uint32(b&3)})
	}
	if len(spans[trace.DomainOS]) == 0 {
		return
	}
	attrs := make([]uint32, len(events))
	for i, e := range events {
		d := e >> 7
		if len(spans[d]) == 0 {
			d ^= 1
		}
		attrs[i] = uint32(d)<<eventDomainShift | uint32(int(e&127)%len(spans[d]))
	}

	wantAccs, wantCounts, _ := naiveCompile(spans, noLine, attrs)
	accs, counts := compile(attrs, &spans)
	if !slices.Equal(accs, wantAccs) || !slices.Equal(counts, wantCounts) {
		t.Fatalf("compile %v: accesses %v counts %v, want %v and %v", attrs, accs, counts, wantAccs, wantCounts)
	}

	// Fresh caches are never accessed, so their probes never hit.
	probed := cache.MustNew(cache.Config{Size: 64, Line: 32, Assoc: 1})
	dm, _ := probed.Probe()
	plain, watched := &lineRecorder{}, &lineRecorder{}
	units := []driveUnit{
		{chain: []chainRunner{{access: plain.access, probe: dm}}, spans: &spans, prev: noLine},
		{rest: []restRunner{{access: watched.access, probe: probed.MRUProbe()}},
			ws: []obs.Observer{watched}, spans: &spans, prev: noLine},
	}
	d := &unitData{}
	for dom, tab := range spans {
		d.refsTab[dom] = make([]uint64, len(tab))
	}
	prev := noLine
	for w, lo := 0, 0; lo < len(attrs) || w <= len(cuts); w++ {
		hi := len(attrs)
		if w < len(cuts) {
			hi = min(lo+int(cuts[w]), len(attrs))
		}
		d.attrs = attrs[lo:hi]
		lo = hi

		var wantAccs []uint32
		var wantCounts []uint8
		wantAccs, wantCounts, prev = naiveCompile(spans, prev, d.attrs)
		plain.accs, watched.accs, watched.counts = plain.accs[:0], watched.accs[:0], watched.counts[:0]
		for k := range units {
			units[k].drive(d)
		}
		for _, r := range []*lineRecorder{plain, watched} {
			if !slices.Equal(r.accs, wantAccs) {
				t.Fatalf("window %d %v: walked lines %v, want %v", w, d.attrs, r.accs, wantAccs)
			}
		}
		if !slices.Equal(watched.counts, wantCounts) {
			t.Fatalf("window %d %v: observed walk's event access counts %v, want %v", w, d.attrs, watched.counts, wantCounts)
		}
	}
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
