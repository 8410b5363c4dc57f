package simulate

import (
	"fmt"
	"math/bits"

	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// This file defines the compiled line stream: the trace's block events
// resolved, span-expanded and same-line-elided ONCE into flat arrays, so the
// drive loops of a replay that reuses it iterate pre-computed line accesses
// instead of re-deriving them per event. Only a stream source compiles (the
// stream cache, which compiles a stream on its second request and keeps
// it); a replay driven once walks instead, the shared decode when a source
// leaves its stream uncompiled (Uncompiled), the trace when there is no
// source (pipeline.go). The compilation splits into two layers that are
// cached independently (see internal/streamcache):
//
//   - Events: the layout-independent decode of one trace — markers dropped,
//     each block event packed, per-block reference tables. One trace has
//     exactly one Events regardless of how many layouts it is replayed under.
//   - Stream: the layout- and line-size-dependent expansion — the elided
//     line-access sequence with each access's fetching domain, plus
//     per-event access counts so observed drives can announce events (and
//     with them each miss's block) in exact replay order.
//
// Sharing the resolved reference stream across configurations is the classic
// single-pass trick (Hill & Smith's all-associativity simulation, the
// Cheetah simulator); compiling it into a reusable artifact moves the
// amortisation one level up, across RunGroups calls.

// Events is the layout-independent decode of one trace: one packed
// (domain, block) record per basic-block event, the per-block
// instruction-word reference tables, and the per-domain reference totals.
// It is immutable after Decode and safe to share across goroutines.
type Events struct {
	// attrs holds one domain<<eventDomainShift|block record per block event.
	attrs []uint32
	// refsTab[d][b] is block b of domain d's instruction-word references.
	refsTab [trace.NumDomains][]uint64
	// refs is the stream's per-domain reference total.
	refs [trace.NumDomains]uint64
}

// Decode resolves the trace's block events once: markers are dropped and
// each event is packed into a uint32 alongside the per-block reference
// tables the replay needs. Decode materialises the packed events; a
// RunGroups call given no stream source walks the trace in O(chunk)
// memory instead.
func Decode(t *trace.Trace) *Events {
	ev := &Events{}
	ev.refsTab[trace.DomainOS] = refsOf(t.OS)
	if t.App != nil {
		ev.refsTab[trace.DomainApp] = refsOf(t.App)
	}
	ev.attrs = make([]uint32, 0, t.NumEvents())
	r := t.Chunks()
	for {
		batch, err := r.Read()
		if err != nil || len(batch) == 0 {
			break
		}
		for _, e := range batch {
			if !e.IsBlock() {
				continue
			}
			d := e.Domain()
			b := e.Block()
			ev.refs[d] += ev.refsTab[d][b]
			ev.attrs = append(ev.attrs, uint32(d)<<eventDomainShift|uint32(b))
		}
	}
	return ev
}

// NumEvents returns the number of block events in the decoded stream.
func (ev *Events) NumEvents() int { return len(ev.attrs) }

// Refs returns the per-domain instruction-word reference totals.
func (ev *Events) Refs() [trace.NumDomains]uint64 { return ev.refs }

// Bytes estimates the decoded events' memory footprint, for cache budgets.
func (ev *Events) Bytes() int64 {
	return int64(4*len(ev.attrs) + 8*(len(ev.refsTab[0])+len(ev.refsTab[1])))
}

// Stream is the compiled line stream of one (trace, OS layout, app layout,
// line size) tuple: every block event's line span expanded and consecutive
// same-line accesses elided, exactly as a walked replay's drive units
// expand them, or only its decode when it is Uncompiled. A Stream is
// immutable once made; any number of drive workers and RunGroups calls may
// read it concurrently.
type Stream struct {
	ev *Events
	// accs is the elided line-access sequence, one 4-byte word per access:
	// the fetching domain in bit 31, where the event's attr has it, and the
	// line address below. CompileEvents rejects layouts whose line addresses
	// reach 2^31 (a >2G-line code image).
	accs []uint32
	// counts[i] is how many accesses of accs block event i owns, in order
	// (its first is the sum of the counts before it), so observed drives
	// can walk the stream event by event and announce every event —
	// including ones whose accesses were all elided, with count 0 — in
	// exact replay order. One byte suffices: CompileEvents rejects blocks
	// spanning more than 255 lines.
	counts []uint8
}

// streamLineMask extracts the line address from a packed access word; the
// domain bit sits above it.
const streamLineMask = 1<<eventDomainShift - 1

// CompileEvents resolves, expands and elides the trace's line accesses for
// one line size under the given layouts. appL may be nil when the trace has
// no application; lineSize must be a positive power of two. It works on an
// already-decoded event stream, so callers compiling one trace under many
// layouts or line sizes (the stream cache) share a single decode. ev must be
// Decode(t).
func CompileEvents(ev *Events, t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*Stream, error) {
	if err := checkLayouts(t, osL, appL); err != nil {
		return nil, err
	}
	spans, err := spanTables(t, osL, appL, lineSize)
	if err != nil {
		return nil, err
	}
	accs, counts := compile(ev.attrs, &spans)
	return &Stream{ev: ev, accs: accs, counts: counts}, nil
}

// Uncompiled returns the stream of the same tuple left uncompiled: it
// carries only ev, and RunGroups walks ev for it, expanding the line spans
// as it drives, as for a trace given no source. A stream source returns one
// for a stream it has not seen reused. Uncompiled refuses
// what CompileEvents refuses; ev must be Decode(t).
func Uncompiled(ev *Events, t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*Stream, error) {
	if err := checkLayouts(t, osL, appL); err != nil {
		return nil, err
	}
	if _, err := spanTables(t, osL, appL, lineSize); err != nil {
		return nil, err
	}
	return &Stream{ev: ev}, nil
}

// compiled reports whether CompileEvents made s; it always allocates
// counts, one per event, and Uncompiled never does.
func (s *Stream) compiled() bool { return s.counts != nil }

// compile expands and elides attrs under spans in two walks: the first
// counts the accesses (the span lengths less the spans whose first line
// repeats the previous span's last, the one place elision can strike), the
// second writes them into an array of exactly that length along with each
// event's access count.
func compile(attrs []uint32, spans *[trace.NumDomains][]lineSpan) ([]uint32, []uint8) {
	n, prev := 0, noLine
	for _, a := range attrs {
		sp := spans[a>>eventDomainShift][a&(1<<eventDomainShift-1)]
		n += int(sp.Last + 1 - sp.from(prev))
		prev = sp.Last
	}
	accs, counts := make([]uint32, n), make([]uint8, len(attrs))
	j := 0
	prev = noLine
	for i, a := range attrs {
		sp := spans[a>>eventDomainShift][a&(1<<eventDomainShift-1)]
		dom := a & (1 << eventDomainShift)
		line := sp.from(prev)
		prev = sp.Last
		counts[i] = uint8(sp.Last + 1 - line)
		for ; line <= sp.Last; line++ {
			accs[j] = dom | line
			j++
		}
	}
	return accs, counts
}

// Accesses returns the number of line accesses after elision, 0 for an
// uncompiled stream.
func (s *Stream) Accesses() int { return len(s.accs) }

// Events returns the shared decoded event stream the Stream was compiled
// from.
func (s *Stream) Events() *Events { return s.ev }

// Bytes estimates the stream's own memory footprint (excluding the shared
// Events), for cache budgets: four bytes per access and one per event.
func (s *Stream) Bytes() int64 {
	return int64(4*len(s.accs) + len(s.counts))
}

// StreamSource supplies the streams of a materialised trace to RunGroups;
// implementations (internal/streamcache.Cache) memoize compilation across
// calls. A source may leave a stream Uncompiled, and RunGroups then walks
// the decode for it. A source must be safe for concurrent use.
type StreamSource interface {
	Stream(t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*Stream, error)
}

// refsOf precomputes per-block instruction-word reference counts.
func refsOf(p *program.Program) []uint64 {
	tab := make([]uint64, p.NumBlocks())
	for b := range tab {
		tab[b] = trace.RefsOf(p.Block(program.BlockID(b)).Size)
	}
	return tab
}

// lineSpan is the precomputed [First, Last] line-address range one block's
// execution touches under a given line size. spanTables admits only line
// addresses below the packed access word's domain bit, so a span fits in
// two 32-bit words, and only spans of at most maxSpanLines lines, so an
// event's access count fits in a byte.
type lineSpan struct {
	First, Last uint32
}

// noLine is the line before a replay's first span: no line address reaches
// it, so the first span is never elided.
const noLine = ^uint32(0)

// from returns the first line of sp left after same-line elision against
// prev, the last line of the span before it. Lines within a span strictly
// increase, so elision can strike only a span's first line; a one-line span
// it strikes is left empty (from returns Last+1).
func (sp lineSpan) from(prev uint32) uint32 {
	if sp.First == prev {
		return sp.First + 1
	}
	return sp.First
}

// spanTables precomputes, for one line size, the line-address range each
// block's execution covers under the given layouts, rejecting a line size
// that is not a positive power of two, line addresses that reach the packed
// access word's domain bit and blocks that span more lines than a
// per-event count holds.
func spanTables(t *trace.Trace, osL, appL *layout.Layout, lineSize int) ([trace.NumDomains][]lineSpan, error) {
	var tabs [trace.NumDomains][]lineSpan
	if lineSize <= 0 || bits.OnesCount(uint(lineSize)) != 1 {
		return tabs, fmt.Errorf("simulate: line size %d not a positive power of two", lineSize)
	}
	shift := uint(bits.TrailingZeros(uint(lineSize)))
	var err error
	if tabs[trace.DomainOS], err = spansOf(osL, shift); err != nil {
		return tabs, err
	}
	if t.App != nil {
		tabs[trace.DomainApp], err = spansOf(appL, shift)
	}
	return tabs, err
}

// maxSpanLines is the most lines one block may span in a compiled stream:
// the largest per-event access count a byte holds.
const maxSpanLines = 255

func spansOf(l *layout.Layout, shift uint) ([]lineSpan, error) {
	spans := make([]lineSpan, len(l.Addr))
	for b, addr := range l.Addr {
		size := l.Prog.Block(program.BlockID(b)).Size
		first, last := addr>>shift, (addr+uint64(size)-1)>>shift
		if last > streamLineMask {
			return nil, fmt.Errorf("simulate: line address %#x exceeds the packed 31-bit stream range; cannot compile", last)
		}
		if n := last - first + 1; n > maxSpanLines {
			return nil, fmt.Errorf("simulate: block %d spans %d lines, more than the %d a per-event access count holds; cannot compile", b, n, maxSpanLines)
		}
		spans[b] = lineSpan{uint32(first), uint32(last)}
	}
	return spans, nil
}
