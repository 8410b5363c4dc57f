package simulate

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// TestStreamedMatchesMaterialised is the walk's acceptance test. Its
// baseline is the compiled path, a materialised trace through a stream
// source, which must equal Run config by config. Walked replays must
// reproduce it bit for bit: the materialised trace given no source, and
// header-only views at every chunk size, including one larger than the
// trace so the whole trace is one window, each at every worker count.
func TestStreamedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	want, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{Streams: &countingSource{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range equivalenceGrid {
		r, err := Run(tr, osL, appL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[i], r) {
			t.Errorf("%v: compiled result differs from Run\n  compiled: %+v\n  Run:      %+v", cfg, want[i].Stats, r.Stats)
		}
	}
	check := func(t *testing.T, src *trace.Trace, workers int) {
		t.Helper()
		got, err := RunManyOpt(src, osL, appL, equivalenceGrid, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range equivalenceGrid {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%v: walked result differs from compiled\n  compiled: %+v\n  walked:   %+v",
					equivalenceGrid[i], want[i].Stats, got[i].Stats)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("materialised/workers=%d", workers), func(t *testing.T) { check(t, tr, workers) })
	}
	for _, chunk := range []int{100, 333, 1 << 10, 64 << 10, 1 << 20, len(tr.Events) + 1} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("chunk=%d/workers=%d", chunk, workers), func(t *testing.T) {
				view := tr.ChunkView(chunk)
				if !view.Streaming() {
					t.Fatal("ChunkView did not produce a streaming trace")
				}
				check(t, view, workers)
			})
		}
	}
}

// TestStreamedObservedMatchesMaterialised checks that observers see the
// identical event/miss/eviction sequence — and thus produce identical
// windowed statistics — whether the replay drives a compiled stream (the
// baseline, through a stream source) or walks the trace, materialised or
// chunked into many windows. At 8 workers each of the two streams splits
// into several units, and each unit carries its own elision state across
// the windows. Two configurations are watched by hit observers: the
// direct-mapped one, which its observer keeps out of the inclusion chain
// so that its every hit is an MRU probe hit, and a 2-way one, whose hits
// in its second way come back from the access function. Each must hear the
// same Event/Hit/Miss sequence on every path, and in the baseline one hit
// or miss per access of its compiled stream.
func TestStreamedObservedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(20_000, 7)
	cfgs := []cache.Config{
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 2},
		{Size: 2 << 10, Line: 32, Assoc: 4, Policy: cache.RandomReplacement},
		{Size: 2 << 10, Line: 64, Assoc: 2},
		{Size: 4 << 10, Line: 64, Assoc: 1},
	}
	logged := []int{0, 1}
	collect := func(src *trace.Trace, opt Options) ([]*obs.SimStats, []*hitLog) {
		t.Helper()
		stats := make([]*obs.SimStats, len(cfgs))
		opt.Observers = make([]obs.Observer, len(cfgs))
		for i := range cfgs {
			stats[i] = obs.NewSimStats(16)
			opt.Observers[i] = stats[i]
		}
		logs := make([]*hitLog, len(logged))
		for k, i := range logged {
			logs[k] = &hitLog{SimStats: stats[i]}
			opt.Observers[i] = logs[k]
		}
		if _, err := RunManyOpt(src, osL, appL, cfgs, opt); err != nil {
			t.Fatal(err)
		}
		return stats, logs
	}
	want, wantLogs := collect(tr, Options{Streams: &countingSource{}})
	ev := Decode(tr)
	for k, i := range logged {
		s, err := CompileEvents(ev, tr, osL, appL, cfgs[i].Line)
		if err != nil {
			t.Fatal(err)
		}
		var events, lines int
		for _, c := range wantLogs[k].calls {
			if c.kind == 'e' {
				events++
			} else {
				lines++
			}
		}
		if events != ev.NumEvents() || lines != s.Accesses() {
			t.Errorf("cfg=%v: compiled replay reported %d events and %d hits and misses, want %d and %d",
				cfgs[i], events, lines, ev.NumEvents(), s.Accesses())
		}
	}
	for _, chunk := range []int{0, 100, 512, 8 << 10} {
		for _, workers := range []int{1, 4, 8} {
			src := tr
			if chunk > 0 {
				src = tr.ChunkView(chunk)
			}
			got, gotLogs := collect(src, Options{Workers: workers})
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
			for k, i := range logged {
				if !slices.Equal(wantLogs[k].calls, gotLogs[k].calls) {
					t.Errorf("chunk=%d workers=%d cfg=%v: Event/Hit/Miss sequences differ", chunk, workers, cfgs[i])
				}
			}
		}
	}
}

// hitLog is a hit observer that keeps SimStats' books and logs every
// Event, Hit and Miss it hears, in order.
type hitLog struct {
	*obs.SimStats
	calls []hitCall
}

// hitCall is one logged call: kind 'e' carries an event's block, 'h' and
// 'm' a hit's or miss's line.
type hitCall struct {
	kind  byte
	d     trace.Domain
	addr  uint64
	class cache.MissClass
}

func (h *hitLog) Event(d trace.Domain, b uint32, refs uint64) {
	h.calls = append(h.calls, hitCall{kind: 'e', d: d, addr: uint64(b)})
	h.SimStats.Event(d, b, refs)
}

func (h *hitLog) Hit(line uint64, d trace.Domain) {
	h.calls = append(h.calls, hitCall{kind: 'h', d: d, addr: line})
}

func (h *hitLog) Miss(line uint64, d trace.Domain, cl cache.MissClass, b uint32) {
	h.calls = append(h.calls, hitCall{kind: 'm', d: d, addr: line, class: cl})
	h.SimStats.Miss(line, d, cl, b)
}

// TestPartlyCompiledMatchesRun drives calls whose source compiled some of
// their streams and left the others Uncompiled, as a stream cache does for
// streams it sees for the first time, so compiled and walking units share
// the one window of the decode. Three configurations are watched by
// logging hit observers, one by SimStats, and the rest, inclusion chains
// among them, by nothing. At workers 1 and 4 every result must equal Run's,
// and each logging observer must hear the Event/Hit/Miss sequence it hears
// in an all-compiled call.
func TestPartlyCompiledMatchesRun(t *testing.T) {
	tr, osL, appL := mixedTrace(20_000, 13)
	cfgs := []cache.Config{
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 2},
		{Size: 2 << 10, Line: 64, Assoc: 2},
		{Size: 4 << 10, Line: 64, Assoc: 1},
		{Size: 8 << 10, Line: 64, Assoc: 1},
	}
	logged := []int{0, 3, 4}
	const watched = 5
	ev := Decode(tr)
	run := func(compiled map[int]bool, workers int) ([]*Result, [][]hitCall) {
		t.Helper()
		opt := Options{Streams: &partSource{ev: ev, compiled: compiled}, Workers: workers,
			Observers: make([]obs.Observer, len(cfgs))}
		opt.Observers[watched] = obs.NewSimStats(16)
		logs := make([]*hitLog, len(logged))
		for k, i := range logged {
			logs[k] = &hitLog{SimStats: obs.NewSimStats(16)}
			opt.Observers[i] = logs[k]
		}
		res, err := RunManyOpt(tr, osL, appL, cfgs, opt)
		if err != nil {
			t.Fatal(err)
		}
		calls := make([][]hitCall, len(logs))
		for k := range logs {
			calls[k] = logs[k].calls
		}
		return res, calls
	}
	_, want := run(map[int]bool{32: true, 64: true}, 1)
	for _, compiled := range []map[int]bool{{32: true}, {64: true}, {}} {
		for _, workers := range []int{1, 4} {
			got, calls := run(compiled, workers)
			for i, cfg := range cfgs {
				r, err := Run(tr, osL, appL, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r, got[i]) {
					t.Errorf("compiled=%v workers=%d %v: result differs from Run\n  got: %+v\n  Run: %+v",
						compiled, workers, cfg, got[i].Stats, r.Stats)
				}
			}
			for k, i := range logged {
				if !slices.Equal(want[k], calls[k]) {
					t.Errorf("compiled=%v workers=%d %v: Event/Hit/Miss sequence differs from the all-compiled call",
						compiled, workers, cfgs[i])
				}
			}
		}
	}
}

// partSource compiles the streams of the line sizes in compiled and leaves
// every other stream Uncompiled.
type partSource struct {
	ev       *Events
	compiled map[int]bool
}

func (p *partSource) Stream(t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*Stream, error) {
	if p.compiled[lineSize] {
		return CompileEvents(p.ev, t, osL, appL, lineSize)
	}
	return Uncompiled(p.ev, t, osL, appL, lineSize)
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
