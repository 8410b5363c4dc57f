// Package obs is the observability layer of the simulation pipeline: it
// attributes where misses and replay time actually go, the instrumentation
// the paper's analysis rests on (self vs cross interference, per-set
// conflicts, conflicting code pairs — Torrellas et al. §4–§6) and the data
// later layout strategies (Pettis-Hansen descendants, Codestitcher-style
// reorderers) consume as input.
//
// Three pieces:
//
//   - Observer / SimStats: a per-configuration replay hook collecting
//     per-set conflict histograms, eviction-provenance breakdowns, a
//     windowed miss-rate time series over the trace, and the top-N
//     conflicting line pairs. Attached at unit-setup time by
//     simulate.RunGroups; a nil observer costs nothing (the replay
//     engine keeps its unobserved fast paths). BlockMisses is the
//     per-block miss attribution observer; CPUStats holds the per-CPU
//     books of a shared-cache replay.
//   - Recorder: scoped spans and counters timing study build, trace
//     generation, per-strategy layout construction and replay throughput.
//     All methods are nil-receiver safe so call sites need no branches.
//   - Manifest: a JSON run manifest (configuration, seed, per-phase
//     timings, results digest, conflict attribution) emitted by the CLI's
//     -report flag.
package obs

import (
	"math"
	"sort"

	"oslayout/internal/cache"
	"oslayout/internal/trace"
)

// Observer receives replay events for one cache configuration. The driver
// guarantees the call order Begin, then per trace event one Event call
// followed by the Evict/Miss calls that event caused (an Evict always
// precedes the Miss that triggered it). Hits are not reported to an
// Observer (see HitObserver): they change no cache state, so every
// miss-derived metric is exact without them, and the engine keeps its
// hit-eliding fast paths (same-line repeats, inclusion-chain skips).
type Observer interface {
	// Begin announces the configuration and the number of block events the
	// replay will process.
	Begin(cfg cache.Config, totalEvents int)
	// Event announces the next block event of the trace: the fetching
	// domain, the block, and the instruction-word references it issues.
	Event(d trace.Domain, block uint32, refs uint64)
	// Miss reports a classified miss on the given line, caused by the
	// current event's block.
	Miss(line uint64, d trace.Domain, class cache.MissClass, block uint32)
	// Evict reports that victimLine was displaced from the given set by a
	// fetch from the evictor domain.
	Evict(victimLine uint64, set int, evictor trace.Domain)
}

// HitObserver is an Observer that is also told of hits: after the Event
// that caused them, every hit of the replay's compiled line stream is
// reported, interleaved in replay order with that event's misses. Hits on
// same-line repeats, elided when the stream is compiled, are still never
// reported; but a direct-mapped cache watched by a HitObserver leaves the
// inclusion chain, so none of its hits is skipped at drive time. The
// shared-cache replay's per-CPU books are the one user: they count hits on
// lines a sibling CPU installed.
type HitObserver interface {
	Observer
	// Hit reports a hit on the given line by the current event.
	Hit(line uint64, d trace.Domain)
}

// Window is one bucket of the miss-rate time series: the references issued
// and misses suffered while the replay was inside the bucket's event range.
type Window struct {
	Refs   uint64 `json:"refs"`
	Misses uint64 `json:"misses"`
}

// MissRate returns the window's miss rate in [0,1].
func (w Window) MissRate() float64 {
	if w.Refs == 0 {
		return 0
	}
	return float64(w.Misses) / float64(w.Refs)
}

// WindowFlush is one live progress sample: a completed miss-rate window of
// one replay, tagged with the workload and cache configuration it came
// from. The experiment environment emits these through its OnWindow hook;
// the serve daemon forwards them over SSE.
type WindowFlush struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Index is the completed window's position in [0, Total); flushes for
	// one (workload, config) pair arrive in strictly increasing order.
	Index  int    `json:"index"`
	Total  int    `json:"total"`
	Window Window `json:"window"`
}

// PairCount is one (victim, evictor) conflict pair with its eviction count.
// Lines are line addresses (byte address / line size).
type PairCount struct {
	VictimLine  uint64 `json:"victim_line"`
	EvictorLine uint64 `json:"evictor_line"`
	Count       uint64 `json:"count"`
}

// SetCount is one cache set with its miss count.
type SetCount struct {
	Set    int    `json:"set"`
	Misses uint64 `json:"misses"`
}

// SimStats is the standard Observer: it materialises every attribution the
// reporting layers read. One instance observes one cache configuration for
// one replay; it must not be shared across concurrent replays.
type SimStats struct {
	Config cache.Config

	// SetMisses is the per-set conflict histogram: misses landing in each
	// set. SetCold/SetSelf/SetCross decompose it by eviction provenance.
	SetMisses []uint64
	SetCold   []uint64
	SetSelf   []uint64
	SetCross  []uint64
	// Windows is the miss-rate time series over the trace.
	Windows []Window
	// Evictions counts total evictions observed.
	Evictions uint64

	// OnWindowFlush, when non-nil, is invoked each time the replay crosses
	// a window boundary, with the index and final contents of every window
	// just completed — the incremental feed behind live progress streaming
	// (SSE). The last window is never flushed through the hook (the replay
	// driver has no end-of-trace callback); readers take it from Windows
	// when the replay returns. Set before Begin; nil (the default) leaves
	// the accumulation path branch-free beyond one pointer test per
	// boundary crossing, so unobserved and hook-free replays are untouched.
	OnWindowFlush func(index int, w Window)

	numWindows  int
	sets        int
	setMask     uint64
	pow2        bool
	totalEvents int
	eventIdx    int
	curWindow   int
	// nextWindowAt is the index of the first event past curWindow, so the
	// per-event path compares instead of dividing.
	nextWindowAt int

	pairs map[pairKey]uint64

	pendingVictim uint64
	havePending   bool
}

type pairKey struct{ victim, evictor uint64 }

// DefaultWindows is the time-series resolution used when NewSimStats is
// given zero.
const DefaultWindows = 32

// NewSimStats returns a SimStats splitting the trace into the given number
// of time-series windows (DefaultWindows when 0).
func NewSimStats(windows int) *SimStats {
	if windows <= 0 {
		windows = DefaultWindows
	}
	return &SimStats{numWindows: windows}
}

// Begin implements Observer.
func (s *SimStats) Begin(cfg cache.Config, totalEvents int) {
	s.Config = cfg
	s.sets = cfg.NumSets()
	s.setMask = uint64(s.sets - 1)
	s.pow2 = s.sets&(s.sets-1) == 0
	s.totalEvents = totalEvents
	s.eventIdx = 0
	s.curWindow = 0
	s.nextWindowAt = s.windowStart(1)
	s.Evictions = 0
	s.SetMisses = make([]uint64, s.sets)
	s.SetCold = make([]uint64, s.sets)
	s.SetSelf = make([]uint64, s.sets)
	s.SetCross = make([]uint64, s.sets)
	s.Windows = make([]Window, s.numWindows)
	s.pairs = make(map[pairKey]uint64)
	s.havePending = false
}

// setOf maps a line address to its set, mirroring the cache's indexing.
func (s *SimStats) setOf(line uint64) int {
	if s.pow2 {
		return int(line & s.setMask)
	}
	return int(line % uint64(s.sets))
}

// windowStart returns the index of the first event of window w: event i
// belongs to window min(i*numWindows/totalEvents, numWindows-1), so window
// w starts at ceil(w*totalEvents/numWindows). No event starts a window
// past the last one, nor any window when the event count is unknown.
func (s *SimStats) windowStart(w int) int {
	if s.totalEvents <= 0 || w >= s.numWindows {
		return math.MaxInt
	}
	return (w*s.totalEvents + s.numWindows - 1) / s.numWindows
}

// Event implements Observer.
func (s *SimStats) Event(d trace.Domain, block uint32, refs uint64) {
	if s.eventIdx >= s.nextWindowAt {
		// The first event of a later window (or of several: windows hold
		// no event when there are fewer events than windows).
		w := min(s.eventIdx*s.numWindows/s.totalEvents, s.numWindows-1)
		if s.OnWindowFlush != nil {
			for i := s.curWindow; i < w; i++ {
				s.OnWindowFlush(i, s.Windows[i])
			}
		}
		s.curWindow = w
		s.nextWindowAt = s.windowStart(w + 1)
	}
	s.Windows[s.curWindow].Refs += refs
	s.eventIdx++
	// A victim pending from the previous event was evicted by a line whose
	// miss the driver already reported; clear any stale carry-over.
	s.havePending = false
}

// Miss implements Observer.
func (s *SimStats) Miss(line uint64, d trace.Domain, class cache.MissClass, block uint32) {
	set := s.setOf(line)
	s.SetMisses[set]++
	switch class {
	case cache.ColdMiss:
		s.SetCold[set]++
	case cache.SelfMiss:
		s.SetSelf[set]++
	case cache.CrossMiss:
		s.SetCross[set]++
	}
	s.Windows[s.curWindow].Misses++
	if s.havePending {
		s.pairs[pairKey{s.pendingVictim, line}]++
		s.havePending = false
	}
}

// Evict implements Observer.
func (s *SimStats) Evict(victimLine uint64, set int, evictor trace.Domain) {
	s.Evictions++
	s.pendingVictim = victimLine
	s.havePending = true
}

// TotalMisses sums the per-set conflict histogram.
func (s *SimStats) TotalMisses() uint64 {
	var n uint64
	for _, m := range s.SetMisses {
		n += m
	}
	return n
}

// Provenance returns the cold/self/cross miss totals.
func (s *SimStats) Provenance() (cold, self, cross uint64) {
	for i := range s.SetMisses {
		cold += s.SetCold[i]
		self += s.SetSelf[i]
		cross += s.SetCross[i]
	}
	return cold, self, cross
}

// TopPairs returns the n most frequent (victim, evictor) conflict pairs,
// most conflicting first, ties broken by line addresses for determinism.
func (s *SimStats) TopPairs(n int) []PairCount {
	out := make([]PairCount, 0, len(s.pairs))
	for k, c := range s.pairs {
		out = append(out, PairCount{VictimLine: k.victim, EvictorLine: k.evictor, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].VictimLine != out[j].VictimLine {
			return out[i].VictimLine < out[j].VictimLine
		}
		return out[i].EvictorLine < out[j].EvictorLine
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopSets returns the n sets with the most misses, ties broken by set index.
func (s *SimStats) TopSets(n int) []SetCount {
	out := make([]SetCount, 0, len(s.SetMisses))
	for set, m := range s.SetMisses {
		if m > 0 {
			out = append(out, SetCount{Set: set, Misses: m})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].Set < out[j].Set
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopSetsShare returns the fraction of all misses concentrated in the n
// most-conflicting sets — a scalar for how skewed the conflict histogram is.
func (s *SimStats) TopSetsShare(n int) float64 {
	total := s.TotalMisses()
	if total == 0 {
		return 0
	}
	var top uint64
	for _, sc := range s.TopSets(n) {
		top += sc.Misses
	}
	return float64(top) / float64(total)
}
