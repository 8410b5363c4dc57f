package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

func TestSimStatsCollects(t *testing.T) {
	s := NewSimStats(4)
	cfg := cache.Config{Size: 128, Line: 32, Assoc: 1} // 4 sets
	s.Begin(cfg, 8)

	// Two lines mapping to set 1 (lines 1 and 5) conflicting repeatedly.
	for i := 0; i < 8; i++ {
		line := uint64(1)
		if i%2 == 1 {
			line = 5
		}
		s.Event(trace.DomainOS, uint32(i), 8)
		class := cache.SelfMiss
		if i < 2 {
			class = cache.ColdMiss
		} else {
			victim := uint64(5)
			if line == 5 {
				victim = 1
			}
			s.Evict(victim, 1, trace.DomainOS)
		}
		s.Miss(line, trace.DomainOS, class, uint32(i))
	}

	if s.TotalMisses() != 8 {
		t.Errorf("TotalMisses = %d, want 8", s.TotalMisses())
	}
	if s.SetMisses[1] != 8 || s.SetMisses[0] != 0 {
		t.Errorf("SetMisses = %v, want all 8 in set 1", s.SetMisses)
	}
	cold, self, cross := s.Provenance()
	if cold != 2 || self != 6 || cross != 0 {
		t.Errorf("Provenance = %d/%d/%d, want 2/6/0", cold, self, cross)
	}
	if s.SetCold[1] != 2 {
		t.Errorf("SetCold[1] = %d, want one cold miss for each of the 2 distinct lines", s.SetCold[1])
	}
	var refs uint64
	for _, w := range s.Windows {
		refs += w.Refs
	}
	if refs != 64 {
		t.Errorf("windowed refs = %d, want 64", refs)
	}
	if len(s.Windows) != 4 || s.Windows[0].Refs != 16 {
		t.Errorf("windows = %+v, want 4 windows of 16 refs", s.Windows)
	}
	pairs := s.TopPairs(10)
	if len(pairs) != 2 {
		t.Fatalf("TopPairs = %+v, want the two (victim,evictor) directions", pairs)
	}
	if pairs[0].Count != 3 || pairs[1].Count != 3 {
		t.Errorf("pair counts = %d/%d, want 3/3", pairs[0].Count, pairs[1].Count)
	}
	if s.TopSetsShare(1) != 1.0 {
		t.Errorf("TopSetsShare(1) = %v, want 1.0 (all misses in one set)", s.TopSetsShare(1))
	}
	if got := s.TopSets(1); len(got) != 1 || got[0].Set != 1 {
		t.Errorf("TopSets(1) = %+v, want set 1", got)
	}
}

func TestSimStatsModuloSets(t *testing.T) {
	s := NewSimStats(2)
	s.Begin(cache.Config{Size: 96, Line: 32, Assoc: 1}, 2) // 3 sets: modulo
	s.Event(trace.DomainOS, 0, 8)
	s.Miss(4, trace.DomainOS, cache.ColdMiss, 0) // 4 % 3 = set 1
	if s.SetMisses[1] != 1 {
		t.Errorf("SetMisses = %v, want miss in set 1", s.SetMisses)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Span("x")()
	r.Add("c", 1)
	r.AddReplay(10, time.Second)
	if r.Phases() != nil || r.Counters() != nil || r.EventsPerSec() != 0 {
		t.Error("nil recorder returned data")
	}
}

func TestRecorderRecords(t *testing.T) {
	r := NewRecorder()
	done := r.Span("build")
	done()
	r.Add("widgets", 2)
	r.Add("widgets", 3)
	r.AddReplay(1_000_000, 500*time.Millisecond)
	ph := r.Phases()
	if len(ph) != 1 || ph[0].Name != "build" || ph[0].Millis < 0 {
		t.Errorf("Phases = %+v", ph)
	}
	if r.Counters()["widgets"] != 5 {
		t.Errorf("counter = %d, want 5", r.Counters()["widgets"])
	}
	if eps := r.EventsPerSec(); eps < 1_900_000 || eps > 2_100_000 {
		t.Errorf("EventsPerSec = %v, want ~2e6", eps)
	}
}

func TestManifestWrite(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		Command:  "oslayout table1",
		Flags:    map[string]string{"refs": "400000"},
		Seed:     1995,
		Refs:     400000,
		Phases:   []Phase{{Name: "study.build", Millis: 12.5}},
		Counters: map[string]uint64{"replay.events": 10},
		Results:  map[string]string{"table1": Digest("rendered")},
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if got.Seed != 1995 || got.Results["table1"] != m.Results["table1"] || len(got.Phases) != 1 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	// No temp files may remain.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want only manifest.json", len(entries))
	}
}

func TestDigestStable(t *testing.T) {
	if Digest("a") == Digest("b") || len(Digest("a")) != 64 {
		t.Error("Digest not a 64-hex distinguishing hash")
	}
}

func TestLineResolver(t *testing.T) {
	p := program.New("os")
	r1 := p.AddRoutine("alpha")
	b1 := p.AddBlock(r1, 64)
	r2 := p.AddRoutine("beta")
	b2 := p.AddBlock(r2, 32)
	l := layout.New("test", p, 0)
	l.Place(b1, 0)
	l.Place(b2, 64)
	res := NewLineResolver(32, l)
	for _, tc := range []struct {
		line uint64
		want string
	}{{0, "alpha"}, {1, "alpha"}, {2, "beta"}, {3, "beta"}} {
		if got := res.Owner(tc.line); got != tc.want {
			t.Errorf("Owner(%d) = %q, want %q", tc.line, got, tc.want)
		}
	}
	if NewLineResolver(32, nil).Owner(0) != "?" {
		t.Error("empty resolver should answer ?")
	}
}

// TestSimStatsWindowFlush drives a synthetic event stream through two
// SimStats — one with the flush hook, one without — and checks (a) the
// hook delivers every completed window exactly once, in order, with the
// same contents the final Windows slice holds, and (b) the accumulated
// statistics are identical with and without the hook.
func TestSimStatsWindowFlush(t *testing.T) {
	cfg := cache.Config{Size: 128, Line: 32, Assoc: 1}
	const events, windows = 40, 4

	drive := func(s *SimStats) {
		s.Begin(cfg, events)
		for i := 0; i < events; i++ {
			s.Event(trace.DomainOS, uint32(i), 8)
			if i%3 == 0 {
				s.Miss(uint64(i%7), trace.DomainOS, cache.SelfMiss, uint32(i))
			}
		}
	}

	plain := NewSimStats(windows)
	drive(plain)

	hooked := NewSimStats(windows)
	var flushed []WindowFlush
	hooked.OnWindowFlush = func(idx int, w Window) {
		flushed = append(flushed, WindowFlush{Index: idx, Total: windows, Window: w})
	}
	drive(hooked)

	if len(flushed) != windows-1 {
		t.Fatalf("flushed %d windows, want %d (all but the last)", len(flushed), windows-1)
	}
	for i, f := range flushed {
		if f.Index != i {
			t.Errorf("flush %d has index %d — not monotone", i, f.Index)
		}
		if f.Window != hooked.Windows[i] {
			t.Errorf("flush %d = %+v, final Windows[%d] = %+v", i, f.Window, i, hooked.Windows[i])
		}
	}
	for i := range plain.Windows {
		if plain.Windows[i] != hooked.Windows[i] {
			t.Errorf("window %d differs with hook: %+v vs %+v", i, hooked.Windows[i], plain.Windows[i])
		}
	}
	if plain.TotalMisses() != hooked.TotalMisses() {
		t.Errorf("misses differ with hook: %d vs %d", hooked.TotalMisses(), plain.TotalMisses())
	}
}

// TestSimStatsWindowBoundaries checks the windowed series against the
// defining rule — event i of n falls in window min(i*w/n, w-1) — for event
// counts below, at and above the window count, and that the flush hook
// reports every window but the last, in order, once each, including windows
// no event falls in. A replay that announces fewer events than Begin
// promised, or none, keeps every reference.
func TestSimStatsWindowBoundaries(t *testing.T) {
	cfg := cache.Config{Size: 128, Line: 32, Assoc: 1}
	for _, windows := range []int{1, 3, 32, 64} {
		for _, events := range []int{0, 1, 2, 5, 31, 32, 33, 100, 1000, 1001} {
			for _, announced := range []int{events, events / 2} {
				s := NewSimStats(windows)
				var flushed []int
				s.OnWindowFlush = func(idx int, w Window) { flushed = append(flushed, idx) }
				s.Begin(cfg, events)
				want := make([]Window, windows)
				for i := 0; i < announced; i++ {
					refs := uint64(i%5 + 1)
					s.Event(trace.DomainOS, uint32(i), refs)
					want[min(i*windows/events, windows-1)].Refs += refs
				}
				if !reflect.DeepEqual(s.Windows, want) {
					t.Errorf("windows=%d events=%d announced=%d: series %v, want %v", windows, events, announced, s.Windows, want)
				}
				last := 0
				if announced > 0 {
					last = min((announced-1)*windows/events, windows-1)
				}
				if len(flushed) != last {
					t.Errorf("windows=%d events=%d announced=%d: flushed %v, want windows 0..%d", windows, events, announced, flushed, last-1)
					continue
				}
				for i, idx := range flushed {
					if idx != i {
						t.Errorf("windows=%d events=%d announced=%d: flush order %v", windows, events, announced, flushed)
						break
					}
				}
			}
		}
	}
}
