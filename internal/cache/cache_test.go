package cache

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"oslayout/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	// A quarter of the int range: 2^62 on 64-bit builds, 2^30 on 32-bit.
	const quarter = math.MaxInt/2 + 1
	good := []Config{
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 16, Assoc: 8},
		{Size: 7 << 10, Line: 32, Assoc: 1}, // non-power-of-two size is fine
		{Size: 8 << 10, Line: 4, Assoc: 1},  // one instruction word per line
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{Size: 0, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 0, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 0},
		{Size: 8 << 10, Line: 24, Assoc: 1},  // line not a power of two
		{Size: 1000, Line: 32, Assoc: 1},     // not divisible
		{Size: 8 << 10, Line: 32, Assoc: 17}, // not divisible
		{Size: 8 << 10, Line: 1, Assoc: 1},   // narrower than a word
		{Size: 8 << 10, Line: 2, Assoc: 1},   // narrower than a word
		// Line*assoc wraps to 0 in int arithmetic.
		{Size: 8 << 10, Line: 32, Assoc: quarter / 8},
		{Size: 8 << 10, Line: quarter, Assoc: 4},
		// The way counts' sum wraps negative in int arithmetic.
		{Size: 8 << 10, Line: 32, Assoc: 4, Part: Partition{OSWays: quarter, AppWays: quarter, ResvWays: quarter}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v accepted", c)
		}
	}
}

func TestConfigString(t *testing.T) {
	if got := (Config{Size: 8 << 10, Line: 32, Assoc: 1}).String(); got != "8KB/32B/DM" {
		t.Errorf("String() = %q", got)
	}
	if got := (Config{Size: 16 << 10, Line: 64, Assoc: 4}).String(); got != "16KB/64B/4-way" {
		t.Errorf("String() = %q", got)
	}
}

func TestNumSets(t *testing.T) {
	if got := (Config{Size: 8 << 10, Line: 32, Assoc: 2}).NumSets(); got != 128 {
		t.Fatalf("NumSets = %d, want 128", got)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, Line: 32, Assoc: 1}) // 32 sets
	a := uint64(0)                                          // set 0
	b := uint64(32)                                         // set 0 (line addr 32 -> set 32 % 32 = 0)
	if c.AccessLine(a, trace.DomainOS) != ColdMiss {
		t.Fatal("first access should be a cold miss")
	}
	if c.AccessLine(a, trace.DomainOS) != Hit {
		t.Fatal("re-access should hit")
	}
	if c.AccessLine(b, trace.DomainOS) != ColdMiss {
		t.Fatal("first access to b should be cold")
	}
	// a was evicted by b (same set); the re-access is a self miss.
	if got := c.AccessLine(a, trace.DomainOS); got != SelfMiss {
		t.Fatalf("conflict re-access = %v, want self miss", got)
	}
}

func TestCrossDomainClassification(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, Line: 32, Assoc: 1})
	osLine := uint64(0)
	appLine := uint64(32)                  // same set
	c.AccessLine(osLine, trace.DomainOS)   // cold
	c.AccessLine(appLine, trace.DomainApp) // cold, evicts OS line
	if got := c.AccessLine(osLine, trace.DomainOS); got != CrossMiss {
		t.Fatalf("OS line evicted by app: got %v, want cross", got)
	}
	// Now the app line was evicted by the OS access.
	if got := c.AccessLine(appLine, trace.DomainApp); got != CrossMiss {
		t.Fatalf("app line evicted by OS: got %v, want cross", got)
	}
	st := &c.Stats
	if st.Cross[trace.DomainOS] != 1 || st.Cross[trace.DomainApp] != 1 {
		t.Fatalf("cross stats = %v/%v", st.Cross[trace.DomainOS], st.Cross[trace.DomainApp])
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, single set: lines 0,1,2 map to set 0 of a 64B cache (2 sets of
	// 32B... make 1 set: Size=64, Line=32, Assoc=2 -> 1 set).
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 2})
	c.AccessLine(0, trace.DomainOS) // cold
	c.AccessLine(1, trace.DomainOS) // cold
	c.AccessLine(0, trace.DomainOS) // hit; 1 becomes LRU
	c.AccessLine(2, trace.DomainOS) // evicts 1
	if got := c.AccessLine(0, trace.DomainOS); got != Hit {
		t.Fatalf("0 should still be resident, got %v", got)
	}
	if got := c.AccessLine(1, trace.DomainOS); got != SelfMiss {
		t.Fatalf("1 was evicted, got %v", got)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	c := MustNew(Config{Size: 7 << 10, Line: 32, Assoc: 1}) // 224 sets
	// Lines 0 and 224 share set 0; 1 and 224 do not conflict with 0... use
	// modulo arithmetic to pick conflicting lines.
	if c.AccessLine(0, trace.DomainOS) != ColdMiss {
		t.Fatal("cold expected")
	}
	if c.AccessLine(224, trace.DomainOS) != ColdMiss {
		t.Fatal("cold expected")
	}
	if got := c.AccessLine(0, trace.DomainOS); got != SelfMiss {
		t.Fatalf("0 and 224 should conflict in a 224-set cache, got %v", got)
	}
}

func TestStatsAccumulation(t *testing.T) {
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 1})
	c.Stats.Refs[trace.DomainOS] += 10
	c.AccessLine(0, trace.DomainOS)
	c.AccessLine(0, trace.DomainOS)
	c.AccessLine(2, trace.DomainOS)
	c.AccessLine(0, trace.DomainOS)
	st := c.Stats
	if st.Misses[trace.DomainOS] != 3 {
		t.Fatalf("misses = %d, want 3", st.Misses[trace.DomainOS])
	}
	if st.Cold[trace.DomainOS] != 2 || st.Self[trace.DomainOS] != 1 {
		t.Fatalf("cold/self = %d/%d, want 2/1", st.Cold[trace.DomainOS], st.Self[trace.DomainOS])
	}
	if st.MissRate() != 0.3 {
		t.Fatalf("miss rate = %v, want 0.3", st.MissRate())
	}
	var sum Stats
	sum.Add(&st)
	sum.Add(&st)
	if sum.TotalMisses() != 6 || sum.TotalRefs() != 20 {
		t.Fatalf("Add broken: %d misses, %d refs", sum.TotalMisses(), sum.TotalRefs())
	}
	if st.DomainMissRate(trace.DomainApp) != 0 {
		t.Fatal("app domain miss rate should be 0 with no refs")
	}
}

func TestFlushAndReset(t *testing.T) {
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 1})
	c.AccessLine(0, trace.DomainOS)
	c.Flush()
	// After a flush the line is gone but history survives, so the miss is
	// not cold (it was seen) — it classifies via the placeholder evictor.
	if got := c.AccessLine(0, trace.DomainOS); got == Hit || got == ColdMiss {
		t.Fatalf("after flush, got %v", got)
	}
	c.Reset()
	if got := c.AccessLine(0, trace.DomainOS); got != ColdMiss {
		t.Fatalf("after reset, got %v, want cold", got)
	}
	if c.Stats.TotalMisses() != 1 {
		t.Fatalf("Reset did not clear stats")
	}
}

func TestMissClassString(t *testing.T) {
	for mc, want := range map[MissClass]string{Hit: "hit", ColdMiss: "cold", SelfMiss: "self", CrossMiss: "cross"} {
		if mc.String() != want {
			t.Errorf("%d.String() = %q, want %q", mc, mc.String(), want)
		}
	}
	if !strings.Contains(MissClass(9).String(), "9") {
		t.Error("unknown class string")
	}
}

// TestQuickLRUInclusion property-checks the LRU stack inclusion property:
// with the set count held fixed, increasing associativity can only turn
// misses into hits, never the reverse, so total misses are non-increasing
// in associativity.
func TestQuickLRUInclusion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets = 16
		caches := []*Cache{
			MustNew(Config{Size: sets * 32 * 1, Line: 32, Assoc: 1}),
			MustNew(Config{Size: sets * 32 * 2, Line: 32, Assoc: 2}),
			MustNew(Config{Size: sets * 32 * 4, Line: 32, Assoc: 4}),
		}
		for i := 0; i < 4000; i++ {
			line := uint64(rng.Intn(128))
			d := trace.Domain(rng.Intn(2))
			for _, c := range caches {
				c.AccessLine(line, d)
			}
		}
		m1 := caches[0].Stats.TotalMisses()
		m2 := caches[1].Stats.TotalMisses()
		m4 := caches[2].Stats.TotalMisses()
		return m1 >= m2 && m2 >= m4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMissBounds property-checks basic accounting: misses = cold +
// self + cross, and cold misses equal the number of distinct lines touched.
func TestQuickMissBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{Size: 512, Line: 32, Assoc: 2})
		distinct := map[uint64]bool{}
		for i := 0; i < 2000; i++ {
			line := uint64(rng.Intn(64))
			distinct[line] = true
			c.AccessLine(line, trace.Domain(rng.Intn(2)))
		}
		st := &c.Stats
		var cold, self, cross, miss uint64
		for d := 0; d < trace.NumDomains; d++ {
			cold += st.Cold[d]
			self += st.Self[d]
			cross += st.Cross[d]
			miss += st.Misses[d]
		}
		return miss == cold+self+cross && cold == uint64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomReplacementDeterministicAndCorrect(t *testing.T) {
	cfg := Config{Size: 512, Line: 32, Assoc: 4, Policy: RandomReplacement}
	run := func() Stats {
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 5000; i++ {
			c.AccessLine(uint64(rng.Intn(40)), trace.Domain(rng.Intn(2)))
		}
		return c.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("random replacement must be deterministic for a fixed stream")
	}
	if a.TotalMisses() == 0 || a.TotalMisses() == 5000 {
		t.Fatalf("degenerate miss count %d", a.TotalMisses())
	}
}

func TestRandomReplacementFillsInvalidWaysFirst(t *testing.T) {
	// With 4 distinct lines and 4 ways in one set, warm-up must not evict:
	// all 4 lines should be resident afterwards.
	c := MustNew(Config{Size: 128, Line: 32, Assoc: 4, Policy: RandomReplacement})
	for line := uint64(0); line < 4; line++ {
		c.AccessLine(line, trace.DomainOS)
	}
	for line := uint64(0); line < 4; line++ {
		if got := c.AccessLine(line, trace.DomainOS); got != Hit {
			t.Fatalf("line %d evicted during warm-up: %v", line, got)
		}
	}
}

func TestRandomReplacementUsuallyWorseThanLRU(t *testing.T) {
	// On a looping trace slightly bigger than one set, LRU thrashes 100%
	// but random keeps some lines; on typical mixed traces LRU wins. Use a
	// mixed random trace with locality: LRU should win.
	mk := func(policy Policy) uint64 {
		c := MustNew(Config{Size: 1024, Line: 32, Assoc: 4, Policy: policy})
		rng := rand.New(rand.NewSource(3))
		hot := []uint64{1, 2, 3, 4, 5, 6}
		for i := 0; i < 20000; i++ {
			var line uint64
			if rng.Intn(4) != 0 {
				line = hot[rng.Intn(len(hot))]
			} else {
				line = uint64(rng.Intn(256))
			}
			c.AccessLine(line, trace.DomainOS)
		}
		return c.Stats.TotalMisses()
	}
	if lru, rnd := mk(LRU), mk(RandomReplacement); lru >= rnd {
		t.Fatalf("LRU (%d misses) should beat random (%d) on a locality-heavy stream", lru, rnd)
	}
}

// TestHistoryRegions exercises the dense eviction-provenance tables across
// both address regions (kernel at low addresses, application at AppBase)
// and the overflow map beyond them.
func TestHistoryRegions(t *testing.T) {
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 1}) // 2 sets: lines conflict mod 2
	appLine := uint64(trace.AppBase) >> 5              // first app-region line, set 0
	farLine := appLine + histDenseMax + 4              // beyond the dense region, set 0
	c.AccessLine(0, trace.DomainOS)                    // cold
	c.AccessLine(appLine, trace.DomainApp)             // cold, evicts OS line 0
	if got := c.AccessLine(0, trace.DomainOS); got != CrossMiss {
		t.Fatalf("kernel line evicted by app: got %v, want cross", got)
	}
	if got := c.AccessLine(appLine, trace.DomainApp); got != CrossMiss {
		t.Fatalf("app line evicted by OS: got %v, want cross", got)
	}
	c.AccessLine(farLine, trace.DomainOS) // cold; provenance lands in the overflow map
	if got := c.AccessLine(farLine, trace.DomainOS); got != Hit {
		t.Fatalf("far line re-access = %v, want hit", got)
	}
	c.AccessLine(appLine, trace.DomainApp) // evicts the far line
	if got := c.AccessLine(farLine, trace.DomainOS); got != CrossMiss {
		t.Fatalf("far line evicted by app: got %v, want cross (overflow map lost it?)", got)
	}
	c.Reset()
	if got := c.AccessLine(0, trace.DomainOS); got != ColdMiss {
		t.Fatalf("after reset, got %v, want cold", got)
	}
	if got := c.AccessLine(appLine, trace.DomainApp); got != ColdMiss {
		t.Fatalf("after reset, app line got %v, want cold", got)
	}
}

// TestAccessFuncMatchesAccessLine checks the hoisted access function is the
// same implementation AccessLine dispatches to, for every geometry.
func TestAccessFuncMatchesAccessLine(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 1536, Line: 32, Assoc: 1},
		{Size: 1 << 10, Line: 32, Assoc: 4},
		{Size: 1536, Line: 32, Assoc: 2},
	} {
		a, b := MustNew(cfg), MustNew(cfg)
		access := b.AccessFunc()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 3000; i++ {
			line := uint64(rng.Intn(100))
			d := trace.Domain(rng.Intn(2))
			if got, want := access(line, d), a.AccessLine(line, d); got != want {
				t.Fatalf("%v: access %d/%v = %v, AccessLine = %v", cfg, line, d, got, want)
			}
		}
		if a.Stats != b.Stats {
			t.Fatalf("%v: stats diverged: %+v vs %+v", cfg, a.Stats, b.Stats)
		}
	}
}

// TestDMProbeMatchesAccess checks the inline hit test against the access
// path on every direct-mapped power-of-two geometry from 1 to 512 sets. One
// probe, taken at construction, must stay exact across Flush and Reset, and
// must never hit an empty way: line 0 and the lines either side of the
// application base are in every sequence.
func TestDMProbeMatchesAccess(t *testing.T) {
	for _, line := range []int{4, 32, 256} {
		for sets := 1; sets <= 512; sets *= 2 {
			c := MustNew(Config{Size: sets * line, Line: line, Assoc: 1})
			p, ok := c.Probe()
			if !ok {
				t.Fatalf("%v: no probe for a direct-mapped power-of-two cache", c.Config())
			}
			hi := uint64(trace.AppBase) / uint64(line)
			var pool []uint64
			for l := uint64(0); l < uint64(3*sets+4); l++ {
				pool = append(pool, l, hi-1-l, hi+l)
			}
			rng := rand.New(rand.NewSource(int64(sets * line)))
			var hits, misses int
			for phase := 0; phase < 3; phase++ {
				switch phase {
				case 1:
					c.Flush()
				case 2:
					c.Reset()
				}
				if p.Hit(0) || p.Hit(hi) {
					t.Fatalf("%v phase %d: probe hits in an empty cache", c.Config(), phase)
				}
				for i := 0; i < 2000; i++ {
					// Half the accesses go to a hot dozen so every size hits.
					l := pool[rng.Intn(len(pool))]
					if rng.Intn(2) == 0 {
						l = pool[rng.Intn(12)]
					}
					d := trace.Domain(rng.Intn(2))
					hit := p.Hit(l)
					if got := c.AccessLine(l, d); hit != (got == Hit) {
						t.Fatalf("%v phase %d: Hit(%d) = %v, access = %v", c.Config(), phase, l, hit, got)
					}
					if hit {
						hits++
					} else {
						misses++
					}
				}
			}
			if hits == 0 || misses == 0 {
				t.Errorf("%v: degenerate sequence, %d hits and %d misses", c.Config(), hits, misses)
			}
		}
	}
	for _, cfg := range []Config{
		{Size: 1536, Line: 32, Assoc: 1},
		{Size: 1 << 10, Line: 32, Assoc: 2},
	} {
		if _, ok := MustNew(cfg).Probe(); ok {
			t.Errorf("%v: probe offered for a geometry that is not DirectMappedPow2", cfg)
		}
	}
}

// TestMRUProbeMatchesAccess checks the MRU-way probe against the access
// path over random streams: a probe hit must be an access hit that moves no
// way, draws no random number and counts nothing, on LRU, random-replacement
// and partitioned caches, with reserved lines and with keep and drop
// repartitions mid-stream. A cache whose set count is not a power of two
// gets a probe that never hits.
func TestMRUProbeMatchesAccess(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 4},
		{Size: 768, Line: 32, Assoc: 3},
		{Size: 4 << 10, Line: 64, Assoc: 8, Policy: RandomReplacement},
		{Size: 2 << 10, Line: 32, Assoc: 8, Part: Partition{OSWays: 4, AppWays: 4}},
		{Size: 4 << 10, Line: 64, Assoc: 8, Policy: RandomReplacement, Part: Partition{OSWays: 3, AppWays: 3, ResvWays: 2}},
		// Three sets each.
		{Size: 192, Line: 32, Assoc: 2},
		{Size: 384, Line: 32, Assoc: 4, Part: Partition{OSWays: 2, AppWays: 2}},
	} {
		c := MustNew(cfg)
		p := c.MRUProbe()
		pow2 := c.Sets()&(c.Sets()-1) == 0
		hi := uint64(trace.AppBase) / uint64(cfg.Line)
		var pool, resv []uint64
		for l := uint64(0); l < uint64(2*len(c.ways)+4); l++ {
			pool = append(pool, l, hi+l)
			if l%4 == 0 {
				resv = append(resv, l)
			}
		}
		if cfg.Part.ResvWays > 0 {
			if err := c.SetReservedLines(resv); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(cfg.Size + cfg.Assoc)))
		var probeHits, hits int
		var reparts [2]int
		for i := 0; i < 20000; i++ {
			if cfg.Part.Enabled() && i%997 == 996 {
				os := 1 + rng.Intn(cfg.Assoc-1)
				app := 1 + rng.Intn(cfg.Assoc-os)
				split := Partition{OSWays: os, AppWays: app, ResvWays: rng.Intn(cfg.Assoc - os - app + 1)}
				keep := rng.Intn(2)
				if err := c.SetPartition(split, keep == 1); err != nil {
					t.Fatal(err)
				}
				reparts[keep]++
			}
			// Half the accesses go to a hot 16 lines so every cache hits.
			l := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				l = pool[rng.Intn(16)]
			}
			d := trace.Domain(rng.Intn(2))
			if !p.Hit(l) {
				if c.AccessLine(l, d) == Hit {
					hits++
				}
				continue
			}
			probeHits++
			hits++
			ways, state, stats := slices.Clone(c.ways), c.rng, c.Stats
			if got := c.AccessLine(l, d); got != Hit {
				t.Fatalf("%v access %d: MRU probe hit line %d, access = %v", cfg, i, l, got)
			}
			if !slices.Equal(c.ways, ways) || c.rng != state || c.Stats != stats {
				t.Fatalf("%v access %d: an MRU hit on line %d changed the cache", cfg, i, l)
			}
		}
		switch {
		case !pow2 && probeHits > 0:
			t.Errorf("%v: %d probe hits on a cache without power-of-two sets", cfg, probeHits)
		case pow2 && probeHits == 0:
			t.Errorf("%v: degenerate sequence, no MRU hit", cfg)
		case pow2 && cfg.Assoc > 1 && probeHits == hits:
			t.Errorf("%v: degenerate sequence, all %d hits in the MRU way", cfg, hits)
		case !pow2 && hits == 0:
			t.Errorf("%v: degenerate sequence, no hit", cfg)
		}
		if cfg.Part.Enabled() && (reparts[0] == 0 || reparts[1] == 0) {
			t.Errorf("%v: repartitions %d dropping and %d keeping, want both", cfg, reparts[0], reparts[1])
		}
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || RandomReplacement.String() != "random" {
		t.Fatal("policy strings wrong")
	}
	cfg := Config{Size: 8 << 10, Line: 32, Assoc: 4, Policy: RandomReplacement}
	if got := cfg.String(); got != "8KB/32B/4-way/random" {
		t.Fatalf("config string %q", got)
	}
}
