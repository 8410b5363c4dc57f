package cache

import (
	"strings"
	"testing"

	"oslayout/internal/trace"
)

func TestPartitionCheck(t *testing.T) {
	cases := []struct {
		p     Partition
		assoc int
		ok    bool
		want  string
	}{
		{Partition{OSWays: 1, AppWays: 1}, 2, true, ""},
		{Partition{OSWays: 4, AppWays: 3, ResvWays: 1}, 8, true, ""},
		{Partition{OSWays: 1}, 2, true, ""},   // one shared way left
		{Partition{ResvWays: 1}, 2, true, ""}, // resv + shared
		{Partition{OSWays: -1, AppWays: 2}, 2, false, "negative"},
		{Partition{OSWays: 2, AppWays: 1}, 2, false, "over-commits"},
		{Partition{OSWays: 2, ResvWays: 1}, 3, false, "application fetches nowhere"},
		{Partition{AppWays: 2}, 2, false, "OS fetches nowhere"},
	}
	for _, c := range cases {
		err := c.p.Check(c.assoc)
		if c.ok && err != nil {
			t.Errorf("Check(%v, %d) = %v, want nil", c.p, c.assoc, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("Check(%v, %d) accepted, want error", c.p, c.assoc)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("Check(%v, %d) = %q, want mention of %q", c.p, c.assoc, err, c.want)
			}
		}
	}
}

func TestConfigValidateRejectsOverCommittedPartition(t *testing.T) {
	cfg := Config{Size: 1 << 10, Line: 32, Assoc: 2,
		Part: Partition{OSWays: 2, AppWays: 1}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("over-committed partition accepted")
	}
	if !strings.Contains(err.Error(), "over-commits") {
		t.Fatalf("error %q does not name the over-commit", err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an over-committed partition")
	}
}

func TestPartitionString(t *testing.T) {
	cases := []struct {
		p    Partition
		want string
	}{
		{Partition{}, "shared"},
		{Partition{OSWays: 4, AppWays: 3, ResvWays: 1}, "os4+app3+resv1"},
		{Partition{ResvWays: 2}, "resv2"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.p, got, c.want)
		}
	}
	cfg := Config{Size: 1 << 10, Line: 32, Assoc: 2, Part: Partition{OSWays: 1, AppWays: 1}}
	if got := cfg.String(); !strings.HasSuffix(got, "/os1+app1") {
		t.Errorf("config string %q lacks partition suffix", got)
	}
}

// TestStaticPartitionIsolatesDomains: one set, two ways, one per domain.
// Alternating OS and app lines that share the set must not evict each other.
func TestStaticPartitionIsolatesDomains(t *testing.T) {
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 2,
		Part: Partition{OSWays: 1, AppWays: 1}})
	osLine := uint64(0)
	appLine := uint64(trace.AppBase) >> 5
	for i := 0; i < 10; i++ {
		c.AccessLine(osLine, trace.DomainOS)
		c.AccessLine(appLine, trace.DomainApp)
	}
	if got := c.Stats.TotalMisses(); got != 2 {
		t.Fatalf("partitioned misses = %d, want 2 cold", got)
	}
}

// Within one domain's region, replacement is LRU over that region only.
func TestPartitionRegionLRU(t *testing.T) {
	c := MustNew(Config{Size: 128, Line: 32, Assoc: 4,
		Part: Partition{OSWays: 2, AppWays: 2}})
	// One set, OS region ways {0,1}. Three OS lines thrash the 2-way region.
	c.AccessLine(0, trace.DomainOS)
	c.AccessLine(1, trace.DomainOS)
	c.AccessLine(2, trace.DomainOS) // evicts 0
	if got := c.AccessLine(1, trace.DomainOS); got != Hit {
		t.Fatalf("line 1 = %v, want hit (LRU keeps it)", got)
	}
	if got := c.AccessLine(0, trace.DomainOS); got != SelfMiss {
		t.Fatalf("line 0 = %v, want self miss (displaced by OS)", got)
	}
}

func TestReservedRouting(t *testing.T) {
	// 1 set, 2 ways: way 0 reserved, way 1 shared. Reserving line 1 gives
	// the conflicting OS lines 1 and 2 separate ways.
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 2, Part: Partition{ResvWays: 1}})
	if err := c.SetReservedLines([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.AccessLine(1, trace.DomainOS)
		c.AccessLine(2, trace.DomainOS)
	}
	if got := c.Stats.TotalMisses(); got != 2 {
		t.Fatalf("reserved misses = %d, want 2 cold", got)
	}
	// App fetches never route to the reserved region.
	appLine := uint64(trace.AppBase) >> 5
	c.AccessLine(appLine, trace.DomainApp)
	if got := c.AccessLine(2, trace.DomainOS); got != CrossMiss {
		t.Fatalf("OS line after app fetch = %v, want cross miss in the shared way", got)
	}
}

func TestSetReservedLinesBounds(t *testing.T) {
	c := MustNew(Config{Size: 64, Line: 32, Assoc: 2, Part: Partition{ResvWays: 1}})
	if err := c.SetReservedLines([]uint64{uint64(trace.AppBase)}); err == nil {
		t.Fatal("reserved line beyond the kernel dense bound accepted")
	}
	if err := c.SetReservedLines(nil); err != nil {
		t.Fatalf("clearing reserved lines: %v", err)
	}
}

func TestSetPartitionKeepMigrates(t *testing.T) {
	// One set, 4 ways: os2+app2. Fill both regions, then grow OS to 3 ways
	// under keep: the app region's LRU line must stay resident (migrated
	// into the grown OS region) and still hit.
	c := MustNew(Config{Size: 128, Line: 32, Assoc: 4,
		Part: Partition{OSWays: 2, AppWays: 2}})
	app0 := uint64(trace.AppBase) >> 5
	c.AccessLine(0, trace.DomainOS)
	c.AccessLine(1, trace.DomainOS)
	c.AccessLine(app0, trace.DomainApp)
	c.AccessLine(app0+1, trace.DomainApp)
	if err := c.SetPartition(Partition{OSWays: 3, AppWays: 1}, true); err != nil {
		t.Fatal(err)
	}
	st := c.Repartitions()
	if st.Events != 1 || st.Migrated != 1 || st.Dropped != 0 {
		t.Fatalf("repart stats = %+v, want 1 event, 1 migrated, 0 dropped", st)
	}
	if got := c.Partition(); got != (Partition{OSWays: 3, AppWays: 1}) {
		t.Fatalf("partition = %v after repartition", got)
	}
	// Every line is still resident: app0+1 (MRU) kept the shrunk app
	// region's one way, app0 migrated into the grown OS region.
	for _, l := range []uint64{0, 1} {
		if got := c.AccessLine(l, trace.DomainOS); got != Hit {
			t.Fatalf("OS line %d = %v after keep-repartition, want hit", l, got)
		}
	}
	for _, l := range []uint64{app0, app0 + 1} {
		if got := c.AccessLine(l, trace.DomainApp); got != Hit {
			t.Fatalf("app line %#x = %v after keep-repartition, want hit", l, got)
		}
	}
}

func TestSetPartitionInvalidateDrops(t *testing.T) {
	c := MustNew(Config{Size: 128, Line: 32, Assoc: 4,
		Part: Partition{OSWays: 2, AppWays: 2}})
	app0 := uint64(trace.AppBase) >> 5
	c.AccessLine(0, trace.DomainOS)
	c.AccessLine(1, trace.DomainOS)
	c.AccessLine(app0, trace.DomainApp)
	c.AccessLine(app0+1, trace.DomainApp)
	if err := c.SetPartition(Partition{OSWays: 3, AppWays: 1}, false); err != nil {
		t.Fatal(err)
	}
	st := c.Repartitions()
	if st.Events != 1 || st.Migrated != 0 || st.Dropped != 1 {
		t.Fatalf("repart stats = %+v, want 1 event, 0 migrated, 1 dropped", st)
	}
	// The app region's overflow line (app0, the LRU) was invalidated; the
	// MRU line kept the region's remaining way. Eviction provenance is
	// untouched by the drop, so assert only resident-vs-not.
	if got := c.AccessLine(app0+1, trace.DomainApp); got != Hit {
		t.Fatalf("kept app line = %v, want hit", got)
	}
	if got := c.AccessLine(app0, trace.DomainApp); got == Hit {
		t.Fatalf("dropped app line still hits after invalidate-repartition")
	}
}

func TestSetPartitionNoOpAndErrors(t *testing.T) {
	c := MustNew(Config{Size: 128, Line: 32, Assoc: 4,
		Part: Partition{OSWays: 2, AppWays: 2}})
	if err := c.SetPartition(Partition{OSWays: 2, AppWays: 2}, true); err != nil {
		t.Fatalf("no-op repartition: %v", err)
	}
	if st := c.Repartitions(); st.Events != 0 {
		t.Fatalf("no-op repartition counted an event: %+v", st)
	}
	if err := c.SetPartition(Partition{}, true); err == nil {
		t.Fatal("clearing the partition at runtime accepted")
	}
	if err := c.SetPartition(Partition{OSWays: 5}, true); err == nil {
		t.Fatal("over-committed repartition accepted")
	}
	plain := MustNew(Config{Size: 128, Line: 32, Assoc: 4})
	if err := plain.SetPartition(Partition{OSWays: 2}, true); err == nil {
		t.Fatal("SetPartition on an unpartitioned cache accepted")
	}
}

func TestResetRestoresConstructionPartition(t *testing.T) {
	c := MustNew(Config{Size: 128, Line: 32, Assoc: 4,
		Part: Partition{OSWays: 2, AppWays: 2}})
	c.AccessLine(0, trace.DomainOS)
	if err := c.SetPartition(Partition{OSWays: 3, AppWays: 1}, true); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if got := c.Partition(); got != (Partition{OSWays: 2, AppWays: 2}) {
		t.Fatalf("Reset left partition %v, want the construction split", got)
	}
	if st := c.Repartitions(); st != (RepartStats{}) {
		t.Fatalf("Reset left repart stats %+v", st)
	}
	if got := c.AccessLine(0, trace.DomainOS); got != ColdMiss {
		t.Fatalf("line after Reset = %v, want cold", got)
	}
}

// TestPartitionedMatchesTwoCaches: a way-partitioned os1+app1 cache over
// disjoint address domains is bit-identical to two independent
// direct-mapped halves — the equivalence that lets the partitioned engine
// reproduce the paper's Sep setup exactly.
func TestPartitionedMatchesTwoCaches(t *testing.T) {
	part := MustNew(Config{Size: 1 << 10, Line: 32, Assoc: 2,
		Part: Partition{OSWays: 1, AppWays: 1}})
	osHalf := MustNew(Config{Size: 512, Line: 32, Assoc: 1})
	appHalf := MustNew(Config{Size: 512, Line: 32, Assoc: 1})

	rng := uint64(0x243F6A8885A308D3)
	appBase := uint64(trace.AppBase) >> 5
	for i := 0; i < 20_000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		var d trace.Domain
		line := rng % 97
		if rng&1 == 0 {
			d = trace.DomainOS
		} else {
			d = trace.DomainApp
			line += appBase
		}
		got := part.AccessLine(line, d)
		var want MissClass
		if d == trace.DomainOS {
			want = osHalf.AccessLine(line, d)
		} else {
			want = appHalf.AccessLine(line, d)
		}
		if got != want {
			t.Fatalf("event %d (line %#x, %v): partitioned %v, two-cache %v", i, line, d, got, want)
		}
	}
	var sum Stats
	sum.Add(&osHalf.Stats)
	sum.Add(&appHalf.Stats)
	if part.Stats != sum {
		t.Fatalf("partitioned stats %+v, two-cache sum %+v", part.Stats, sum)
	}
}

// benchAccess drives a fixed pseudo-random line stream through one cache.
func benchAccess(b *testing.B, cfg Config) {
	c := MustNew(cfg)
	b.ReportAllocs()
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		c.AccessLine(rng%4096, trace.Domain(rng>>20&1))
	}
}

// BenchmarkAccessUnpartitioned guards the classic hot path: the partition
// refactor must not add branches to unpartitioned accesses (compare against
// the pre-partition baseline and BenchmarkAccessPartitioned).
func BenchmarkAccessUnpartitioned(b *testing.B) {
	b.Run("DM", func(b *testing.B) {
		benchAccess(b, Config{Size: 8 << 10, Line: 32, Assoc: 1})
	})
	b.Run("2way", func(b *testing.B) {
		benchAccess(b, Config{Size: 8 << 10, Line: 32, Assoc: 2})
	})
}

func BenchmarkAccessPartitioned(b *testing.B) {
	benchAccess(b, Config{Size: 8 << 10, Line: 32, Assoc: 2,
		Part: Partition{OSWays: 1, AppWays: 1}})
}
