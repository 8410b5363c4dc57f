package partition

import (
	"fmt"
	"math"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
)

func TestParse(t *testing.T) {
	sp, err := Parse("interval,every=4,grain=2,os=3,app=5,invalidate")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Policy: "interval", OSWays: 3, AppWays: 5, Every: 4, Grain: 2, Invalidate: true}
	if sp != want {
		t.Fatalf("Parse = %+v, want %+v", sp, want)
	}
	if got := sp.String(); got != "interval,os=3,app=5,every=4,grain=2,invalidate" {
		t.Fatalf("String = %q", got)
	}
	for _, bad := range []string{"", "evolve", "static,ways=2", "static,os", "static,os=-1", "static,os=x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// overflowSpec's way counts, a quarter of the int range each (2^62 on
// 64-bit builds), sum past the int range; a sum that wraps negative once
// let it through as a valid split.
var overflowSpec = fmt.Sprintf("static,os=%d,app=%d,resv=%d", quarter, quarter, quarter)

const quarter = math.MaxInt/2 + 1

func TestWithDefaults(t *testing.T) {
	cases := []struct {
		in    string
		assoc int
		want  cache.Partition
	}{
		{"static", 8, cache.Partition{OSWays: 4, AppWays: 4}},
		{"static,resv=2", 8, cache.Partition{OSWays: 3, AppWays: 3, ResvWays: 2}},
		{"reserved", 8, cache.Partition{ResvWays: 1}},
		{"reserved,resv=2", 8, cache.Partition{ResvWays: 2}},
		{"interval", 8, cache.Partition{OSWays: 4, AppWays: 4}},
		{"missdriven,os=6,app=2", 8, cache.Partition{OSWays: 6, AppWays: 2}},
	}
	for _, c := range cases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Fatal(err)
		}
		sp, err = sp.WithDefaults(c.assoc)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if sp.Initial() != c.want {
			t.Errorf("%s: initial = %v, want %v", c.in, sp.Initial(), c.want)
		}
		if sp.Dynamic() && (sp.Every == 0 || sp.Grain == 0) {
			t.Errorf("%s: dynamic defaults unfilled: %+v", c.in, sp)
		}
	}
	for _, bad := range []struct {
		in    string
		assoc int
	}{
		{"interval", 1},    // no way per domain possible
		{"static,os=9", 8}, // over-commit
		{"missdriven,os=8,app=1", 8},
		{overflowSpec, 4}, // way counts whose int sum wraps negative
	} {
		sp, err := Parse(bad.in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.WithDefaults(bad.assoc); err == nil {
			t.Errorf("WithDefaults(%q, %d) accepted", bad.in, bad.assoc)
		}
	}
}

func TestMoveWaysBounds(t *testing.T) {
	cur := cache.Partition{OSWays: 2, AppWays: 2}
	if got := moveWays(cur, 5, true); got != (cache.Partition{OSWays: 3, AppWays: 1}) {
		t.Fatalf("moveWays toward OS = %v, want os3+app1 (app floor 1)", got)
	}
	if got := moveWays(cur, 5, false); got != (cache.Partition{OSWays: 1, AppWays: 3}) {
		t.Fatalf("moveWays toward app = %v, want os1+app3 (OS floor 1)", got)
	}
	withResv := cache.Partition{OSWays: 3, AppWays: 2, ResvWays: 1}
	if got := moveWays(withResv, 1, true); got.ResvWays != 1 {
		t.Fatalf("moveWays touched the reserved region: %v", got)
	}
}

func TestIntervalPolicy(t *testing.T) {
	p := intervalPolicy{grain: 1}
	cur := cache.Partition{OSWays: 4, AppWays: 4}
	if got := p.decide(cur, Feedback{OSMisses: 10, AppMisses: 2}); got != (cache.Partition{OSWays: 5, AppWays: 3}) {
		t.Fatalf("OS-heavy feedback moved to %v", got)
	}
	if got := p.decide(cur, Feedback{OSMisses: 2, AppMisses: 10}); got != (cache.Partition{OSWays: 3, AppWays: 5}) {
		t.Fatalf("app-heavy feedback moved to %v", got)
	}
	if got := p.decide(cur, Feedback{OSMisses: 5, AppMisses: 5}); got != cur {
		t.Fatalf("balanced feedback moved to %v", got)
	}
}

func TestMissPolicyHillClimbs(t *testing.T) {
	p := &missPolicy{grain: 1}
	cur := cache.Partition{OSWays: 4, AppWays: 4}
	// Seeded toward OS by the imbalance; total 12.
	cur = p.decide(cur, Feedback{OSMisses: 10, AppMisses: 2})
	if cur != (cache.Partition{OSWays: 5, AppWays: 3}) {
		t.Fatalf("first decision = %v", cur)
	}
	// Improved (total 8): keep going.
	cur = p.decide(cur, Feedback{OSMisses: 6, AppMisses: 2})
	if cur != (cache.Partition{OSWays: 6, AppWays: 2}) {
		t.Fatalf("improving decision = %v", cur)
	}
	// Worsened (total 20): reverse.
	cur = p.decide(cur, Feedback{OSMisses: 4, AppMisses: 16})
	if cur != (cache.Partition{OSWays: 5, AppWays: 3}) {
		t.Fatalf("worsening decision = %v", cur)
	}
}

// osHeavyTrace builds a workload whose OS working set (wsBlocks 32-byte
// blocks, cycled) overflows half the cache but fits almost all of it, while
// the application touches a single block — the shape where a dynamic policy
// that hands ways to the OS beats the static half-and-half split.
func osHeavyTrace(wsBlocks, rounds int) (*trace.Trace, *layout.Layout, *layout.Layout) {
	osP := program.New("os")
	r := osP.AddRoutine("r")
	for i := 0; i < wsBlocks; i++ {
		osP.AddBlock(r, 32)
	}
	appP := program.New("app")
	ra := appP.AddRoutine("r")
	appP.AddBlock(ra, 32)
	osL := layout.NewBase(osP, 0)
	appL := layout.NewBase(appP, trace.AppBase)
	tr := &trace.Trace{Name: "osheavy", OS: osP, App: appP}
	for rd := 0; rd < rounds; rd++ {
		for b := 0; b < wsBlocks; b++ {
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, program.BlockID(b)))
			if b%16 == 0 {
				tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainApp, 0))
			}
		}
	}
	return tr, osL, appL
}

// TestIntervalBeatsStaticOnOSHeavyLoad is the scenario the dynamic policies
// exist for: under an OS-dominant load, the interval controller shifts ways
// from the idle application region to the thrashing OS region and ends with
// fewer misses than the frozen half-and-half Sep split.
func TestIntervalBeatsStaticOnOSHeavyLoad(t *testing.T) {
	// 8KB, 8-way, 32 sets: the static split gives the OS 4KB; the 6KB OS
	// working set thrashes it but fits 7 ways.
	tr, osL, appL := osHeavyTrace(192, 40)
	assoc := 8
	base := cache.Config{Size: 8 << 10, Line: 32, Assoc: assoc}

	runSpec := func(text string) (uint64, *Controller) {
		sp, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		sp, err = sp.WithDefaults(assoc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Part = sp.Initial()
		ctrl := NewController(sp, 32, nil)
		ress, err := simulate.RunManyOpt(tr, osL, appL, []cache.Config{cfg}, simulate.Options{
			Observers: []obs.Observer{ctrl},
			Setups:    []simulate.CacheSetup{ctrl.Bind},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Err(); err != nil {
			t.Fatal(err)
		}
		return ress[0].Stats.TotalMisses(), ctrl
	}

	static, _ := runSpec("static")
	dynamic, ctrl := runSpec("interval,every=2,grain=1")
	if dynamic >= static {
		t.Fatalf("interval policy (%d misses) does not beat static split (%d misses)", dynamic, static)
	}
	if ev := ctrl.Events(); ev.Events == 0 {
		t.Fatal("interval controller never repartitioned")
	}
	if ctrl.Final().OSWays <= 4 {
		t.Fatalf("final split %v did not shift ways to the OS", ctrl.Final())
	}
	if ctrl.TrajString() == "" {
		t.Fatal("trajectory records no repartition points")
	}
	if len(ctrl.Trajectory()) == 0 {
		t.Fatal("trajectory empty")
	}
}

func TestControllerBindRejectsMismatchedCache(t *testing.T) {
	sp, err := Parse("static,os=2,app=2")
	if err != nil {
		t.Fatal(err)
	}
	sp, err = sp.WithDefaults(4)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(sp, 0, nil)
	wrong := cache.MustNew(cache.Config{Size: 128, Line: 32, Assoc: 4,
		Part: cache.Partition{OSWays: 3, AppWays: 1}})
	if err := ctrl.Bind(wrong); err == nil {
		t.Fatal("Bind accepted a cache with a different initial split")
	}
}

func TestControllerInstallsReservedLines(t *testing.T) {
	sp, err := Parse("reserved")
	if err != nil {
		t.Fatal(err)
	}
	sp, err = sp.WithDefaults(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(sp, 0, []uint64{1, 2, 3})
	c := cache.MustNew(cache.Config{Size: 128, Line: 32, Assoc: 2, Part: sp.Initial()})
	if err := ctrl.Bind(c); err != nil {
		t.Fatal(err)
	}
	// Reserved routing active: reserved line 1 allocates in set 1's resv
	// way, so the unreserved conflicting line 5 (also set 1 of 2) lands in
	// the shared way instead of evicting it.
	c.AccessLine(1, trace.DomainOS)
	c.AccessLine(5, trace.DomainOS)
	if got := c.AccessLine(1, trace.DomainOS); got != cache.Hit {
		t.Fatalf("reserved line = %v, want hit", got)
	}
}

// FuzzPartitionSpec feeds arbitrary spec text through the path a CLI flag
// or a job spec takes: Parse, WithDefaults at every associativity up to
// 16, then cache construction. Nothing may panic, an accepted spec must
// build its cache, and its String must parse back to the same split.
func FuzzPartitionSpec(f *testing.F) {
	for _, s := range []string{
		overflowSpec,
		"static",
		"reserved,resv=1",
		"interval,every=4,grain=1,os=3,app=5,invalidate",
		"missdriven,os=0,app=0,resv=16",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		for assoc := 1; assoc <= 16; assoc++ {
			got, err := sp.WithDefaults(assoc)
			if err != nil {
				continue
			}
			cfg := cache.Config{Size: assoc * 32 * 4, Line: 32, Assoc: assoc, Part: got.Initial()}
			if _, err := cache.New(cfg); err != nil {
				t.Fatalf("%q at %d ways: accepted spec %s does not build: %v", s, assoc, got, err)
			}
			back, err := Parse(got.String())
			if err != nil {
				t.Fatalf("%q at %d ways: String %q does not parse: %v", s, assoc, got, err)
			}
			if back.Initial() != got.Initial() {
				t.Fatalf("%q at %d ways: String %q parses to %s, want %s", s, assoc, got, back.Initial(), got.Initial())
			}
		}
	})
}
