package profile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
)

func TestCollectorLinear(t *testing.T) {
	p, _ := progtest.Linear(3, 8)
	pr := New(p)
	c := NewCollector(p, pr)
	for i := 0; i < 2; i++ {
		c.Break()
		c.Block(0)
		c.Block(1)
		c.Block(2)
	}
	for b := 0; b < 3; b++ {
		if pr.Block[b] != 2 {
			t.Errorf("block %d count = %d, want 2", b, pr.Block[b])
		}
	}
	if pr.Arc[0][0] != 2 || pr.Arc[1][0] != 2 {
		t.Errorf("arc counts = %v %v, want 2 each", pr.Arc[0], pr.Arc[1])
	}
	if pr.RoutineInv[0] != 2 {
		t.Errorf("routine invocations = %d, want 2", pr.RoutineInv[0])
	}
}

func TestCollectorCallsAndReturns(t *testing.T) {
	p, caller, leaf := progtest.CallPair()
	pr := New(p)
	c := NewCollector(p, pr)
	// Execute caller once: c0 c1 [leaf: l0 l1] c2 c3.
	c.Break()
	for _, b := range []program.BlockID{2, 3, 0, 1, 4, 5} {
		c.Block(b)
	}
	if pr.Call[3] != 1 {
		t.Errorf("call count on c1 = %d, want 1", pr.Call[3])
	}
	if pr.RoutineInv[leaf] != 1 {
		t.Errorf("leaf invocations = %d, want 1", pr.RoutineInv[leaf])
	}
	if pr.RoutineInv[caller] != 1 {
		t.Errorf("caller invocations = %d, want 1", pr.RoutineInv[caller])
	}
	// The return l1 -> c2 must not be miscounted as anything.
	if pr.Arc[1] != nil && len(pr.Arc[1]) > 0 && pr.Arc[1][0] != 0 {
		t.Errorf("return transition recorded as an arc")
	}
}

func TestFromTraceWithMarkers(t *testing.T) {
	p, r := progtest.Linear(2, 8)
	tr := &trace.Trace{Name: "t", OS: p}
	w := trace.NewWalker(p, trace.DomainOS, rand.New(rand.NewSource(1)), nil)
	for i := 0; i < 3; i++ {
		tr.Events = append(tr.Events, trace.BeginEvent(program.SeedSysCall))
		tr.Events = w.WalkInvocation(r, tr.Events)
		tr.Events = append(tr.Events, trace.EndEvent())
	}
	osProf, appProf := FromTrace(tr)
	if appProf != nil {
		t.Fatal("no application in trace; profile should be nil")
	}
	if osProf.ClassInv[program.SeedSysCall] != 3 {
		t.Fatalf("syscall invocations = %d, want 3", osProf.ClassInv[program.SeedSysCall])
	}
	if osProf.TotalInvocations() != 3 {
		t.Fatalf("total invocations = %d, want 3", osProf.TotalInvocations())
	}
	if osProf.Block[0] != 3 || osProf.Block[1] != 3 {
		t.Fatalf("block counts = %v, want 3 each", osProf.Block)
	}
	if osProf.RoutineInv[r] != 3 {
		t.Fatalf("routine invocations = %d, want 3", osProf.RoutineInv[r])
	}
}

func TestApplyAndShapeMismatch(t *testing.T) {
	p, _ := progtest.Linear(3, 8)
	pr := New(p)
	pr.Block[1] = 7
	pr.Arc[0][0] = 7
	pr.RoutineInv[0] = 2
	if err := pr.Apply(p); err != nil {
		t.Fatal(err)
	}
	if p.Blocks[1].Weight != 7 || p.Blocks[0].Out[0].Weight != 7 ||
		p.Routines[0].Invocations != 2 {
		t.Fatal("Apply did not write weights")
	}
	other, _ := progtest.Linear(5, 8)
	if err := pr.Apply(other); err == nil {
		t.Fatal("Apply accepted mismatched shape")
	}
}

func TestAverageNormalises(t *testing.T) {
	p, _ := progtest.Linear(2, 8)
	a := New(p)
	b := New(p)
	// a is 10x "longer" than b but has the same shape; the average should
	// weight both equally.
	a.Block[0], a.Block[1] = 1000, 1000
	b.Block[0], b.Block[1] = 100, 0
	avg, err := Average(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Block 0 gets mass from both (equal after normalising); block 1 only
	// from a. So share(block0) should be ~3x share(block1).
	r := float64(avg.Block[0]) / float64(avg.Block[1])
	if r < 2.7 || r > 3.3 {
		t.Fatalf("normalised ratio = %.2f, want ~3", r)
	}
}

func TestAverageKeepsExecutedBlocksExecuted(t *testing.T) {
	// A block executed once in a giant profile must not round to zero:
	// layout algorithms prune zero-weight blocks.
	p, _ := progtest.Linear(2, 8)
	a := New(p)
	a.Block[0] = 1 << 40
	a.Block[1] = 1
	avg, err := Average(a)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Block[1] == 0 {
		t.Fatal("executed block rounded to zero by averaging")
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average(); err == nil {
		t.Fatal("Average() with no profiles should fail")
	}
	p1, _ := progtest.Linear(2, 8)
	p2, _ := progtest.Linear(3, 8)
	if _, err := Average(New(p1), New(p2)); err == nil {
		t.Fatal("Average over mismatched shapes should fail")
	}
}

// TestQuickProfileRoundTrip property-checks that profiling a walked trace
// and applying it yields weights consistent with the events: the sum of
// block weights equals the number of block events, and every arc weight is
// at most its source block weight.
func TestQuickProfileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		fx := progtest.Figure9()
		fx.Prog.ResetWeights()
		tr := &trace.Trace{Name: "t", OS: fx.Prog}
		w := trace.NewWalker(fx.Prog, trace.DomainOS, rand.New(rand.NewSource(seed)), nil)
		blocks := 0
		for i := 0; i < 20; i++ {
			tr.Events = append(tr.Events, trace.BeginEvent(program.SeedInterrupt))
			before := len(tr.Events)
			tr.Events = w.WalkInvocation(fx.Push, tr.Events)
			blocks += len(tr.Events) - before
			tr.Events = append(tr.Events, trace.EndEvent())
		}
		pr, _ := FromTrace(tr)
		if pr.Total() != uint64(blocks) {
			return false
		}
		if err := pr.Apply(fx.Prog); err != nil {
			return false
		}
		for i := range fx.Prog.Blocks {
			b := &fx.Prog.Blocks[i]
			var out uint64
			for _, a := range b.Out {
				out += a.Weight
			}
			if out > b.Weight {
				return false
			}
			if b.HasCall && b.Call.Count > b.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
