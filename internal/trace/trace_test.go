package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oslayout/internal/program"
	"oslayout/internal/progtest"
)

func TestEventPackingRoundTrip(t *testing.T) {
	f := func(raw uint32, app bool) bool {
		b := program.BlockID(raw & payloadMax)
		d := DomainOS
		if app {
			d = DomainApp
		}
		e := BlockEvent(d, b)
		return e.IsBlock() && e.Domain() == d && e.Block() == b &&
			!e.IsBegin() && !e.IsEnd()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarkerEvents(t *testing.T) {
	for c := program.SeedClass(0); c < program.NumSeedClasses; c++ {
		e := BeginEvent(c)
		if !e.IsBegin() || e.IsBlock() || e.IsEnd() {
			t.Fatalf("begin event misclassified for class %v", c)
		}
		if e.Class() != c {
			t.Fatalf("class = %v, want %v", e.Class(), c)
		}
	}
	e := EndEvent()
	if !e.IsEnd() || e.IsBlock() || e.IsBegin() {
		t.Fatal("end event misclassified")
	}
}

func TestRefsOf(t *testing.T) {
	cases := map[int32]uint64{2: 1, 4: 1, 6: 1, 8: 2, 21: 5, 32: 8}
	for size, want := range cases {
		if got := RefsOf(size); got != want {
			t.Errorf("RefsOf(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestDomainString(t *testing.T) {
	if DomainOS.String() != "OS" || DomainApp.String() != "App" {
		t.Fatal("domain strings wrong")
	}
}

func TestWalkLinearInvocation(t *testing.T) {
	p, r := progtest.Linear(4, 8)
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(1)), nil)
	events := w.WalkInvocation(r, nil)
	if len(events) != 4 {
		t.Fatalf("emitted %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Block() != program.BlockID(i) {
			t.Fatalf("event %d = block %d, want %d", i, e.Block(), i)
		}
	}
	if w.Running() {
		t.Fatal("walker should have finished")
	}
}

func TestWalkFollowsCallsAndReturns(t *testing.T) {
	p, caller, _ := progtest.CallPair()
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(1)), nil)
	events := w.WalkInvocation(caller, nil)
	// Expected order: c0 c1 l0 l1 c2 c3 (IDs: leaf 0,1; caller 2,3,4,5).
	want := []program.BlockID{2, 3, 0, 1, 4, 5}
	if len(events) != len(want) {
		t.Fatalf("emitted %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.Block() != want[i] {
			t.Fatalf("event %d = block %d, want %d", i, e.Block(), want[i])
		}
	}
}

func TestWalkGeometricLoopIterations(t *testing.T) {
	// Mean iterations 1/(1-p) with back probability p = 0.75 → mean 4.
	p, r, header, _, _ := progtest.LoopProgram(0.75)
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(7)), nil)
	const n = 3000
	var headerCount int
	for i := 0; i < n; i++ {
		events := w.WalkInvocation(r, nil)
		for _, e := range events {
			if e.Block() == header {
				headerCount++
			}
		}
	}
	mean := float64(headerCount) / n
	if mean < 3.6 || mean > 4.4 {
		t.Fatalf("mean loop iterations %.2f, want ~4", mean)
	}
}

func TestWalkDispatchSelector(t *testing.T) {
	p := program.New("disp")
	r := p.AddRoutine("seed")
	d := p.AddBlock(r, 8)
	a := p.AddBlock(r, 8)
	b := p.AddBlock(r, 8)
	p.AddArc(d, a, program.ArcBranch, 0.5)
	p.AddArc(d, b, program.ArcBranch, 0.5)
	did := p.SetDispatch(d)

	sel := SelectorFunc(func(got program.DispatchID, numArcs int) int {
		if got != did || numArcs != 2 {
			t.Fatalf("selector called with id=%d arcs=%d", got, numArcs)
		}
		return 1 // always take arc to b
	})
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(1)), sel)
	for i := 0; i < 20; i++ {
		events := w.WalkInvocation(r, nil)
		if len(events) != 2 || events[1].Block() != b {
			t.Fatalf("dispatch did not honour selector: %v", events)
		}
	}
}

func TestWalkSelectorOutOfRangePanics(t *testing.T) {
	p := program.New("disp")
	r := p.AddRoutine("seed")
	d := p.AddBlock(r, 8)
	a := p.AddBlock(r, 8)
	p.AddArc(d, a, program.ArcBranch, 1.0)
	p.SetDispatch(d)
	sel := SelectorFunc(func(program.DispatchID, int) int { return 5 })
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(1)), sel)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range selector result")
		}
	}()
	w.WalkInvocation(r, nil)
}

func TestStepNResumesAndRestarts(t *testing.T) {
	p, r := progtest.Linear(3, 8)
	w := NewWalker(p, DomainApp, rand.New(rand.NewSource(1)), nil)
	events := w.StepN(2, r, nil)
	if len(events) != 2 || !w.Running() {
		t.Fatalf("after 2 steps: %d events, running=%v", len(events), w.Running())
	}
	events = w.StepN(3, r, events)
	// 3 more steps: finishes block 2 (3rd), then restarts at 0, 1.
	want := []program.BlockID{0, 1, 2, 0, 1}
	if len(events) != len(want) {
		t.Fatalf("events = %d, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.Block() != want[i] || e.Domain() != DomainApp {
			t.Fatalf("event %d = %v/%d", i, e.Domain(), e.Block())
		}
	}
}

func TestWalkRunawayGuard(t *testing.T) {
	// A loop with back probability 1 never exits; the guard must fire.
	p, r, _, _, _ := progtest.LoopProgram(1.0)
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(1)), nil)
	w.MaxSteps = 1000
	defer func() {
		if recover() == nil {
			t.Fatal("expected runaway-guard panic")
		}
	}()
	w.WalkInvocation(r, nil)
}

func TestTraceRefs(t *testing.T) {
	p, r := progtest.Linear(2, 8) // two blocks, 2 refs each
	tr := &Trace{Name: "t", OS: p}
	w := NewWalker(p, DomainOS, rand.New(rand.NewSource(1)), nil)
	tr.Events = append(tr.Events, BeginEvent(program.SeedInterrupt))
	tr.Events = w.WalkInvocation(r, tr.Events)
	tr.Events = append(tr.Events, EndEvent())
	osRefs, appRefs := tr.Refs()
	if osRefs != 4 || appRefs != 0 {
		t.Fatalf("refs = %d/%d, want 4/0", osRefs, appRefs)
	}
	if tr.NumEvents() != 4 {
		t.Fatalf("NumEvents = %d, want 4", tr.NumEvents())
	}
}

// TestWalkerCountsRefs checks the walker's running reference count against
// a recount of what it emitted: the RefsOf sum over its block events, after
// whole invocations and again after suspended StepN bursts.
func TestWalkerCountsRefs(t *testing.T) {
	f := progtest.Figure9()
	w := NewWalker(f.Prog, DomainOS, rand.New(rand.NewSource(3)), nil)
	var events []Event
	check := func(after string) {
		t.Helper()
		var want uint64
		for _, e := range events {
			want += RefsOf(f.Prog.Block(e.Block()).Size)
		}
		if w.Refs != want || want == 0 {
			t.Fatalf("after %s: walker counted %d refs over %d events, recount %d", after, w.Refs, len(events), want)
		}
	}
	for i := 0; i < 50; i++ {
		events = w.WalkInvocation(f.Push, events)
	}
	check("WalkInvocation")
	for i := 0; i < 50; i++ {
		events = w.StepN(7, f.Push, events)
	}
	check("StepN")
}

func TestWalkFigure9HotPath(t *testing.T) {
	f := progtest.Figure9()
	w := NewWalker(f.Prog, DomainOS, rand.New(rand.NewSource(3)), nil)
	// With ground-truth probabilities the hot path occurs most of the time
	// and always visits read_hrc inline after push8.
	sawReadAfterPush8 := 0
	const n = 200
	for i := 0; i < n; i++ {
		events := w.WalkInvocation(f.Push, nil)
		for j := 1; j < len(events); j++ {
			if events[j-1].Block() == f.Node["push8"] &&
				events[j].Block() == f.Node["read0"] {
				sawReadAfterPush8++
			}
		}
	}
	if sawReadAfterPush8 != n {
		t.Fatalf("read_hrc followed push8 in %d/%d walks", sawReadAfterPush8, n)
	}
}
