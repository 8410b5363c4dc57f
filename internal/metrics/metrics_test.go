package metrics

import (
	"math"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/cfa"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
)

func TestArcProbabilitiesBimodal(t *testing.T) {
	f := progtest.Figure9()
	st := ArcProbabilities(f.Prog)
	if st.TotalArcs == 0 {
		t.Fatal("no arcs counted")
	}
	// The fixture's hot chains have probability ~1 arcs; the rare side
	// branches have ~0.01 arcs.
	if st.FracHigh < 0.5 {
		t.Errorf("high fraction %.2f, expected dominant near-1 arcs", st.FracHigh)
	}
	if st.FracLow == 0 {
		t.Errorf("no near-0 arcs; the fixture has rare branches")
	}
	var sum int
	for _, c := range st.Buckets {
		sum += c
	}
	if sum != st.TotalArcs {
		t.Fatalf("bucket sum %d != total %d", sum, st.TotalArcs)
	}
}

func TestArcProbabilitiesSkipsUnexecuted(t *testing.T) {
	p, _ := progtest.Linear(3, 8)
	// No weights at all: nothing to count.
	st := ArcProbabilities(p)
	if st.TotalArcs != 0 {
		t.Fatalf("counted %d arcs of an unexecuted program", st.TotalArcs)
	}
}

func TestInvocationSkew(t *testing.T) {
	f := progtest.Figure9()
	f.Prog.Routines[f.Push].Invocations = 700
	f.Prog.Routines[f.Read].Invocations = 200
	f.Prog.Routines[f.Check].Invocations = 100
	f.Prog.Routines[f.Update].Invocations = 0
	skew := InvocationSkew(f.Prog)
	if len(skew) != 3 {
		t.Fatalf("%d routines, want 3 (update never invoked)", len(skew))
	}
	if math.Abs(skew[0]-70) > 1e-9 || math.Abs(skew[1]-20) > 1e-9 || math.Abs(skew[2]-10) > 1e-9 {
		t.Fatalf("skew = %v, want [70 20 10]", skew)
	}
}

func TestBlockInvocationSkew(t *testing.T) {
	f := progtest.Figure9()
	sk := BlockInvocationSkew(f.Prog, cfa.AllLoops(f.Prog))
	if sk.Executed == 0 || len(sk.Shares) != sk.Executed {
		t.Fatal("no executed blocks counted")
	}
	for i := 1; i < len(sk.Shares); i++ {
		if sk.Shares[i] > sk.Shares[i-1] {
			t.Fatal("shares not sorted descending")
		}
	}
	var total float64
	for _, s := range sk.Shares {
		total += s
	}
	if math.Abs(total-100) > 0.1 {
		t.Fatalf("shares sum to %.2f, want 100", total)
	}
}

func TestTopRoutines(t *testing.T) {
	f := progtest.Figure9()
	f.Prog.Routines[f.Push].Invocations = 10
	f.Prog.Routines[f.Read].Invocations = 500
	f.Prog.Routines[f.Check].Invocations = 300
	f.Prog.Routines[f.Update].Invocations = 0
	top := TopRoutines(f.Prog, 2)
	if len(top) != 2 || top[0] != f.Read || top[1] != f.Check {
		t.Fatalf("top = %v", top)
	}
}

func TestTemporalReuse(t *testing.T) {
	// Build a trace with a routine called twice within one invocation at a
	// known distance, and once in a second invocation without reuse.
	p := program.New("reuse")
	r := p.AddRoutine("hot")
	hb := p.AddBlock(r, 40) // 10 words
	filler := p.AddRoutine("filler")
	fb := p.AddBlock(filler, 400) // 100 words

	tr := &trace.Trace{Name: "t", OS: p}
	ev := func(b program.BlockID) trace.Event { return trace.BlockEvent(trace.DomainOS, b) }
	tr.Events = []trace.Event{
		trace.BeginEvent(program.SeedSysCall),
		ev(hb), ev(fb), ev(hb), // reuse distance = 10+100 = 110 words
		trace.EndEvent(),
		trace.BeginEvent(program.SeedSysCall),
		ev(hb), // never reused in this invocation
		trace.EndEvent(),
	}
	st := TemporalReuse(tr, []program.RoutineID{r})
	// Three observations: one reuse at 110 words (bucket 100-1000 = index
	// 1) plus two final calls (the last call of each invocation is never
	// reused, the paper's "Last Inv" column).
	if math.Abs(st.Buckets[1]-100.0/3) > 1e-9 {
		t.Fatalf("bucket[1] = %v, want 33.3%%", st.Buckets[1])
	}
	if math.Abs(st.LastInv-200.0/3) > 1e-9 {
		t.Fatalf("LastInv = %v, want 66.7%%", st.LastInv)
	}
}

func TestTemporalReuseResetsAcrossInvocations(t *testing.T) {
	p := program.New("reuse")
	r := p.AddRoutine("hot")
	hb := p.AddBlock(r, 40)
	tr := &trace.Trace{Name: "t", OS: p}
	ev := trace.BlockEvent(trace.DomainOS, hb)
	tr.Events = []trace.Event{
		trace.BeginEvent(program.SeedOther), ev, trace.EndEvent(),
		trace.BeginEvent(program.SeedOther), ev, trace.EndEvent(),
	}
	st := TemporalReuse(tr, []program.RoutineID{r})
	// Both calls are last-in-invocation; no cross-invocation reuse.
	if math.Abs(st.LastInv-100) > 1e-9 {
		t.Fatalf("LastInv = %v, want 100%%", st.LastInv)
	}
}

func TestMergeReuse(t *testing.T) {
	a := ReuseStats{Buckets: []float64{10, 20, 30, 0, 0}, LastInv: 40}
	b := ReuseStats{Buckets: []float64{30, 20, 10, 0, 0}, LastInv: 40}
	m := MergeReuse([]ReuseStats{a, b})
	if m.Buckets[0] != 20 || m.Buckets[1] != 20 || m.Buckets[2] != 20 || m.LastInv != 40 {
		t.Fatalf("merge = %+v", m)
	}
	if empty := MergeReuse(nil); len(empty.Buckets) != 0 {
		t.Fatal("empty merge should be empty")
	}
}

func TestCallFreeLoopFractions(t *testing.T) {
	p, _, header, latch, exit := progtest.LoopProgram(0.5)
	// All 5 blocks are 8 bytes (2 refs each). Loop = header, body, latch.
	for i := range p.Blocks {
		p.Blocks[i].Weight = 1
	}
	p.Block(header).Weight = 10
	p.Block(header + 1).Weight = 10
	p.Block(latch).Weight = 10
	loops := cfa.AllLoops(p)
	f := CallFreeLoopFractions(p, loops)
	// Dynamic: loop refs = 30*2=60 of total (1+10+10+10+1)*2=64.
	if math.Abs(f.DynFrac-60.0/64.0) > 1e-9 {
		t.Fatalf("DynFrac = %v", f.DynFrac)
	}
	// Static executed: 24 of 40 bytes.
	if math.Abs(f.StaticExecFrac-0.6) > 1e-9 {
		t.Fatalf("StaticExecFrac = %v", f.StaticExecFrac)
	}
	if math.Abs(f.StaticFrac-0.6) > 1e-9 {
		t.Fatalf("StaticFrac = %v", f.StaticFrac)
	}
	_ = exit
}

func TestLoopBehaviorsSplit(t *testing.T) {
	p, caller, _ := progtest.CallPair()
	// Make the caller's c2->c1 a loop containing the call.
	c1 := p.Routine(caller).Blocks[1]
	c2 := p.Routine(caller).Blocks[2]
	p.Block(c2).Out = nil
	p.AddArc(c2, c1, program.ArcBranch, 0.5)
	p.AddArc(c2, p.Routine(caller).Blocks[3], program.ArcFallthrough, 0.5)
	for i := range p.Blocks {
		p.Blocks[i].Weight = 4
	}
	// Give the back edge weight so trips > 0.
	blk := p.Block(c2)
	for j := range blk.Out {
		if blk.Out[j].To == c1 {
			blk.Out[j].Weight = 3
		}
	}
	loops := cfa.AllLoops(p)
	callFree, withCalls := LoopBehaviors(p, loops)
	if len(callFree) != 0 || len(withCalls) != 1 {
		t.Fatalf("split = %d/%d, want 0/1", len(callFree), len(withCalls))
	}
	lb := withCalls[0]
	if lb.Trips != 4 { // headerW 4 / entries (4-3)=1 → 4
		t.Fatalf("trips = %v, want 4", lb.Trips)
	}
	// Size includes the leaf callee (2 blocks × 8B) plus body (2 × 8B).
	if lb.Size != 32 {
		t.Fatalf("size = %d, want 32", lb.Size)
	}
}

func TestHistogramAndQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 10, 20}
	h := Histogram(vals, []float64{5, 15})
	if h[0] != 3 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	loops := []LoopBehavior{{Trips: 1}, {Trips: 5}, {Trips: 9}}
	q := Quantile(loops, 0.5, func(lb LoopBehavior) float64 { return lb.Trips })
	if q != 5 {
		t.Fatalf("median = %v, want 5", q)
	}
	if Quantile(nil, 0.5, nil) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestAccountBranchesAdjacency(t *testing.T) {
	// Three blocks: 0 -> 1 (hot), 0 -> 2 (cold). Layout A places 1 after 0
	// (hot fall-through); layout B places 2 after 0 (hot edge costs a
	// branch every time).
	p, _ := progtest.Diamond(0.9)
	// Weights: entry 100, a 90, b 10, join 100, exit 100.
	ws := []uint64{100, 90, 10, 100, 100}
	for i, w := range ws {
		p.Blocks[i].Weight = w
	}
	p.Blocks[0].Out[0].Weight = 90 // entry -> a
	p.Blocks[0].Out[1].Weight = 10 // entry -> b
	p.Blocks[1].Out[0].Weight = 90
	p.Blocks[2].Out[0].Weight = 10
	p.Blocks[3].Out[0].Weight = 100

	mkLayout := func(order []program.BlockID) *layout.Layout {
		l := layout.New("t", p, 0)
		pb := layout.NewBuilder(l)
		pb.AppendAll(order)
		return l
	}
	hotAdj := mkLayout([]program.BlockID{0, 1, 3, 4, 2})
	coldAdj := mkLayout([]program.BlockID{0, 2, 1, 3, 4})

	accHot := AccountBranches(p, hotAdj)
	accCold := AccountBranches(p, coldAdj)
	// hotAdj: free edges 0->1 (90), 1->3 (90), 3->4 (100) = 280;
	// branches: 0->2 (10), 2->3 (10) = 20.
	if accHot.DynamicFallthroughs != 280 || accHot.DynamicBranches != 20 {
		t.Fatalf("hot-adjacent accounting = %+v", accHot)
	}
	// coldAdj [0,2,1,3,4]: free edges 0->2 (10), 1->3 (90), 3->4 (100) =
	// 200; branches 0->1 (90), 2->3 (10) = 100.
	if accCold.DynamicFallthroughs != 200 || accCold.DynamicBranches != 100 {
		t.Fatalf("cold-adjacent accounting = %+v", accCold)
	}
	// Overhead of coldAdj relative to hotAdj must be positive.
	if DynamicOverheadPct(p, hotAdj, coldAdj) <= 0 {
		t.Fatal("placing the cold side adjacent should cost dynamic size")
	}
	if DynamicOverheadPct(p, hotAdj, hotAdj) != 0 {
		t.Fatal("identical layouts must have zero overhead")
	}
}

func TestConflictPairs(t *testing.T) {
	// Two hot routines whose blocks share a set, one cold routine.
	p := program.New("conf")
	a := p.AddRoutine("timer")
	ab := p.AddBlock(a, 32)
	b := p.AddRoutine("muldiv")
	bb := p.AddBlock(b, 32)
	c := p.AddRoutine("cold")
	cb := p.AddBlock(c, 32)
	p.Block(ab).Weight = 100
	p.Block(bb).Weight = 80
	p.Block(cb).Weight = 0

	l := layout.New("t", p, 0)
	l.Place(ab, 0)
	l.Place(bb, 1<<10) // same set in a 1KB direct-mapped cache
	l.Place(cb, 2<<10) // also same set but never executed

	cfg := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	pairs := ConflictPairs(p, l, cfg, 10)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly the timer/muldiv pair", pairs)
	}
	if pairs[0].A != a || pairs[0].B != b || pairs[0].Weight != 80 {
		t.Fatalf("pair = %+v, want timer/muldiv weight 80", pairs[0])
	}
	// Moving muldiv off the set removes the conflict.
	l.Place(bb, 1<<10+64)
	if got := ConflictPairs(p, l, cfg, 10); len(got) != 0 {
		t.Fatalf("after separation, pairs = %+v", got)
	}
}

func TestConflictPairsSpanningBlocks(t *testing.T) {
	// A block spanning two lines conflicts through either set.
	p := program.New("span")
	a := p.AddRoutine("a")
	ab := p.AddBlock(a, 64) // two 32B lines
	b := p.AddRoutine("b")
	bb := p.AddBlock(b, 32)
	p.Block(ab).Weight = 10
	p.Block(bb).Weight = 10
	l := layout.New("t", p, 0)
	l.Place(ab, 0)
	l.Place(bb, 1<<10+32) // conflicts with the SECOND line of ab
	cfg := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	pairs := ConflictPairs(p, l, cfg, 10)
	if len(pairs) != 1 || pairs[0].Weight != 10 {
		t.Fatalf("pairs = %+v", pairs)
	}
}
