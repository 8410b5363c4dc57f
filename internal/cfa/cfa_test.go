package cfa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oslayout/internal/program"
	"oslayout/internal/progtest"
)

func TestRPOLinear(t *testing.T) {
	p, r := progtest.Linear(5, 8)
	c := BuildRoutineCFG(p, r)
	rpo := c.ReversePostorder()
	if len(rpo) != 5 {
		t.Fatalf("rpo length %d, want 5", len(rpo))
	}
	for i, n := range rpo {
		if n != i {
			t.Fatalf("rpo = %v, want identity order", rpo)
		}
	}
}

func TestRPOSkipsUnreachable(t *testing.T) {
	p, r := progtest.Linear(3, 8)
	// Unreachable block (no in-arcs).
	p.AddBlock(r, 8)
	c := BuildRoutineCFG(p, r)
	if got := len(c.ReversePostorder()); got != 3 {
		t.Fatalf("rpo covers %d nodes, want 3", got)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	p, r := progtest.Diamond(0.7)
	c := BuildRoutineCFG(p, r)
	idom := c.Dominators()
	// local indices: 0=entry, 1=a, 2=b, 3=join, 4=exit
	want := []int{0, 0, 0, 0, 3}
	for n, w := range want {
		if idom[n] != w {
			t.Errorf("idom[%d] = %d, want %d", n, idom[n], w)
		}
	}
}

func TestDominatorsLoop(t *testing.T) {
	p, r, _, _, _ := progtest.LoopProgram(0.5)
	c := BuildRoutineCFG(p, r)
	idom := c.Dominators()
	// 0=entry,1=header,2=body,3=latch,4=exit; chain domination.
	want := []int{0, 0, 1, 2, 3}
	for n, w := range want {
		if idom[n] != w {
			t.Errorf("idom[%d] = %d, want %d", n, idom[n], w)
		}
	}
}

// bruteDominates computes dominance by path enumeration: a dominates b if
// removing a disconnects b from the entry.
func bruteDominates(c *RoutineCFG, a, b, entry int) bool {
	if a == b {
		return true
	}
	seen := make([]bool, len(c.Blocks))
	seen[a] = true // block node a
	var stack []int
	if entry != a {
		stack = append(stack, entry)
		seen[entry] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == b {
			return false
		}
		for _, s := range c.Succ[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// TestQuickDominatorsMatchBruteForce property-checks the CHK dominator
// computation against path-based dominance on random CFGs.
func TestQuickDominatorsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := program.New("rnd")
		r := p.AddRoutine("r")
		n := 4 + rng.Intn(8)
		blocks := make([]program.BlockID, n)
		for i := range blocks {
			blocks[i] = p.AddBlock(r, 8)
		}
		// Random forward and backward arcs; ensure every node i>0 has an
		// in-arc from some j<i so most are reachable.
		for i := 1; i < n; i++ {
			from := blocks[rng.Intn(i)]
			p.AddArc(from, blocks[i], program.ArcBranch, 0)
			if rng.Intn(3) == 0 {
				p.AddArc(blocks[i], blocks[rng.Intn(i+1)], program.ArcBranch, 0)
			}
		}
		c := BuildRoutineCFG(p, r)
		idom := c.Dominators()
		entry := 0
		for b := 0; b < n; b++ {
			if idom[b] == -1 && b != entry {
				continue // unreachable
			}
			// Walk the dominator tree from b; every ancestor must dominate
			// b, and the immediate dominator must be a strict dominator.
			for a := idom[b]; ; a = idom[a] {
				if !bruteDominates(c, a, b, entry) {
					return false
				}
				if a == entry || a == idom[a] {
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFindLoopsSimple(t *testing.T) {
	p, r, header, latch, _ := progtest.LoopProgram(0.5)
	loops := FindLoops(p, r)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	lp := loops[0]
	if lp.Header != header {
		t.Errorf("header = %d, want %d", lp.Header, header)
	}
	if len(lp.Body) != 3 {
		t.Errorf("body size %d, want 3 (header, body, latch)", len(lp.Body))
	}
	if lp.CallsRoutines {
		t.Error("loop should be call-free")
	}
	if lp.StaticSize != 24 {
		t.Errorf("static size %d, want 24", lp.StaticSize)
	}
	if len(lp.BackEdges) != 1 || lp.BackEdges[0][0] != latch {
		t.Errorf("back edges %v, want one from latch %d", lp.BackEdges, latch)
	}
}

func TestFindLoopsNone(t *testing.T) {
	p, r := progtest.Diamond(0.5)
	if loops := FindLoops(p, r); len(loops) != 0 {
		t.Fatalf("diamond reported %d loops", len(loops))
	}
}

func TestFindLoopsNested(t *testing.T) {
	p := program.New("nested")
	r := p.AddRoutine("r")
	entry := p.AddBlock(r, 8)
	oh := p.AddBlock(r, 8) // outer header
	ih := p.AddBlock(r, 8) // inner header
	il := p.AddBlock(r, 8) // inner latch
	ol := p.AddBlock(r, 8) // outer latch
	exit := p.AddBlock(r, 8)
	p.AddArc(entry, oh, program.ArcFallthrough, 1)
	p.AddArc(oh, ih, program.ArcFallthrough, 1)
	p.AddArc(ih, il, program.ArcFallthrough, 1)
	p.AddArc(il, ih, program.ArcBranch, 0.5)
	p.AddArc(il, ol, program.ArcFallthrough, 0.5)
	p.AddArc(ol, oh, program.ArcBranch, 0.5)
	p.AddArc(ol, exit, program.ArcFallthrough, 0.5)
	loops := FindLoops(p, r)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	sizes := map[program.BlockID]int{}
	for _, lp := range loops {
		sizes[lp.Header] = len(lp.Body)
	}
	if sizes[ih] != 2 {
		t.Errorf("inner loop body = %d blocks, want 2", sizes[ih])
	}
	if sizes[oh] != 4 {
		t.Errorf("outer loop body = %d blocks, want 4", sizes[oh])
	}
	inner := BlocksInLoops(loops)
	if got := inner[ih]; got == nil || got.Header != ih {
		t.Error("BlocksInLoops should assign the inner header to the inner loop")
	}
	if got := inner[oh]; got == nil || got.Header != oh {
		t.Error("outer header belongs to the outer loop")
	}
}

func TestLoopWithCallDetected(t *testing.T) {
	p, caller, leaf := progtest.CallPair()
	// Wrap the call in a loop: c2 -> c1 back edge.
	c1 := p.Routine(caller).Blocks[1]
	c2 := p.Routine(caller).Blocks[2]
	blk := p.Block(c2)
	blk.Out = nil
	p.AddArc(c2, c1, program.ArcBranch, 0.5)
	p.AddArc(c2, p.Routine(caller).Blocks[3], program.ArcFallthrough, 0.5)
	loops := FindLoops(p, caller)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	if !loops[0].CallsRoutines {
		t.Fatal("loop contains a call block; CallsRoutines should be true")
	}
	cg := CallGraph(p)
	closure := LoopCalleeClosure(p, cg, &loops[0])
	if len(closure) != 1 || closure[0] != leaf {
		t.Fatalf("callee closure = %v, want [%d]", closure, leaf)
	}
}

func TestCallGraph(t *testing.T) {
	p := program.New("cg")
	a := p.AddRoutine("a")
	b := p.AddRoutine("b")
	c := p.AddRoutine("c")
	ab := p.AddBlock(a, 8)
	ar := p.AddBlock(a, 8)
	p.SetCall(ab, b, ar)
	p.Block(ab).Call.Count = 1
	bb := p.AddBlock(b, 8)
	br := p.AddBlock(b, 8)
	p.SetCall(bb, c, br)
	p.AddBlock(c, 8)

	cg := CallGraph(p)
	if len(cg[a]) != 1 || cg[a][0] != b {
		t.Fatalf("cg[a] = %v, want [b]", cg[a])
	}
	if len(cg[b]) != 1 || cg[b][0] != c {
		t.Fatalf("cg[b] = %v, want [c]", cg[b])
	}
	if len(cg) != 2 {
		t.Fatalf("cg = %v, want entries for a and b only (c calls nothing)", cg)
	}
}

func TestExecutedSizeWithCallees(t *testing.T) {
	p, caller, _ := progtest.CallPair()
	c1 := p.Routine(caller).Blocks[1]
	c2 := p.Routine(caller).Blocks[2]
	blk := p.Block(c2)
	blk.Out = nil
	p.AddArc(c2, c1, program.ArcBranch, 0.5)
	p.AddArc(c2, p.Routine(caller).Blocks[3], program.ArcFallthrough, 0.5)
	loops := FindLoops(p, caller)
	cg := CallGraph(p)
	// Without a profile every block counts: loop body (c1,c2) + whole leaf.
	got := ExecutedSizeWithCallees(p, cg, &loops[0])
	if got != 8+8+16 {
		t.Fatalf("size = %d, want 32", got)
	}
	// With a profile, only executed blocks count.
	for _, bid := range loops[0].Body {
		p.Block(bid).Weight = 1
	}
	p.Block(p.Routine(1).Blocks[0]).Weight = 1 // caller entry executed? id order: leaf=0
	leafBlocks := p.Routine(0).Blocks
	p.Block(leafBlocks[0]).Weight = 1
	got = ExecutedSizeWithCallees(p, cg, &loops[0])
	if got != 8+8+8 {
		t.Fatalf("profiled size = %d, want 24", got)
	}
}

func TestFigure9Loops(t *testing.T) {
	f := progtest.Figure9()
	if err := f.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if loops := AllLoops(f.Prog); len(loops) != 0 {
		t.Fatalf("figure 9 has no loops, found %d", len(loops))
	}
	cg := CallGraph(f.Prog)
	if len(cg[f.Push]) != 3 {
		t.Fatalf("push_hrtime calls %d routines, want 3", len(cg[f.Push]))
	}
}
