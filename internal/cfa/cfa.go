// Package cfa implements the control-flow analyses the paper relies on:
// reverse postorder, dominator trees (Cooper–Harvey–Kennedy), natural loop
// detection "using dataflow analysis as discussed by Aho et al" (Section
// 3.2.2 and 4.3), loop size including callee closure, and the call graph.
package cfa

import (
	"sort"

	"oslayout/internal/program"
)

// RoutineCFG is the per-routine view used by the analyses: intra-routine
// successors only (calls are treated as falling through to the continuation
// block, matching the paper's treatment of loops "that call procedures").
type RoutineCFG struct {
	Prog    *program.Program
	Routine program.RoutineID
	// Blocks is the routine's block list; index within this slice is the
	// local node index used by the dominator computation.
	Blocks []program.BlockID
	// Local maps BlockID to local index.
	Local map[program.BlockID]int
	// Succ holds local successor indices per local node.
	Succ [][]int
	// Pred holds local predecessor indices per local node.
	Pred [][]int
}

// BuildRoutineCFG extracts the intra-routine CFG of routine r.
func BuildRoutineCFG(p *program.Program, r program.RoutineID) *RoutineCFG {
	rt := p.Routine(r)
	c := &RoutineCFG{
		Prog:    p,
		Routine: r,
		Blocks:  rt.Blocks,
		Local:   make(map[program.BlockID]int, len(rt.Blocks)),
		Succ:    make([][]int, len(rt.Blocks)),
		Pred:    make([][]int, len(rt.Blocks)),
	}
	for i, b := range rt.Blocks {
		c.Local[b] = i
	}
	for i, bid := range rt.Blocks {
		b := p.Block(bid)
		for k := 0; ; k++ {
			to, ok := succ(b, k)
			if !ok {
				break
			}
			if j, in := c.Local[to]; in {
				c.Succ[i] = append(c.Succ[i], j)
				c.Pred[j] = append(c.Pred[j], i)
			}
		}
	}
	return c
}

// succ returns the k-th intra-routine successor of b: its out-arcs, then
// its call's continuation. Successors outside b's routine are the caller's
// to filter.
func succ(b *program.BasicBlock, k int) (program.BlockID, bool) {
	if k < len(b.Out) {
		return b.Out[k].To, true
	}
	if k == len(b.Out) && b.HasCall && b.Call.Cont != program.NoBlock {
		return b.Call.Cont, true
	}
	return program.NoBlock, false
}

// ReversePostorder returns the local node indices reachable from the entry in
// reverse postorder. Unreachable nodes are omitted.
func (c *RoutineCFG) ReversePostorder() []int {
	entry := c.Local[c.Prog.Routine(c.Routine).Entry]
	seen := make([]bool, len(c.Blocks))
	var post []int
	// Iterative DFS so that degenerate deep routines cannot overflow the
	// goroutine stack.
	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: entry}}
	seen[entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(c.Succ[f.node]) {
			s := c.Succ[f.node][f.next]
			f.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{node: s})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate dominator of every reachable node using
// the Cooper–Harvey–Kennedy iterative algorithm. The result maps local node
// index to immediate dominator local index; the entry maps to itself and
// unreachable nodes map to -1.
func (c *RoutineCFG) Dominators() []int {
	rpo := c.ReversePostorder()
	order := make([]int, len(c.Blocks)) // node -> position in rpo
	for i := range order {
		order[i] = -1
	}
	for i, n := range rpo {
		order[n] = i
	}
	idom := make([]int, len(c.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	entry := c.Local[c.Prog.Routine(c.Routine).Entry]
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, n := range rpo {
			if n == entry {
				continue
			}
			newIdom := -1
			for _, p := range c.Pred[n] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Loop is a natural loop of one routine.
type Loop struct {
	Routine program.RoutineID
	// Header is the loop header block.
	Header program.BlockID
	// Body lists all blocks of the loop including the header.
	Body []program.BlockID
	// BackEdges lists the (latch, header) pairs that define the loop.
	BackEdges [][2]program.BlockID
	// CallsRoutines reports whether any body block performs a procedure
	// call — the paper's split between "loops without procedure calls" and
	// "loops with procedure calls".
	CallsRoutines bool
	// StaticSize is the byte size of the body blocks only.
	StaticSize int64
}

// dominates reports whether a dominates b given the idom array.
func dominates(idom []int, a, b int) bool {
	for b != -1 {
		if b == a {
			return true
		}
		if idom[b] == b {
			return a == b
		}
		b = idom[b]
	}
	return false
}

// FindLoops detects the natural loops of routine r. Loops sharing a header
// are merged, as is conventional.
func FindLoops(p *program.Program, r program.RoutineID) []Loop {
	c := BuildRoutineCFG(p, r)
	idom := c.Dominators()

	// Collect back edges: succ edges n->h where h dominates n.
	type he struct{ latch, header int }
	var backs []he
	for n := range c.Succ {
		if idom[n] == -1 && n != c.Local[p.Routine(r).Entry] {
			continue // unreachable
		}
		for _, h := range c.Succ[n] {
			if dominates(idom, h, n) {
				backs = append(backs, he{latch: n, header: h})
			}
		}
	}
	byHeader := make(map[int][]he)
	for _, b := range backs {
		byHeader[b.header] = append(byHeader[b.header], b)
	}

	headers := make([]int, 0, len(byHeader))
	for h := range byHeader {
		headers = append(headers, h)
	}
	sort.Ints(headers)

	var loops []Loop
	for _, h := range headers {
		inBody := map[int]bool{h: true}
		var work []int
		for _, be := range byHeader[h] {
			if !inBody[be.latch] {
				inBody[be.latch] = true
				work = append(work, be.latch)
			}
		}
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			for _, pr := range c.Pred[n] {
				if !inBody[pr] {
					inBody[pr] = true
					work = append(work, pr)
				}
			}
		}
		lp := Loop{Routine: r, Header: c.Blocks[h]}
		body := make([]int, 0, len(inBody))
		for n := range inBody {
			body = append(body, n)
		}
		sort.Ints(body)
		for _, n := range body {
			bid := c.Blocks[n]
			lp.Body = append(lp.Body, bid)
			blk := p.Block(bid)
			lp.StaticSize += int64(blk.Size)
			if blk.HasCall {
				lp.CallsRoutines = true
			}
		}
		for _, be := range byHeader[h] {
			lp.BackEdges = append(lp.BackEdges, [2]program.BlockID{c.Blocks[be.latch], c.Blocks[be.header]})
		}
		loops = append(loops, lp)
	}
	return loops
}

// AllLoops detects the natural loops of every routine in the program. Only
// routines whose depth-first walk meets a retreating edge go through
// FindLoops; most routines have none, and skipping them loses no loop (see
// loopScan).
func AllLoops(p *program.Program) []Loop {
	scan := loopScan{p: p, state: make([]uint8, p.NumBlocks())}
	var loops []Loop
	for r := range p.Routines {
		if scan.mayLoop(program.RoutineID(r)) {
			loops = append(loops, FindLoops(p, program.RoutineID(r))...)
		}
	}
	return loops
}

// loopScan is AllLoops' prefilter: an iterative depth-first walk of each
// routine over the edges BuildRoutineCFG uses. A natural loop needs a back
// edge n→h with h dominating n; h then lies on every path from the entry to
// n, so h is on the walk's stack when n→h is explored, and the walk reports
// the edge as retreating. The converse does not hold (an irreducible cycle
// retreats without forming a natural loop), which only costs FindLoops a
// routine with nothing to find.
type loopScan struct {
	p *program.Program
	// state is per block, shared by all routines: a block belongs to one
	// routine, and each routine is walked once.
	state []uint8
	stack []scanFrame
}

type scanFrame struct {
	b    program.BlockID
	next int // index of the next successor to explore (see succ)
}

const (
	scanUnseen uint8 = iota
	scanOnStack
	scanDone
)

// mayLoop walks routine r from its entry and reports whether it meets a
// retreating edge. Call it at most once per routine.
func (s *loopScan) mayLoop(r program.RoutineID) bool {
	entry := s.p.Routine(r).Entry
	s.state[entry] = scanOnStack
	stack := append(s.stack[:0], scanFrame{b: entry})
	found := false
	for len(stack) > 0 && !found {
		f := &stack[len(stack)-1]
		to, ok := succ(s.p.Block(f.b), f.next)
		if !ok {
			s.state[f.b] = scanDone
			stack = stack[:len(stack)-1]
			continue
		}
		f.next++
		if s.p.Block(to).Routine != r {
			continue
		}
		switch s.state[to] {
		case scanUnseen:
			s.state[to] = scanOnStack
			stack = append(stack, scanFrame{b: to})
		case scanOnStack:
			found = true
		}
	}
	s.stack = stack
	return found
}

// CallGraph maps each routine to the distinct routines it calls.
func CallGraph(p *program.Program) map[program.RoutineID][]program.RoutineID {
	set := make(map[program.RoutineID]map[program.RoutineID]bool)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if !b.HasCall {
			continue
		}
		m := set[b.Routine]
		if m == nil {
			m = make(map[program.RoutineID]bool)
			set[b.Routine] = m
		}
		m[b.Call.Callee] = true
	}
	cg := make(map[program.RoutineID][]program.RoutineID, len(set))
	for r, m := range set {
		for callee := range m {
			cg[r] = append(cg[r], callee)
		}
		sort.Slice(cg[r], func(i, j int) bool { return cg[r][i] < cg[r][j] })
	}
	return cg
}

// LoopCalleeClosure returns the routines called (transitively) from any block
// of the loop body.
func LoopCalleeClosure(p *program.Program, cg map[program.RoutineID][]program.RoutineID, lp *Loop) []program.RoutineID {
	seen := make(map[program.RoutineID]bool)
	var work []program.RoutineID
	for _, bid := range lp.Body {
		b := p.Block(bid)
		if b.HasCall && !seen[b.Call.Callee] {
			seen[b.Call.Callee] = true
			work = append(work, b.Call.Callee)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range cg[n] {
			if !seen[c] {
				seen[c] = true
				work = append(work, c)
			}
		}
	}
	out := make([]program.RoutineID, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExecutedSizeWithCallees returns the paper's Figure 5 metric: the static
// size of the executed part of the loop body plus the executed part of every
// routine it calls and their descendants. "Executed" means nonzero profile
// weight; if the program has no profile, all blocks count.
func ExecutedSizeWithCallees(p *program.Program, cg map[program.RoutineID][]program.RoutineID, lp *Loop) int64 {
	hasProfile := p.TotalWeight() > 0
	counts := func(b *program.BasicBlock) bool { return !hasProfile || b.Weight > 0 }
	var size int64
	for _, bid := range lp.Body {
		if b := p.Block(bid); counts(b) {
			size += int64(b.Size)
		}
	}
	for _, r := range LoopCalleeClosure(p, cg, lp) {
		for _, bid := range p.Routine(r).Blocks {
			if b := p.Block(bid); counts(b) {
				size += int64(b.Size)
			}
		}
	}
	return size
}

// BlocksInLoops returns the set of blocks that belong to any loop of the
// program, mapped to the mean-iteration estimate of the innermost loop they
// belong to (by smallest body).
func BlocksInLoops(loops []Loop) map[program.BlockID]*Loop {
	m := make(map[program.BlockID]*Loop)
	for i := range loops {
		lp := &loops[i]
		for _, b := range lp.Body {
			if prev, ok := m[b]; !ok || len(lp.Body) < len(prev.Body) {
				m[b] = lp
			}
		}
	}
	return m
}
