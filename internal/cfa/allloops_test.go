package cfa

import (
	"fmt"
	"reflect"
	"testing"

	"oslayout/internal/kernelgen"
	"oslayout/internal/program"
	"oslayout/internal/workload"
)

// unfilteredLoops is the AllLoops oracle: FindLoops on every routine, with
// no prefilter.
func unfilteredLoops(p *program.Program) []Loop {
	var loops []Loop
	for r := range p.Routines {
		loops = append(loops, FindLoops(p, program.RoutineID(r))...)
	}
	return loops
}

func checkAllLoops(t *testing.T, name string, p *program.Program) []Loop {
	t.Helper()
	got, want := AllLoops(p), unfilteredLoops(p)
	if len(got) != len(want) {
		t.Fatalf("%s: AllLoops found %d loops, unfiltered FindLoops %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: loop %d differs:\n got %+v\nwant %+v", name, i, got[i], want[i])
		}
	}
	return got
}

// TestAllLoopsMatchesUnfiltered checks that the prefilter skips no loop on
// real programs: several synthesized kernels and every workload's
// application image.
func TestAllLoopsMatchesUnfiltered(t *testing.T) {
	for _, seed := range []int64{kernelgen.DefaultConfig().Seed, 7, 42} {
		cfg := kernelgen.DefaultConfig()
		cfg.Seed = seed
		if loops := checkAllLoops(t, fmt.Sprintf("kernel seed %d", seed), kernelgen.Build(cfg).Prog); len(loops) == 0 {
			t.Fatalf("kernel seed %d: no loops found", seed)
		}
	}
	for _, w := range append(workload.Paper(), workload.OLTP()) {
		if w.HasApp() {
			checkAllLoops(t, w.Name+" application", w.BuildApp().Prog)
		}
	}
}

// TestAllLoopsEdgeCases runs the prefilter over one hand-built routine per
// edge case:
//
//	self:  e -> a; a -> a | x                        (self-loop at a)
//	call:  e -> h; h -> c | x; c: call leaf, cont h  (back edge c->h through a call continuation)
//	irred: e -> a | b; a -> b | x; b -> a            (a cycle with two entries: no natural loop)
//	unrch: e -> x; u -> v; v -> u                    (a cycle unreachable from the entry)
func TestAllLoopsEdgeCases(t *testing.T) {
	p := program.New("edgecases")
	block := func(r program.RoutineID) program.BlockID { return p.AddBlock(r, 8) }
	out := func(from program.BlockID, tos ...program.BlockID) {
		for _, to := range tos {
			p.AddArc(from, to, program.ArcBranch, 1/float64(len(tos)))
		}
	}
	leaf := p.AddRoutine("leaf")
	block(leaf)

	self := p.AddRoutine("self")
	e, a, x := block(self), block(self), block(self)
	out(e, a)
	out(a, a, x)

	call := p.AddRoutine("call")
	e, h, c, x := block(call), block(call), block(call), block(call)
	out(e, h)
	out(h, c, x)
	p.SetCall(c, leaf, h)

	irred := p.AddRoutine("irred")
	e, a, b, x := block(irred), block(irred), block(irred), block(irred)
	out(e, a, b)
	out(a, b, x)
	out(b, a)

	unrch := p.AddRoutine("unrch")
	e, x, u, v := block(unrch), block(unrch), block(unrch), block(unrch)
	out(e, x)
	out(u, v)
	out(v, u)

	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The prefilter keeps every routine with a retreating edge, including
	// the irreducible one, and skips the leaf and the unreachable cycle.
	scan := loopScan{p: p, state: make([]uint8, p.NumBlocks())}
	for r, want := range map[program.RoutineID]bool{leaf: false, self: true, call: true, irred: true, unrch: false} {
		if got := scan.mayLoop(r); got != want {
			t.Errorf("mayLoop(%s) = %v, want %v", p.Routine(r).Name, got, want)
		}
	}
	if loops := FindLoops(p, irred); len(loops) != 0 {
		t.Errorf("irreducible cycle reported as %d natural loops", len(loops))
	}
	loops := checkAllLoops(t, "edge cases", p)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2 (self-loop and call-continuation loop)", len(loops))
	}
	sl := p.Routine(self).Blocks[1]
	if lp := loops[0]; lp.Routine != self || lp.Header != sl || len(lp.Body) != 1 {
		t.Errorf("self-loop = %+v, want header and sole body block %d", lp, sl)
	}
	ch, cc := p.Routine(call).Blocks[1], p.Routine(call).Blocks[2]
	if lp := loops[1]; lp.Routine != call || lp.Header != ch || len(lp.Body) != 2 ||
		!lp.CallsRoutines || lp.BackEdges[0] != [2]program.BlockID{cc, ch} {
		t.Errorf("call-continuation loop = %+v, want header %d, back edge from %d", lp, ch, cc)
	}
}
