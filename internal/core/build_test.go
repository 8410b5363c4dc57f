package core

import (
	"math/rand"
	"testing"

	"oslayout/internal/appgen"
	"oslayout/internal/cfa"
	"oslayout/internal/kernelgen"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// profiledKernel builds a small kernel with a real profile from a short
// Shell trace (Shell exercises the broadest code).
func profiledKernel(t *testing.T) *kernelgen.Kernel {
	t.Helper()
	k := kernelgen.Build(kernelgen.Config{Seed: 4, TotalCodeBytes: 250 << 10, PoolScale: 0.3})
	tr, _, err := workload.Generate(k, workload.Shell(), workload.Options{Seed: 9, OSRefs: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := profile.FromTrace(tr)
	if err := prof.Apply(k.Prog); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAdjustedWeightsCountLoopsOnce(t *testing.T) {
	p, _, header, latch, exit := progtest.LoopProgram(0.9)
	// 10 invocations, ~10 iterations each.
	p.Blocks[0].Weight = 10
	p.Block(header).Weight = 100
	p.Block(header + 1).Weight = 100 // body
	p.Block(latch).Weight = 100
	p.Block(exit).Weight = 10
	// Back edge traversed 90 times.
	lb := p.Block(latch)
	for j := range lb.Out {
		if lb.Out[j].To == header {
			lb.Out[j].Weight = 90
		} else {
			lb.Out[j].Weight = 10
		}
	}
	loops := cfa.AllLoops(p)
	adj := AdjustedWeights(p, loops)
	// Entries = 100 - 90 = 10; loop blocks adjust from 100 to ~10.
	for _, b := range []program.BlockID{header, header + 1, latch} {
		if adj[b] != 10 {
			t.Errorf("adjusted[%d] = %d, want 10", b, adj[b])
		}
	}
	if adj[0] != 10 || adj[exit] != 10 {
		t.Errorf("non-loop blocks must keep their weights")
	}
	if got := LoopTrips(p, &loops[0]); got < 9.9 || got > 10.1 {
		t.Errorf("LoopTrips = %.2f, want 10", got)
	}
	if got := LoopEntries(p, &loops[0]); got != 10 {
		t.Errorf("LoopEntries = %d, want 10", got)
	}
}

func TestSelectSelfConfFree(t *testing.T) {
	p, _ := progtest.Linear(5, 10)
	adj := []uint64{500, 300, 150, 40, 10} // total 1000
	picks, bytes := SelectSelfConfFree(p, adj, 0.15)
	if len(picks) != 3 {
		t.Fatalf("picked %d blocks, want 3 (>=150)", len(picks))
	}
	if picks[0] != 0 || picks[1] != 1 || picks[2] != 2 {
		t.Fatalf("picks = %v, want descending by weight", picks)
	}
	if bytes != 30 {
		t.Fatalf("bytes = %d, want 30", bytes)
	}
	if got, _ := SelectSelfConfFree(p, adj, 0); got != nil {
		t.Fatal("cutoff 0 must disable the area")
	}
}

func TestQualifyingLoops(t *testing.T) {
	p, _, header, latch, _ := progtest.LoopProgram(0.9)
	p.Block(header).Weight = 100
	lb := p.Block(latch)
	p.Block(latch).Weight = 100
	for j := range lb.Out {
		if lb.Out[j].To == header {
			lb.Out[j].Weight = 90
		}
	}
	loops := cfa.AllLoops(p)
	if got := QualifyingLoops(p, loops, 6); len(got) != 1 {
		t.Fatalf("trips=10 loop should qualify at minTrips 6")
	}
	if got := QualifyingLoops(p, loops, 20); len(got) != 0 {
		t.Fatalf("trips=10 loop must not qualify at minTrips 20")
	}
	set := LoopBlockSet(QualifyingLoops(p, loops, 6))
	if len(set) != 3 {
		t.Fatalf("loop block set = %d blocks, want 3", len(set))
	}
}

func TestOptimizeRejectsBadInputs(t *testing.T) {
	f := progtest.Figure9()
	f.Prog.Seeds[program.SeedInterrupt] = f.Push
	if _, err := Optimize(f.Prog, cfa.AllLoops(f.Prog), SeedEntries(f.Prog), 0, Params{CacheSize: 0}); err == nil {
		t.Fatal("zero cache size accepted")
	}
	unprofiled := program.New("empty")
	r := unprofiled.AddRoutine("r")
	unprofiled.AddBlock(r, 8)
	if _, err := Optimize(unprofiled, cfa.AllLoops(unprofiled), SeedEntries(f.Prog), 0, DefaultParams(8<<10)); err == nil {
		t.Fatal("unprofiled program accepted")
	}
}

// layoutInvariants checks structural properties every plan must satisfy.
func layoutInvariants(t *testing.T, k *kernelgen.Kernel, plan *Plan) {
	t.Helper()
	if err := plan.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	C := uint64(plan.Params.CacheSize)
	S := uint64(plan.SCFBytes+1) &^ 1

	// 1. SelfConfFree blocks are contiguous at the image base.
	for i, b := range plan.SelfConfFree {
		if plan.Layout.Addr[b] >= S {
			t.Fatalf("SCF block %d (#%d) at %#x beyond area %#x", b, i, plan.Layout.Addr[b], S)
		}
	}
	// 2. With windows enabled, the SelfConfFree windows of the other
	// logical caches contain only never-executed code.
	if S > 0 && !plan.Params.NoSCFWindows {
		for b := range k.Prog.Blocks {
			addr := plan.Layout.Addr[b]
			off := addr % C
			if addr >= C && off < S && k.Prog.Blocks[b].Weight > 0 {
				t.Fatalf("executed block %d (w=%d) inside reserved window at %#x",
					b, k.Prog.Blocks[b].Weight, addr)
			}
		}
	}
	// 3. Every block is placed above or at the base with no overlap
	// (covered by Validate) and the image contains all code.
	var placedBytes int64
	seen := map[uint64]bool{}
	for b := range k.Prog.Blocks {
		a := plan.Layout.Addr[b]
		if seen[a] {
			t.Fatalf("two blocks share address %#x", a)
		}
		seen[a] = true
		placedBytes += int64(k.Prog.Blocks[b].Size)
	}
	if placedBytes != k.Prog.CodeSize() {
		t.Fatalf("placed %d bytes, code size %d", placedBytes, k.Prog.CodeSize())
	}
}

func TestOptSPlanInvariants(t *testing.T) {
	k := profiledKernel(t)
	plan, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, DefaultParams(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	layoutInvariants(t, k, plan)
	if len(plan.SelfConfFree) == 0 {
		t.Fatal("default params should select a SelfConfFree area")
	}
	if len(plan.Sequences) == 0 {
		t.Fatal("no sequences built")
	}
	// Sequence bytes grow as thresholds drop overall: the catch-all
	// iteration exists and every executed block is in a sequence or SCF.
	inSeq := map[program.BlockID]bool{}
	for _, s := range plan.Sequences {
		for _, b := range s.Blocks {
			inSeq[b] = true
		}
	}
	for _, b := range plan.SelfConfFree {
		inSeq[b] = true
	}
	for b := range k.Prog.Blocks {
		if k.Prog.Blocks[b].Weight > 0 && !inSeq[program.BlockID(b)] {
			t.Fatalf("executed block %d in no sequence", b)
		}
	}
}

func TestOptLExtractsLoopBlocks(t *testing.T) {
	k := profiledKernel(t)
	params := DefaultParams(8 << 10)
	params.Name = "OptL"
	params.LoopExtract = true
	plan, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	layoutInvariants(t, k, plan)
	if len(plan.LoopArea) == 0 {
		t.Fatal("OptL extracted no loop blocks")
	}
	// The loop area is contiguous modulo the reserved windows: all loop
	// blocks sit after the last non-loop sequence block.
	var maxSeq uint64
	pulled := map[program.BlockID]bool{}
	for _, b := range plan.LoopArea {
		pulled[b] = true
	}
	for _, b := range plan.SelfConfFree {
		pulled[b] = true
	}
	for _, s := range plan.Sequences {
		for _, b := range s.Blocks {
			if !pulled[b] && plan.Layout.Addr[b] > maxSeq {
				maxSeq = plan.Layout.Addr[b]
			}
		}
	}
	for _, b := range plan.LoopArea {
		if plan.Layout.Addr[b] < maxSeq {
			t.Fatalf("loop block %d at %#x before sequence end %#x", b, plan.Layout.Addr[b], maxSeq)
		}
	}
}

func TestCallOptPlacesLoopsInPrivateLogicalCaches(t *testing.T) {
	k := profiledKernel(t)
	params := DefaultParams(8 << 10)
	params.Name = "Call"
	params.LoopExtract = true
	params.CallOpt = true
	plan, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	layoutInvariants(t, k, plan)
}

func TestNoSCFWindowsVariant(t *testing.T) {
	k := profiledKernel(t)
	params := DefaultParams(7 << 10)
	params.NoSCFWindows = true
	plan, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	// The SCF blocks are still selected and contiguous at the base.
	if len(plan.SelfConfFree) == 0 {
		t.Fatal("SCF selection should still happen")
	}
	var maxSCF uint64
	for _, b := range plan.SelfConfFree {
		if a := plan.Layout.Addr[b]; a > maxSCF {
			maxSCF = a
		}
	}
	if maxSCF > uint64(plan.SCFBytes)+64 {
		t.Fatalf("SCF blocks not contiguous at base: max addr %#x", maxSCF)
	}
}

func TestClassification(t *testing.T) {
	k := profiledKernel(t)
	params := DefaultParams(8 << 10)
	params.LoopExtract = true
	plan, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[BlockClass]int{}
	for b, c := range plan.Classes {
		counts[c]++
		blk := &k.Prog.Blocks[b]
		if c == ClassCold && blk.Weight > 0 {
			t.Fatalf("executed block %d classified cold", b)
		}
		if c != ClassCold && blk.Weight == 0 {
			t.Fatalf("cold block %d classified %v", b, c)
		}
	}
	for _, c := range []BlockClass{ClassMainSeq, ClassSelfConfFree, ClassOtherSeq, ClassCold} {
		if counts[c] == 0 {
			t.Errorf("no blocks classified %v", c)
		}
	}
}

func TestBlockClassString(t *testing.T) {
	want := map[BlockClass]string{
		ClassCold: "Cold", ClassMainSeq: "MainSeq", ClassSelfConfFree: "SelfConfFree",
		ClassLoops: "Loops", ClassOtherSeq: "OtherSeq",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), w)
		}
	}
}

// TestOptimizeImprovesOverRandomProfileNoise is a sanity property: the OptS
// layout never places two distinct blocks at one address and is fully
// deterministic for a fixed profile.
func TestOptimizeDeterministic(t *testing.T) {
	k := profiledKernel(t)
	a, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, DefaultParams(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, DefaultParams(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Layout.Addr {
		if a.Layout.Addr[i] != b.Layout.Addr[i] {
			t.Fatalf("block %d placed at %#x then %#x", i, a.Layout.Addr[i], b.Layout.Addr[i])
		}
	}
}

func TestSelfConfFreeCappedAtHalfCache(t *testing.T) {
	k := profiledKernel(t)
	params := DefaultParams(4 << 10)
	// An absurdly low cutoff would select tens of kilobytes of blocks; the
	// area must be capped at half the cache so sequences still fit.
	params.SelfConfFreeCutoff = 1e-9
	plan, err := Optimize(k.Prog, cfa.AllLoops(k.Prog), SeedEntries(k.Prog), 0, params)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SCFBytes > 4<<10-512 {
		t.Fatalf("SCF area %d bytes leaves no sequence room in a 4KB cache", plan.SCFBytes)
	}
	if err := plan.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	layoutInvariants(t, k, plan)
}

func TestOptimizeApplicationWithMains(t *testing.T) {
	// The application path: sequences seeded at main functions, no
	// SelfConfFree area, loop extraction on — the paper's OptA treatment.
	app := appgen.Build("app", 21, appgen.TRFD(), appgen.Fsck())
	tr := &trace.Trace{Name: "t", OS: app.Prog}
	w := trace.NewWalker(app.Prog, trace.DomainOS, rand.New(rand.NewSource(2)), nil)
	for i := 0; i < 40; i++ {
		tr.Events = w.WalkInvocation(app.Mains[i%len(app.Mains)], tr.Events)
	}
	prof, _ := profile.FromTrace(tr)
	if err := prof.Apply(app.Prog); err != nil {
		t.Fatal(err)
	}
	params := Params{
		Name:         "OptA-app",
		CacheSize:    8 << 10,
		LoopExtract:  true,
		LoopMinTrips: 6,
	}
	plan, err := Optimize(app.Prog, cfa.AllLoops(app.Prog), MainEntries(app.Prog, app.Mains), 1<<24, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.SCFBytes != 0 || len(plan.SelfConfFree) != 0 {
		t.Fatal("application layout must not reserve a SelfConfFree area")
	}
	if len(plan.Sequences) == 0 {
		t.Fatal("no application sequences built")
	}
	// The hottest sequence starts at the image base (no SCF offset).
	first := plan.Sequences[0].Blocks[0]
	if plan.Layout.Addr[first] != 1<<24 {
		t.Fatalf("first sequence block at %#x, want image base", plan.Layout.Addr[first])
	}
}
