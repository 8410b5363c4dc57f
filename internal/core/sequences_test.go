package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"oslayout/internal/kernelgen"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/workload"
)

// fig9Entries maps the push_hrtime entry onto the interrupt seed slot.
func fig9Entries(f *progtest.Figure9Fixture) [program.NumSeedClasses]program.BlockID {
	var e [program.NumSeedClasses]program.BlockID
	for c := range e {
		e[c] = program.NoBlock
	}
	e[program.SeedInterrupt] = f.Node["push0"]
	return e
}

// fig9Schedule is a two-pass schedule like the paper's worked example:
// first a selective pass, then the catch-all (0,0) pass.
func fig9Schedule() Schedule {
	var row1, row2 [program.NumSeedClasses]Thresh
	for c := range row1 {
		row1[c] = inactive
		row2[c] = inactive
	}
	row1[program.SeedInterrupt] = Thresh{Exec: 0.005, Branch: 0.1}
	row2[program.SeedInterrupt] = Thresh{Exec: 0, Branch: 0}
	return Schedule{row1, row2}
}

// TestFigure9SequenceConstruction replays the paper's Figure 9 example: the
// greedy walk places caller blocks, inlines the callee routines' hot blocks
// between them, resumes the caller at the continuation, and picks up the
// leftover acceptable block (the paper's "node 16") by restarting from the
// seed. The second, catch-all pass collects the rare blocks.
func TestFigure9SequenceConstruction(t *testing.T) {
	f := progtest.Figure9()
	seqs, visited := BuildSequencesCapped(f.Prog, fig9Entries(f), fig9Schedule(), 0)
	if len(seqs) != 2 {
		t.Fatalf("built %d sequences, want 2", len(seqs))
	}

	names := func(s Sequence) []string {
		rev := map[program.BlockID]string{}
		for n, b := range f.Node {
			rev[b] = n
		}
		var out []string
		for _, b := range s.Blocks {
			out = append(out, rev[b])
		}
		return out
	}

	want1 := []string{
		"push0", "push1", "push4",
		"push8", "read0", "read1", "read2", "read3",
		"push9", "push10", "push11", "push12",
		"check0", "check1", "check2", "check5",
		"push13", "update0",
		"push14", "push15", "push17", "push18", "push19",
		"push16", // found by restarting from the seed
	}
	got1 := names(seqs[0])
	if len(got1) != len(want1) {
		t.Fatalf("pass 1 sequence:\n got %v\nwant %v", got1, want1)
	}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("pass 1 sequence differs at %d:\n got %v\nwant %v", i, got1, want1)
		}
	}

	want2 := map[string]bool{"push5": true, "push7": true, "check3": true, "check4": true}
	got2 := names(seqs[1])
	if len(got2) != len(want2) {
		t.Fatalf("pass 2 sequence = %v, want the 4 rare blocks", got2)
	}
	for _, n := range got2 {
		if !want2[n] {
			t.Fatalf("pass 2 includes unexpected block %s", n)
		}
	}

	for b := range f.Prog.Blocks {
		if f.Prog.Blocks[b].Weight > 0 && !visited[b] {
			t.Fatalf("executed block %d never placed in a sequence", b)
		}
	}
}

// TestSequenceBranchThreshold verifies that arcs below BranchThresh stop the
// walk: with BranchThresh above the cold side's probability, the cold chain
// is excluded from the first pass even though it meets ExecThresh.
func TestSequenceBranchThreshold(t *testing.T) {
	p, _ := progtest.Diamond(0.1)
	// entry=0 (w100) splits 10/90 to a=1/b=2; join=3; exit=4.
	ws := []uint64{100, 10, 90, 100, 100}
	for i, w := range ws {
		p.Blocks[i].Weight = w
	}
	p.Blocks[0].Out[0].Weight = 10
	p.Blocks[0].Out[1].Weight = 90
	p.Blocks[1].Out[0].Weight = 10
	p.Blocks[2].Out[0].Weight = 90
	p.Blocks[3].Out[0].Weight = 100

	var entries [program.NumSeedClasses]program.BlockID
	for c := range entries {
		entries[c] = program.NoBlock
	}
	entries[0] = 0
	var row [program.NumSeedClasses]Thresh
	for c := range row {
		row[c] = inactive
	}
	// ExecThresh 0 accepts every executed block; BranchThresh 0.5 only
	// allows the hot arc out of the entry.
	row[0] = Thresh{Exec: 0, Branch: 0.5}
	seqs, _ := BuildSequencesCapped(p, entries, Schedule{row}, 0)
	// Walk: 0 -> 2 (0.9) -> 3 (1.0) -> 4; block 1 is reachable only through
	// a 0.1 arc, below BranchThresh, so neither the walk nor the restart
	// reaches it. It is executed, so the leftover sweep collects it into a
	// final sequence of its own.
	if len(seqs) != 2 {
		t.Fatalf("want main + leftover sequences, got %d", len(seqs))
	}
	want := []program.BlockID{0, 2, 3, 4}
	got := seqs[0].Blocks
	if len(got) != len(want) {
		t.Fatalf("sequence %v, want %v", got, want)
	}
	for i, b := range want {
		if got[i] != b {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if len(seqs[1].Blocks) != 1 || seqs[1].Blocks[0] != 1 {
		t.Fatalf("leftover sequence = %v, want [1]", seqs[1].Blocks)
	}
}

// TestSequencesPruneUnexecuted verifies that never-executed blocks are not
// placed in any sequence even at (0,0).
func TestSequencesPruneUnexecuted(t *testing.T) {
	p, _ := progtest.Linear(4, 8)
	p.Blocks[0].Weight = 10
	p.Blocks[1].Weight = 10
	p.Blocks[0].Out[0].Weight = 10
	var entries [program.NumSeedClasses]program.BlockID
	for c := range entries {
		entries[c] = program.NoBlock
	}
	entries[0] = 0
	var row [program.NumSeedClasses]Thresh
	for c := range row {
		row[c] = inactive
	}
	row[0] = Thresh{Exec: 0, Branch: 0}
	seqs, visited := BuildSequencesCapped(p, entries, Schedule{row}, 0)
	var placed int
	for _, s := range seqs {
		placed += len(s.Blocks)
	}
	if placed != 2 {
		t.Fatalf("placed %d blocks, want 2 (executed only)", placed)
	}
	if visited[2] || visited[3] {
		t.Fatal("unexecuted blocks marked visited")
	}
}

func TestStaggeredScheduleMatchesTable4(t *testing.T) {
	s := Table4Schedule()
	if len(s) != 6 {
		t.Fatalf("%d iterations, want 6", len(s))
	}
	i, pf, sc, ot := program.SeedInterrupt, program.SeedPageFault, program.SeedSysCall, program.SeedOther
	// Row 0: only interrupts, (1.4%, 40%).
	if s[0][i] != (Thresh{0.014, 0.4}) {
		t.Errorf("row0 interrupt = %+v", s[0][i])
	}
	for _, c := range []program.SeedClass{pf, sc, ot} {
		if s[0][c].Exec >= 0 {
			t.Errorf("row0 class %v should be inactive", c)
		}
	}
	// Row 1: interrupts (0.5%, 10%), page faults (0.5%, 40%).
	if s[1][i] != (Thresh{0.005, 0.1}) || s[1][pf] != (Thresh{0.005, 0.4}) {
		t.Errorf("row1 = %+v / %+v", s[1][i], s[1][pf])
	}
	// Row 3: syscalls use branch[1] = 10%, other joins at 40%.
	if s[3][sc] != (Thresh{0.0001, 0.1}) || s[3][ot] != (Thresh{0.0001, 0.4}) {
		t.Errorf("row3 = %+v / %+v", s[3][sc], s[3][ot])
	}
	// Final row: everything at (0,0).
	last := s[len(s)-1]
	for c := 0; c < program.NumSeedClasses; c++ {
		if last[c] != (Thresh{0, 0}) {
			t.Errorf("final row class %d = %+v, want (0,0)", c, last[c])
		}
	}
}

func TestSeedAndMainEntries(t *testing.T) {
	f := progtest.Figure9()
	f.Prog.Seeds[program.SeedInterrupt] = f.Push
	e := SeedEntries(f.Prog)
	if e[program.SeedInterrupt] != f.Node["push0"] {
		t.Fatal("SeedEntries wrong")
	}
	if e[program.SeedSysCall] != program.NoBlock {
		t.Fatal("unset seeds should be NoBlock")
	}
	m := MainEntries(f.Prog, []program.RoutineID{f.Read, f.Check})
	if m[0] != f.Node["read0"] || m[1] != f.Node["check0"] {
		t.Fatal("MainEntries wrong")
	}
	if m[2] != program.NoBlock {
		t.Fatal("extra main slots should be NoBlock")
	}
}

func TestBuildSequencesCapped(t *testing.T) {
	f := progtest.Figure9()
	seqs, visited := BuildSequencesCapped(f.Prog, fig9Entries(f), fig9Schedule(), 64)
	// Every sequence respects the cap (single oversized blocks excepted;
	// the fixture's blocks are 16 bytes so none apply).
	var placed int
	for _, s := range seqs {
		if s.Bytes > 64 {
			t.Fatalf("sequence of %d bytes exceeds the 64-byte cap", s.Bytes)
		}
		placed += len(s.Blocks)
	}
	// Capping must not change WHAT is placed, only how it is chunked.
	uncapped, _ := BuildSequencesCapped(f.Prog, fig9Entries(f), fig9Schedule(), 0)
	var placedU int
	for _, s := range uncapped {
		placedU += len(s.Blocks)
	}
	if placed != placedU {
		t.Fatalf("capped placement covers %d blocks, uncapped %d", placed, placedU)
	}
	for b := range f.Prog.Blocks {
		if f.Prog.Blocks[b].Weight > 0 && !visited[b] {
			t.Fatalf("executed block %d missing under capping", b)
		}
	}
	// Order is preserved across chunk boundaries: flatten and compare.
	flatten := func(ss []Sequence) []program.BlockID {
		var out []program.BlockID
		for _, s := range ss {
			out = append(out, s.Blocks...)
		}
		return out
	}
	fc, fu := flatten(seqs), flatten(uncapped)
	for i := range fu {
		if fc[i] != fu[i] {
			t.Fatalf("capped order diverges at %d", i)
		}
	}
}

// profiledFixture is a default-size kernel with kernel profiles measured
// from short traces of the paper workloads: profs[0] is their average (the
// profile every layout builds from), profs[1:] each workload's own.
type profiledFixture struct {
	k     *kernelgen.Kernel
	profs []*profile.Profile
}

func newProfiledFixture(tb testing.TB, seed int64) *profiledFixture {
	tb.Helper()
	cfg := kernelgen.DefaultConfig()
	cfg.Seed = seed
	f := &profiledFixture{k: kernelgen.Build(cfg), profs: []*profile.Profile{nil}}
	for i, w := range workload.Paper() {
		// The per-workload trace seeds oslayout.NewStudy uses.
		tr, _, err := workload.Generate(f.k, w, workload.Options{Seed: int64(7001 + 13*i), OSRefs: 200_000})
		if err != nil {
			tb.Fatal(err)
		}
		osp, _ := profile.FromTrace(tr)
		f.profs = append(f.profs, osp)
	}
	avg, err := profile.Average(f.profs[1:]...)
	if err != nil {
		tb.Fatal(err)
	}
	f.profs[0] = avg
	return f
}

// use applies profile i to the fixture's kernel and returns the program.
func (f *profiledFixture) use(tb testing.TB, i int) *program.Program {
	tb.Helper()
	if err := f.profs[i].Apply(f.k.Prog); err != nil {
		tb.Fatal(err)
	}
	return f.k.Prog
}

// oracleBuildSequences is BuildSequencesCapped with the restart search of
// the original implementation, oracleFindStart, which allocates a fresh
// visited-set map per restart. The greedy step (next, pop) is shared, so a
// divergence can only come from the restart walk.
func oracleBuildSequences(p *program.Program, entries [program.NumSeedClasses]program.BlockID, schedule Schedule, maxSeqBytes int64) ([]Sequence, []bool) {
	sb := &seqBuilder{p: p, total: float64(p.TotalWeight()), visited: make([]bool, p.NumBlocks())}
	var seqs []Sequence
	for iter, row := range schedule {
		for class := 0; class < program.NumSeedClasses; class++ {
			th := row[class]
			if th.Exec < 0 || entries[class] == program.NoBlock {
				continue
			}
			var blocks []program.BlockID
			for {
				start := oracleFindStart(sb, entries[class], th)
				if start == program.NoBlock {
					break
				}
				var stack []program.BlockID
				for cur := start; cur != program.NoBlock; {
					sb.visited[cur] = true
					blocks = append(blocks, cur)
					cur = sb.next(cur, &stack, th)
				}
			}
			if len(blocks) == 0 {
				continue
			}
			for _, chunk := range splitByBytes(p, blocks, maxSeqBytes) {
				s := Sequence{Seed: program.SeedClass(class), Iter: iter, Thresh: th, Blocks: chunk}
				for _, b := range chunk {
					s.Bytes += int64(p.Block(b).Size)
				}
				seqs = append(seqs, s)
			}
		}
	}
	var leftover []program.BlockID
	for b := range p.Blocks {
		if !sb.visited[b] && p.Blocks[b].Weight > 0 {
			leftover = append(leftover, program.BlockID(b))
		}
	}
	if len(leftover) > 0 {
		sort.SliceStable(leftover, func(i, j int) bool {
			return p.Block(leftover[i]).Weight > p.Block(leftover[j]).Weight
		})
		s := Sequence{Seed: program.SeedOther, Iter: len(schedule), Blocks: leftover}
		for _, b := range leftover {
			sb.visited[b] = true
			s.Bytes += int64(p.Block(b).Size)
		}
		seqs = append(seqs, s)
	}
	return seqs, sb.visited
}

// oracleFindStart is the original map-based restart search: a breadth-first
// walk from the seed through placed blocks along hot-enough edges, keeping
// the heaviest acceptable unplaced block it meets (strictly heavier wins).
func oracleFindStart(sb *seqBuilder, seedEntry program.BlockID, th Thresh) program.BlockID {
	if sb.acceptable(seedEntry, th) {
		return seedEntry
	}
	if !sb.visited[seedEntry] {
		return program.NoBlock
	}
	seen := make(map[program.BlockID]bool, 256)
	queue := []program.BlockID{seedEntry}
	seen[seedEntry] = true
	var best program.BlockID = program.NoBlock
	var bestW uint64
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		b := sb.p.Block(x)
		tryEdge := func(to program.BlockID, hot bool) {
			if seen[to] {
				return
			}
			if sb.visited[to] {
				seen[to] = true
				queue = append(queue, to)
				return
			}
			if hot && sb.acceptable(to, th) {
				if w := sb.p.Block(to).Weight; best == program.NoBlock || w > bestW {
					best, bestW = to, w
				}
			}
		}
		bw := float64(b.Weight)
		for _, a := range b.Out {
			if a.Weight == 0 {
				continue
			}
			hot := bw == 0 || float64(a.Weight)/bw >= th.Branch
			tryEdge(a.To, hot)
		}
		if b.HasCall {
			if b.Call.Count > 0 {
				tryEdge(sb.p.Routine(b.Call.Callee).Entry, true)
			}
			if b.Call.Cont != program.NoBlock {
				tryEdge(b.Call.Cont, true)
			}
		}
	}
	return best
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []program.BlockID) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestBuildSequencesMatchesOracle checks that the production sequence
// builder reproduces the original map-based restart search exactly: same
// sequences (seed, iteration, thresholds, blocks, bytes) and same visited
// set, over several kernels, every profile layouts are built from, both
// schedules and with and without the byte cap.
func TestBuildSequencesMatchesOracle(t *testing.T) {
	schedules := []struct {
		name  string
		sched Schedule
	}{{"default", DefaultSchedule()}, {"table4", Table4Schedule()}}
	for _, seed := range []int64{kernelgen.DefaultConfig().Seed, 7, 42} {
		f := newProfiledFixture(t, seed)
		entries := SeedEntries(f.k.Prog)
		for pi := range f.profs {
			p := f.use(t, pi)
			for _, sc := range schedules {
				for _, maxBytes := range []int64{0, 1 << 10} {
					name := fmt.Sprintf("seed=%d/profile=%d/%s/cap=%d", seed, pi, sc.name, maxBytes)
					got, gotVisited := BuildSequencesCapped(p, entries, sc.sched, maxBytes)
					want, wantVisited := oracleBuildSequences(p, entries, sc.sched, maxBytes)
					if len(got) != len(want) {
						t.Fatalf("%s: %d sequences, oracle %d", name, len(got), len(want))
					}
					for i := range want {
						g, w := got[i], want[i]
						if g.Seed != w.Seed || g.Iter != w.Iter || g.Thresh != w.Thresh || g.Bytes != w.Bytes {
							t.Fatalf("%s: sequence %d is (seed %d, iter %d, %v, %d bytes), oracle (seed %d, iter %d, %v, %d bytes)",
								name, i, g.Seed, g.Iter, g.Thresh, g.Bytes, w.Seed, w.Iter, w.Thresh, w.Bytes)
						}
						if j := firstDiff(g.Blocks, w.Blocks); j >= 0 {
							t.Fatalf("%s: sequence %d diverges from the oracle at block %d of %d/%d", name, i, j, len(g.Blocks), len(w.Blocks))
						}
					}
					if !slices.Equal(gotVisited, wantVisited) {
						t.Fatalf("%s: visited set differs from the oracle", name)
					}
				}
			}
		}
	}
}
