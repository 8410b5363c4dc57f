// Package core implements the paper's contribution: the instruction
// placement algorithm of Section 4, which exposes the three localities of
// systems code —
//
//   - spatial locality, by building sequences of basic blocks greedily from
//     the four operating-system seeds under a schedule of decreasing
//     (ExecThresh, BranchThresh) pairs, crossing routine boundaries
//     (Section 4.1, Table 4);
//   - temporal locality, by reserving a SelfConfFree area at the start of
//     the first logical cache for the hottest basic blocks, with only
//     seldom-executed code at conflicting offsets of the other logical
//     caches (Section 4.2, Figure 10);
//   - loop locality, optionally, by pulling the blocks of loops with enough
//     iterations out of the sequences into a contiguous loop area
//     (Section 4.3, the OptL variant), and — as the evaluated-but-rejected
//     advanced optimisation — by placing loops-with-callees in private
//     logical caches driven by a conflict matrix (Section 4.4).
package core

import (
	"sort"

	"oslayout/internal/program"
)

// Thresh is one (ExecThresh, BranchThresh) pair of the schedule. Exec is a
// fraction of the total basic-block execution count; Branch is an arc
// probability. A negative Exec marks the seed inactive in this iteration.
type Thresh struct {
	Exec   float64
	Branch float64
}

// inactive is the Thresh of a seed that does not participate in a schedule
// iteration (Table 4 staggers the seeds).
var inactive = Thresh{Exec: -1}

// Schedule is the per-iteration, per-seed threshold table.
type Schedule [][program.NumSeedClasses]Thresh

// StaggeredSchedule builds a schedule from an ExecThresh ladder and a
// BranchThresh decay: seed class c joins at iteration c (interrupts first,
// then page faults, system calls and other, as in Table 4), and a seed that
// joined j iterations ago uses branch[j]. The final iteration must have
// ExecThresh 0; every seed then also uses BranchThresh 0 so all executed
// code is captured.
func StaggeredSchedule(exec, branch []float64) Schedule {
	sched := make(Schedule, len(exec))
	for i := range exec {
		for c := 0; c < program.NumSeedClasses; c++ {
			if i < c {
				sched[i][c] = inactive
				continue
			}
			j := i - c
			if j >= len(branch) {
				j = len(branch) - 1
			}
			th := Thresh{Exec: exec[i], Branch: branch[j]}
			if exec[i] == 0 {
				th.Branch = 0
			}
			sched[i][c] = th
		}
	}
	return sched
}

// Table4Schedule reproduces the paper's Table 4 values exactly: ExecThresh
// dropping by roughly an order of magnitude per iteration from 1.4%, and
// BranchThresh decaying from 40% along each seed's own ladder.
func Table4Schedule() Schedule {
	return StaggeredSchedule(
		[]float64{0.014, 0.005, 0.001, 0.0001, 1e-7, 0},
		[]float64{0.4, 0.1, 0.01, 0.01, 0.001, 0})
}

// DefaultSchedule is the schedule used by the reproduction's experiments.
// The paper chose its threshold pairs "so that the length of each of the
// most important sequences ranges from 1 to 4 Kbytes" for its profile; this
// denser ladder achieves the same sequence granularity for the synthetic
// kernel's weight distribution.
func DefaultSchedule() Schedule {
	return StaggeredSchedule(
		[]float64{0.014, 0.005, 0.002, 0.001, 4e-4, 2e-4, 1e-4, 4e-5, 2e-5, 1e-5, 1e-6, 0},
		[]float64{0.4, 0.1, 0.05, 0.02, 0.01, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0001, 0})
}

// Sequence is one placed run of basic blocks generated from a seed under one
// threshold pair.
type Sequence struct {
	Seed   program.SeedClass
	Iter   int
	Thresh Thresh
	Blocks []program.BlockID
	Bytes  int64
}

// seqBuilder holds the shared state of sequence construction.
type seqBuilder struct {
	p       *program.Program
	total   float64 // total block execution weight
	visited []bool
	// seen and queue are findStart's scratch, reused by every restart: a
	// block is seen by the current restart walk iff seen[b] == epoch. Each
	// walk either precedes placing a block or ends a schedule phase, so
	// epochs stay below NumBlocks (< 2^31) plus the phase count and never
	// wrap.
	seen  []uint32
	epoch uint32
	queue []program.BlockID
}

// acceptable reports whether block b may join a sequence under th: it must
// be executed, not yet placed, and hot enough.
func (sb *seqBuilder) acceptable(b program.BlockID, th Thresh) bool {
	if sb.visited[b] {
		return false
	}
	w := sb.p.Block(b).Weight
	return w > 0 && float64(w) >= th.Exec*sb.total
}

// BuildSequencesCapped runs the full schedule over the program's seeds and
// returns the sequences in placement order (hottest first). Entries lists the
// seed entry blocks; for kernels use SeedEntries, for applications the mains.
// The returned visited set marks every block placed into some sequence.
//
// An optional per-sequence byte cap closes a sequence once it reaches
// maxSeqBytes, and construction continues in a fresh sequence of the same
// (iteration, seed) phase. The paper keeps its most important sequences at
// 1-4 KB "to reduce conflicts"; it achieves that by tuning the threshold
// schedule, and the cap offers the same control directly (0 disables it).
func BuildSequencesCapped(p *program.Program, entries [program.NumSeedClasses]program.BlockID, schedule Schedule, maxSeqBytes int64) ([]Sequence, []bool) {
	sb := &seqBuilder{
		p:       p,
		total:   float64(p.TotalWeight()),
		visited: make([]bool, p.NumBlocks()),
		seen:    make([]uint32, p.NumBlocks()),
	}
	var seqs []Sequence
	for iter, row := range schedule {
		for class := 0; class < program.NumSeedClasses; class++ {
			th := row[class]
			if th.Exec < 0 || entries[class] == program.NoBlock {
				continue
			}
			blocks := sb.buildOne(entries[class], th)
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
	// Leftover executed blocks (unreachable from the seeds through weighted
	// edges — possible when profiles are averaged) become a final sequence
	// ordered by weight.
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

// splitByBytes cuts a block list into chunks of at most maxBytes (0 = no
// cap). A chunk always contains at least one block.
func splitByBytes(p *program.Program, blocks []program.BlockID, maxBytes int64) [][]program.BlockID {
	if maxBytes <= 0 {
		return [][]program.BlockID{blocks}
	}
	var out [][]program.BlockID
	start := 0
	var size int64
	for i, b := range blocks {
		bs := int64(p.Block(b).Size)
		if size+bs > maxBytes && i > start {
			out = append(out, blocks[start:i])
			start = i
			size = 0
		}
		size += bs
	}
	out = append(out, blocks[start:])
	return out
}

// SeedEntries returns the entry blocks of a kernel's four seed routines.
func SeedEntries(p *program.Program) [program.NumSeedClasses]program.BlockID {
	var e [program.NumSeedClasses]program.BlockID
	for c := range e {
		e[c] = program.NoBlock
		if r := p.Seeds[c]; r != program.NoRoutine {
			e[c] = p.Routine(r).Entry
		}
	}
	return e
}

// MainEntries returns application entries: main routines are mapped onto the
// seed slots (the paper uses "the main function as the seed" for
// applications).
func MainEntries(p *program.Program, mains []program.RoutineID) [program.NumSeedClasses]program.BlockID {
	var e [program.NumSeedClasses]program.BlockID
	for c := range e {
		e[c] = program.NoBlock
	}
	for i, m := range mains {
		if i >= program.NumSeedClasses {
			break
		}
		e[i] = p.Routine(m).Entry
	}
	return e
}

// buildOne grows a single sequence: repeated greedy walks from the seed, as
// in Section 3.2.1 — "given a basic block, the algorithm follows the most
// frequently executed path out of it", visiting callees inline, until every
// restart from the seed finds no more acceptable blocks.
func (sb *seqBuilder) buildOne(seedEntry program.BlockID, th Thresh) []program.BlockID {
	var blocks []program.BlockID
	for {
		start := sb.findStart(seedEntry, th)
		if start == program.NoBlock {
			return blocks
		}
		var stack []program.BlockID
		for cur := start; cur != program.NoBlock; {
			sb.visited[cur] = true
			blocks = append(blocks, cur)
			cur = sb.next(cur, &stack, th)
		}
	}
}

// next picks the block placed after cur within the greedy walk, or NoBlock
// when the walk is stuck (all successors visited, too cold, or all arcs
// below BranchThresh) — the caller then restarts from the seed.
func (sb *seqBuilder) next(cur program.BlockID, stack *[]program.BlockID, th Thresh) program.BlockID {
	b := sb.p.Block(cur)
	if b.HasCall {
		calleeEntry := sb.p.Routine(b.Call.Callee).Entry
		if sb.acceptable(calleeEntry, th) {
			if b.Call.Cont != program.NoBlock {
				*stack = append(*stack, b.Call.Cont)
			}
			return calleeEntry
		}
		// Callee already placed or too cold: skip over the call and continue
		// in the caller.
		if b.Call.Cont != program.NoBlock && sb.acceptable(b.Call.Cont, th) {
			return b.Call.Cont
		}
		return sb.pop(stack, th)
	}
	if len(b.Out) > 0 {
		best := program.NoBlock
		var bestW uint64
		bw := float64(b.Weight)
		for _, a := range b.Out {
			if a.Weight == 0 || sb.visited[a.To] {
				continue
			}
			if bw > 0 && float64(a.Weight)/bw < th.Branch {
				continue
			}
			if !sb.acceptable(a.To, th) {
				continue
			}
			if best == program.NoBlock || a.Weight > bestW {
				best, bestW = a.To, a.Weight
			}
		}
		if best != program.NoBlock {
			return best
		}
		return sb.pop(stack, th)
	}
	// Return block: resume at the innermost pending continuation.
	return sb.pop(stack, th)
}

// pop unwinds pending continuations until one is placeable.
func (sb *seqBuilder) pop(stack *[]program.BlockID, th Thresh) program.BlockID {
	for len(*stack) > 0 {
		cont := (*stack)[len(*stack)-1]
		*stack = (*stack)[:len(*stack)-1]
		if sb.acceptable(cont, th) {
			return cont
		}
	}
	return program.NoBlock
}

// findStart re-walks from the seed through already-visited blocks along
// sufficiently probable profile edges, looking for an unvisited acceptable
// block ("we start again from the seed looking for the next acceptable
// basic block"). The walk is breadth first and returns the heaviest
// acceptable block it meets, the earliest met on ties.
func (sb *seqBuilder) findStart(seedEntry program.BlockID, th Thresh) program.BlockID {
	if sb.acceptable(seedEntry, th) {
		return seedEntry
	}
	if !sb.visited[seedEntry] {
		// Seed entry not hot enough yet; nothing reachable this iteration.
		return program.NoBlock
	}
	sb.epoch++ // empties the seen set
	sb.seen[seedEntry] = sb.epoch
	queue := append(sb.queue[:0], seedEntry)
	best := program.NoBlock
	var bestW uint64
	tryEdge := func(to program.BlockID, hot bool) {
		if sb.seen[to] == sb.epoch {
			return
		}
		if sb.visited[to] {
			sb.seen[to] = sb.epoch
			queue = append(queue, to)
			return
		}
		if hot && sb.acceptable(to, th) {
			if w := sb.p.Block(to).Weight; best == program.NoBlock || w > bestW {
				best, bestW = to, w
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		b := sb.p.Block(queue[i])
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
	sb.queue = queue
	return best
}
