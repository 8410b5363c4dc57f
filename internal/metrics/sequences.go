package metrics

import (
	"oslayout/internal/core"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// SeqSet is a set of sequence blocks with their intra-sequence order, used
// by the Table 2 characterisation. The paper's "core" sequences are those
// that fit without self-conflict in an 8 KB cache, the "regular" sequences
// those that fit in 16 KB.
type SeqSet struct {
	// Member maps each member block to its position key.
	member map[program.BlockID]seqPos
	// NumBlocks is the number of member blocks; Bytes their total size;
	// NumRoutines the distinct routines they span.
	NumBlocks   int
	Bytes       int64
	NumRoutines int
}

type seqPos struct {
	seq, idx int
}

// Contains reports whether block b belongs to the set.
func (s *SeqSet) Contains(b program.BlockID) bool {
	_, ok := s.member[b]
	return ok
}

// NewSeqSet collects sequences (in construction order, hottest first) until
// their cumulative size exceeds capacity bytes.
func NewSeqSet(p *program.Program, seqs []core.Sequence, capacity int64) *SeqSet {
	set := &SeqSet{member: make(map[program.BlockID]seqPos)}
	routines := make(map[program.RoutineID]bool)
	for si := range seqs {
		if set.Bytes+seqs[si].Bytes > capacity {
			break
		}
		for bi, b := range seqs[si].Blocks {
			set.member[b] = seqPos{seq: si, idx: bi}
			set.Bytes += int64(p.Block(b).Size)
			set.NumBlocks++
			routines[p.Block(b).Routine] = true
		}
	}
	set.NumRoutines = len(routines)
	return set
}

// SeqCharacterization is one workload's half-row of Table 2.
type SeqCharacterization struct {
	// ProbAnyInSeq is the probability that executing a member block is
	// followed by executing another member block.
	ProbAnyInSeq float64
	// ProbNextInSeq is the probability that it is followed by the next
	// block of the same sequence.
	ProbNextInSeq float64
	// StaticPct is the members' share of executed blocks (static count).
	StaticPct float64
	// RefsPct is the members' share of OS references.
	RefsPct float64
	// MissPct is the members' share of OS misses under the Base layout.
	MissPct float64
}

// Transitions computes the transition half of a workload's Table 2 row,
// ProbAnyInSeq and ProbNextInSeq, from its trace. It reads no profile
// weights; AddShares fills in the rest of the row.
func Transitions(t *trace.Trace, set *SeqSet) SeqCharacterization {
	var c SeqCharacterization

	// Transition probabilities over consecutive OS block events, walked in
	// windows (the previous-block state carries across boundaries).
	var fromMember, toMember, toNext float64
	prev := program.NoBlock
	r := t.Chunks()
	for {
		batch, err := r.Read()
		if err != nil || len(batch) == 0 {
			break
		}
		for _, e := range batch {
			if !e.IsBlock() || e.Domain() != trace.DomainOS {
				prev = program.NoBlock
				continue
			}
			b := e.Block()
			if prev != program.NoBlock {
				if pp, ok := set.member[prev]; ok {
					fromMember++
					if np, ok := set.member[b]; ok {
						toMember++
						if np.seq == pp.seq && np.idx == pp.idx+1 {
							toNext++
						}
					}
				}
			}
			prev = b
		}
	}
	if fromMember > 0 {
		c.ProbAnyInSeq = toMember / fromMember
		c.ProbNextInSeq = toNext / fromMember
	}
	return c
}

// AddShares fills in the static, reference and miss shares of a Table 2
// row: the first two from the workload profile applied to the kernel p, the
// miss share from the per-block OS misses of a Base-layout simulation (an
// obs.BlockMisses OS slice).
func (c *SeqCharacterization) AddShares(p *program.Program, set *SeqSet, osMisses []uint64) {
	var execBlocks, memberBlocks float64
	var refsAll, refsMember float64
	for i := range p.Blocks {
		blk := &p.Blocks[i]
		if blk.Weight == 0 {
			continue
		}
		execBlocks++
		refs := float64(blk.Weight) * float64(trace.RefsOf(blk.Size))
		refsAll += refs
		if set.Contains(program.BlockID(i)) {
			memberBlocks++
			refsMember += refs
		}
	}
	if execBlocks > 0 {
		c.StaticPct = 100 * memberBlocks / execBlocks
	}
	if refsAll > 0 {
		c.RefsPct = 100 * refsMember / refsAll
	}
	var missAll, missMember float64
	for b, m := range osMisses {
		missAll += float64(m)
		if set.Contains(program.BlockID(b)) {
			missMember += float64(m)
		}
	}
	if missAll > 0 {
		c.MissPct = 100 * missMember / missAll
	}
}
