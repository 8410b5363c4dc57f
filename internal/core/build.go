package core

import (
	"fmt"

	"oslayout/internal/cfa"
	"oslayout/internal/layout"
	"oslayout/internal/program"
)

// Params configures the paper's placement algorithm.
type Params struct {
	// Name labels the resulting layout ("OptS", "OptL", ...).
	Name string
	// CacheSize is the logical-cache size in bytes (the target cache).
	CacheSize int
	// Schedule is the threshold schedule; nil selects DefaultSchedule.
	Schedule Schedule
	// SelfConfFreeCutoff selects SelfConfFree blocks: every block whose
	// loop-adjusted execution count is individually at least this fraction
	// of the total. The paper uses 0.02 (≈1 KB of blocks); 0 disables the
	// SelfConfFree area.
	SelfConfFreeCutoff float64
	// LoopExtract enables the OptL loop-area optimisation (Section 4.3).
	LoopExtract bool
	// LoopMinTrips is the minimum measured iterations per invocation for a
	// loop to qualify for extraction; the paper uses 6.
	LoopMinTrips float64
	// MaxSeqBytes caps individual sequence length (0 = uncapped). The paper
	// keeps its most important sequences at 1-4 KB via schedule tuning;
	// this cap enforces the same bound directly.
	MaxSeqBytes int64
	// NoSCFWindows places the SelfConfFree blocks contiguously at the image
	// base but does not reserve matching windows in the other logical
	// caches. Used by the "Resv" setup (Section 5.5), where the hot blocks
	// live in a dedicated hardware cache and only need to be contiguous in
	// memory.
	NoSCFWindows bool
	// CallOpt enables the Section 4.4 advanced optimisation (loops with
	// callees in private logical caches).
	CallOpt bool
	// CallOptMaxRoutines bounds the conflict matrix; the paper keeps 50.
	CallOptMaxRoutines int
}

// DefaultSelfConfFreeCutoff is the execution-share cutoff selecting the
// SelfConfFree blocks. The paper uses a 2.0% cutoff, which for its profile
// yields the ~1 KB area it recommends for 4-16 KB caches; for the synthetic
// kernel's flatter block-weight distribution the same ~1 KB area corresponds
// to a 0.3% cutoff.
const DefaultSelfConfFreeCutoff = 0.003

// DefaultParams returns the paper's OptS parameters for the given cache.
func DefaultParams(cacheSize int) Params {
	return Params{
		Name:               "OptS",
		CacheSize:          cacheSize,
		SelfConfFreeCutoff: DefaultSelfConfFreeCutoff,
		LoopMinTrips:       6,
		CallOptMaxRoutines: 50,
	}
}

// BlockClass is the Figure 13 classification of basic blocks.
type BlockClass uint8

const (
	// ClassCold marks never-executed blocks.
	ClassCold BlockClass = iota
	// ClassMainSeq marks blocks of sequences with ExecThresh ≥ 0.01%.
	ClassMainSeq
	// ClassSelfConfFree marks blocks in the SelfConfFree area.
	ClassSelfConfFree
	// ClassLoops marks blocks of loops with enough iterations to qualify
	// for extraction.
	ClassLoops
	// ClassOtherSeq marks the remaining executed blocks.
	ClassOtherSeq
)

// String names the class as the paper does.
func (c BlockClass) String() string {
	switch c {
	case ClassCold:
		return "Cold"
	case ClassMainSeq:
		return "MainSeq"
	case ClassSelfConfFree:
		return "SelfConfFree"
	case ClassLoops:
		return "Loops"
	case ClassOtherSeq:
		return "OtherSeq"
	default:
		return fmt.Sprintf("BlockClass(%d)", uint8(c))
	}
}

// mainSeqExecThresh is the ExecThresh bound defining the MainSeq class.
const mainSeqExecThresh = 0.0001

// Plan is the full output of the placement algorithm: the layout plus the
// intermediate structures the evaluation section reports on.
type Plan struct {
	Params Params
	Layout *layout.Layout
	// Sequences are the skeleton's: every plan placed from one Skeleton
	// shares this slice and its Blocks arrays, so they must not be
	// modified.
	Sequences []Sequence
	// SelfConfFree lists the hot blocks placed in the SelfConfFree area.
	SelfConfFree []program.BlockID
	// SCFBytes is the byte size of the SelfConfFree area (the reserved
	// window at the bottom of every logical cache).
	SCFBytes int64
	// LoopArea lists the blocks extracted into the loop area (OptL only).
	LoopArea []program.BlockID
	// Classes classifies every block for the Figure 13 breakdown.
	Classes []BlockClass
	// Loops are the program's natural loops: the caller's analysis, shared
	// with every plan built from it, so it is read-only.
	Loops []cfa.Loop
}

// Skeleton is the half of the placement algorithm that does not depend on
// the cache size or the placement variant: the sequences and the
// loop-adjusted block weights of one profiled program under one threshold
// schedule and sequence cap (the paper, Section 4, builds its sequences from
// the profile alone and only then maps them onto logical caches). Place
// maps it onto one cache size and variant; every plan placed from a
// skeleton shares its read-only sequences.
type Skeleton struct {
	sequences   []Sequence
	adjusted    []uint64
	loops       []cfa.Loop
	schedule    Schedule
	maxSeqBytes int64
}

// NewSkeleton builds the skeleton of the profiled program p under the
// schedule (nil selects DefaultSchedule) and the per-sequence byte cap
// (0 = uncapped). Loops are the program's natural loops (cfa.AllLoops):
// they depend on the control-flow graph alone, never on the profile, so a
// caller building many plans of one program analyses it once and passes
// the same slice to every build, which reads it and never modifies it.
// Entries gives the seed entry blocks (SeedEntries for kernels, MainEntries
// for applications).
func NewSkeleton(p *program.Program, loops []cfa.Loop, entries [program.NumSeedClasses]program.BlockID, schedule Schedule, maxSeqBytes int64) (*Skeleton, error) {
	if p.TotalWeight() == 0 {
		return nil, fmt.Errorf("core: program %q has no profile weights", p.Name)
	}
	if schedule == nil {
		schedule = DefaultSchedule()
	}
	seqs, _ := BuildSequencesCapped(p, entries, schedule, maxSeqBytes)
	return &Skeleton{
		sequences:   seqs,
		adjusted:    AdjustedWeights(p, loops),
		loops:       loops,
		schedule:    schedule,
		maxSeqBytes: maxSeqBytes,
	}, nil
}

// Optimize runs the paper's algorithm over a profiled program and returns
// the plan: NewSkeleton (see there for loops and entries) followed by Place.
func Optimize(p *program.Program, loops []cfa.Loop, entries [program.NumSeedClasses]program.BlockID, base uint64, params Params) (*Plan, error) {
	sk, err := NewSkeleton(p, loops, entries, params.Schedule, params.MaxSeqBytes)
	if err != nil {
		return nil, err
	}
	return sk.Place(p, base, params)
}

// Place maps the skeleton onto one cache size and variant: it selects the
// SelfConfFree area and the qualifying loops, classifies the blocks and
// assembles the layout at base. p must carry the weights the skeleton was
// built from. The schedule and sequence cap are the skeleton's; params'
// own are ignored. Place never modifies the skeleton, so plans of one
// skeleton may be placed one after another from it.
func (sk *Skeleton) Place(p *program.Program, base uint64, params Params) (*Plan, error) {
	if params.CacheSize <= 0 {
		return nil, fmt.Errorf("core: non-positive cache size %d", params.CacheSize)
	}
	params.Schedule, params.MaxSeqBytes = sk.schedule, sk.maxSeqBytes
	if params.LoopMinTrips == 0 {
		params.LoopMinTrips = 6
	}
	if params.CallOptMaxRoutines == 0 {
		params.CallOptMaxRoutines = 50
	}
	if params.Name == "" {
		params.Name = "OptS"
	}

	plan := &Plan{Params: params, Loops: sk.loops, Sequences: sk.sequences}
	var scfBytes int64
	plan.SelfConfFree, scfBytes = SelectSelfConfFree(p, sk.adjusted, params.SelfConfFreeCutoff)
	// The SelfConfFree area must leave at least some room for sequences in
	// every logical cache; an area that swallowed the whole cache would
	// degenerate the layout. Oversized areas short of that are allowed —
	// the Figure 16 sweep relies on them to show that "once the
	// SelfConfFree area is larger than a certain value, the second effect
	// dominates". Qualifiers are sorted hottest-first, so the cap drops the
	// coldest.
	maxSCF := int64(params.CacheSize - 512)
	for scfBytes > maxSCF && len(plan.SelfConfFree) > 0 {
		last := plan.SelfConfFree[len(plan.SelfConfFree)-1]
		scfBytes -= int64(p.Block(last).Size)
		plan.SelfConfFree = plan.SelfConfFree[:len(plan.SelfConfFree)-1]
	}
	plan.SCFBytes = scfBytes

	qual := QualifyingLoops(p, plan.Loops, params.LoopMinTrips)
	loopSet := LoopBlockSet(qual)

	// Classification (Figure 13): a block keeps the class it has under
	// OptL, regardless of the variant actually built.
	plan.Classes = classify(p, plan.Sequences, plan.SelfConfFree, loopSet)

	// Blocks claimed by a special area are pulled out of the sequences.
	pulled := make([]bool, p.NumBlocks())
	for _, b := range plan.SelfConfFree {
		pulled[b] = true
	}
	if params.LoopExtract {
		for _, s := range plan.Sequences {
			for _, b := range s.Blocks {
				if loopSet[b] && !pulled[b] {
					pulled[b] = true
					plan.LoopArea = append(plan.LoopArea, b)
				}
			}
		}
	}

	var callPlan *callPlacement
	if params.CallOpt {
		C := uint64(params.CacheSize)
		S := uint64((scfBytes + layout.Align - 1) &^ (layout.Align - 1))
		callPlan = planCallOpt(p, qual, params.CallOptMaxRoutines, pulled, C, S)
	}

	plan.Layout = assemble(p, plan, pulled, callPlan, base)
	return plan, nil
}

// classify computes the Figure 13 block classes.
func classify(p *program.Program, seqs []Sequence, scf []program.BlockID, loopSet map[program.BlockID]bool) []BlockClass {
	classes := make([]BlockClass, p.NumBlocks())
	for b := range p.Blocks {
		if p.Blocks[b].Weight > 0 {
			classes[b] = ClassOtherSeq
		}
	}
	for _, s := range seqs {
		if s.Thresh.Exec >= mainSeqExecThresh {
			for _, b := range s.Blocks {
				classes[b] = ClassMainSeq
			}
		}
	}
	for b := range loopSet {
		if p.Block(b).Weight > 0 {
			classes[b] = ClassLoops
		}
	}
	for _, b := range scf {
		classes[b] = ClassSelfConfFree
	}
	return classes
}

// assemble lays the plan out in memory following Figure 10: the SelfConfFree
// area at the bottom of the first logical cache, sequences (then the loop
// area) filling the rest of each logical cache, seldom-executed code in the
// SelfConfFree windows of the other logical caches, call-optimised loops in
// private logical caches, and the cold mass at the end.
func assemble(p *program.Program, plan *Plan, pulled []bool, callPlan *callPlacement, base uint64) *layout.Layout {
	C := uint64(plan.Params.CacheSize)
	S := uint64((plan.SCFBytes + layout.Align - 1) &^ (layout.Align - 1))
	if plan.Params.NoSCFWindows {
		// The SelfConfFree blocks stay contiguous at the base, but no
		// window is reserved in any logical cache.
		S = 0
	}

	l := layout.New(plan.Params.Name, p, base)
	pb := layout.NewBuilder(l)
	placed := make([]bool, p.NumBlocks())

	// SelfConfFree area at the bottom of logical cache 0.
	for _, b := range plan.SelfConfFree {
		pb.Append(b)
		placed[b] = true
	}
	if S > 0 {
		// Alignment padding can push the packed area slightly past the raw
		// byte sum; the reserved window must cover every placed block, and
		// the cursor must never move backwards onto them.
		if end := pb.Cursor() - base; end > S {
			S = (end + layout.Align - 1) &^ (layout.Align - 1)
		}
		pb.Seek(base + S)
	}

	// appendSkipping places a block while keeping the SelfConfFree windows
	// [kC, kC+S) of later logical caches free for cold code.
	appendSkipping := func(b program.BlockID) {
		if placed[b] {
			return
		}
		size := uint64(p.Block(b).Size)
		if S > 0 {
			off := (pb.Cursor() - base) % C
			if off < S {
				pb.Seek(pb.Cursor() + (S - off))
			} else if off+size > C {
				pb.Seek(pb.Cursor() + (C - off) + S)
			}
		}
		pb.Append(b)
		placed[b] = true
	}

	callPlaced := map[program.BlockID]bool{}
	if callPlan != nil {
		callPlaced = callPlan.blocks
	}
	for _, s := range plan.Sequences {
		for _, b := range s.Blocks {
			if pulled[b] || callPlaced[b] {
				continue
			}
			appendSkipping(b)
		}
	}
	for _, b := range plan.LoopArea {
		if !callPlaced[b] {
			appendSkipping(b)
		}
	}

	// Call-optimised loops: each in its own logical cache past the hot area.
	if callPlan != nil {
		callPlan.emit(p, pb, base, C, S, placed)
	}

	hotEnd := pb.Cursor()

	// Cold code: first fill the reserved SelfConfFree windows of logical
	// caches 1..K with seldom-executed blocks, then append the rest after
	// the hot region.
	var cold []program.BlockID
	for r := range p.Routines {
		for _, b := range p.Routines[r].Blocks {
			if !placed[b] && p.Block(b).Weight == 0 {
				cold = append(cold, b)
			}
		}
	}
	ci := 0
	if S > 0 {
		lastLC := (hotEnd - base) / C
		for k := uint64(1); k <= lastLC && ci < len(cold); k++ {
			pb.Seek(base + k*C)
			limit := base + k*C + S
			for ci < len(cold) && pb.Fits(p.Block(cold[ci]).Size, limit) {
				pb.Append(cold[ci])
				placed[cold[ci]] = true
				ci++
			}
		}
	}
	pb.Seek(hotEnd)
	for ; ci < len(cold); ci++ {
		pb.Append(cold[ci])
		placed[cold[ci]] = true
	}
	// Any stragglers (executed blocks that were pulled but whose area never
	// placed them — defensive) go at the very end.
	for b := range placed {
		if !placed[b] {
			pb.Append(program.BlockID(b))
		}
	}
	return l
}
