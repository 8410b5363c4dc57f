// Package profile turns traces into basic-block flow-graph profiles — the
// role played in the paper by the escape-instrumented kernel plus the trace
// post-processing tools (Section 2.2): execution counts for blocks, arcs,
// calls and routine invocations, and the breakdown of operating-system
// invocations into the four entry classes of Table 1.
//
// Profiles are value objects separate from the Program so that several
// workload profiles can be captured, averaged (the paper derives its layouts
// from the average of all workload profiles) and applied to the program's
// weight fields on demand.
package profile

import (
	"fmt"

	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// Profile holds execution counts for one program as measured from traces.
type Profile struct {
	// Block[i] is the execution count of block i.
	Block []uint64
	// Arc[i][j] is the traversal count of the j-th out-arc of block i.
	Arc [][]uint64
	// Call[i] is the call count of block i's call site.
	Call []uint64
	// RoutineInv[r] is the number of invocations of routine r.
	RoutineInv []uint64
	// ClassInv counts OS invocations per seed class (kernel profiles only).
	ClassInv [program.NumSeedClasses]uint64
}

// New returns an empty profile shaped for program p.
func New(p *program.Program) *Profile {
	pr := &Profile{
		Block:      make([]uint64, p.NumBlocks()),
		Arc:        make([][]uint64, p.NumBlocks()),
		Call:       make([]uint64, p.NumBlocks()),
		RoutineInv: make([]uint64, p.NumRoutines()),
	}
	for i := range p.Blocks {
		if n := len(p.Blocks[i].Out); n > 0 {
			pr.Arc[i] = make([]uint64, n)
		}
	}
	return pr
}

// Collector accumulates a profile from a stream of block events, inferring
// arc traversals, call transitions and routine invocations from consecutive
// block pairs — the same reconstruction the paper's tools perform on the
// monitor's address traces.
type Collector struct {
	p    *program.Program
	prof *Profile
	prev program.BlockID
}

// NewCollector returns a collector for program p accumulating into prof.
func NewCollector(p *program.Program, prof *Profile) *Collector {
	return &Collector{p: p, prof: prof, prev: program.NoBlock}
}

// Break tells the collector that the next block does not follow the previous
// one (e.g. the trace switched domains), so no arc should be inferred.
func (c *Collector) Break() { c.prev = program.NoBlock }

// Block records the execution of block b.
func (c *Collector) Block(b program.BlockID) {
	c.prof.Block[b]++
	if c.prev != program.NoBlock {
		c.edge(c.prev, b)
	} else {
		// A walk begins at a routine entry: count the invocation.
		blk := c.p.Block(b)
		if c.p.Routine(blk.Routine).Entry == b {
			c.prof.RoutineInv[blk.Routine]++
		}
	}
	c.prev = b
}

// edge classifies the transition from block a to block b and bumps the
// corresponding counter.
func (c *Collector) edge(a, b program.BlockID) {
	ba := c.p.Block(a)
	// Intra-routine arc?
	for j := range ba.Out {
		if ba.Out[j].To == b {
			c.prof.Arc[a][j]++
			return
		}
	}
	// Call transition?
	if ba.HasCall {
		callee := c.p.Routine(ba.Call.Callee)
		if callee.Entry == b {
			c.prof.Call[a]++
			c.prof.RoutineInv[ba.Call.Callee]++
			return
		}
	}
	// Otherwise this is a return: b is the continuation block of some call
	// frame further up the stack. Nothing to count (returns are implied by
	// call counts), and nothing to validate cheaply.
}

// Class records the start of an OS invocation of the given class.
func (c *Collector) Class(class program.SeedClass) {
	c.prof.ClassInv[class]++
}

// TraceProfiler accumulates per-domain profiles from an event stream fed in
// chunks — the constant-memory form of FromTrace, used by the streaming
// study build where the trace is never materialised.
type TraceProfiler struct {
	osProf, appProf *Profile
	osc, appc       *Collector
}

// NewTraceProfiler returns a profiler for an OS program and an optional
// application program (appP may be nil).
func NewTraceProfiler(osP, appP *program.Program) *TraceProfiler {
	tp := &TraceProfiler{osProf: New(osP)}
	tp.osc = NewCollector(osP, tp.osProf)
	if appP != nil {
		tp.appProf = New(appP)
		tp.appc = NewCollector(appP, tp.appProf)
	}
	return tp
}

// Feed accumulates one window of trace events. Windows must arrive in trace
// order; collector state (the previous block for arc inference) carries
// across calls, so chunk boundaries never change the resulting profile.
func (tp *TraceProfiler) Feed(events []trace.Event) {
	for _, e := range events {
		switch {
		case e.IsBegin():
			tp.osc.Class(e.Class())
			tp.osc.Break()
		case e.IsEnd():
			tp.osc.Break()
		case e.Domain() == trace.DomainOS:
			tp.osc.Block(e.Block())
		default:
			if tp.appc != nil {
				tp.appc.Block(e.Block())
			}
		}
	}
}

// Profiles returns the accumulated profiles; the application profile is nil
// when the profiler was built without an application program.
func (tp *TraceProfiler) Profiles() (osProf, appProf *Profile) {
	return tp.osProf, tp.appProf
}

// FromTrace profiles a trace, returning one profile per domain present.
// The application profile is nil when the trace has no application.
// Header-only traces are profiled chunk-by-chunk from their Source.
func FromTrace(t *trace.Trace) (osProf, appProf *Profile) {
	tp := NewTraceProfiler(t.OS, t.App)
	r := t.Chunks()
	for {
		batch, err := r.Read()
		if err != nil || len(batch) == 0 {
			break
		}
		tp.Feed(batch)
	}
	return tp.Profiles()
}

// Total returns the sum of all block execution counts.
func (pr *Profile) Total() uint64 {
	var n uint64
	for _, w := range pr.Block {
		n += w
	}
	return n
}

// TotalInvocations returns the sum of OS invocation counts over all classes.
func (pr *Profile) TotalInvocations() uint64 {
	var n uint64
	for _, v := range pr.ClassInv {
		n += v
	}
	return n
}

// Apply writes the profile's counts into the program's weight fields,
// replacing whatever was there.
func (pr *Profile) Apply(p *program.Program) error {
	if len(pr.Block) != p.NumBlocks() || len(pr.RoutineInv) != p.NumRoutines() {
		return fmt.Errorf("profile: shape mismatch: %d/%d blocks, %d/%d routines",
			len(pr.Block), p.NumBlocks(), len(pr.RoutineInv), p.NumRoutines())
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		b.Weight = pr.Block[i]
		for j := range b.Out {
			b.Out[j].Weight = pr.Arc[i][j]
		}
		b.Call.Count = pr.Call[i]
	}
	for r := range p.Routines {
		p.Routines[r].Invocations = pr.RoutineInv[r]
	}
	return nil
}

// Average combines several profiles of the same program into one, first
// normalising each to the same total block-execution mass so that a longer
// trace does not dominate — this mirrors the paper's "average of the
// profiles of all the workloads".
func Average(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profile: Average needs at least one profile")
	}
	n := len(profiles[0].Block)
	for _, pr := range profiles[1:] {
		if len(pr.Block) != n {
			return nil, fmt.Errorf("profile: Average over mismatched shapes %d and %d", n, len(pr.Block))
		}
	}
	// Normalise every profile to the scale of the largest total.
	const scaleTarget = 1 << 20
	out := &Profile{
		Block:      make([]uint64, n),
		Arc:        make([][]uint64, n),
		Call:       make([]uint64, n),
		RoutineInv: make([]uint64, len(profiles[0].RoutineInv)),
	}
	for i := range out.Arc {
		if len(profiles[0].Arc[i]) > 0 {
			out.Arc[i] = make([]uint64, len(profiles[0].Arc[i]))
		}
	}
	for _, pr := range profiles {
		tot := pr.Total()
		if tot == 0 {
			continue
		}
		scale := float64(scaleTarget) / float64(tot)
		for i, w := range pr.Block {
			out.Block[i] += scaled(w, scale)
		}
		for i := range pr.Arc {
			for j, w := range pr.Arc[i] {
				out.Arc[i][j] += scaled(w, scale)
			}
		}
		for i, w := range pr.Call {
			out.Call[i] += scaled(w, scale)
		}
		for i, w := range pr.RoutineInv {
			out.RoutineInv[i] += scaled(w, scale)
		}
		for i, w := range pr.ClassInv {
			out.ClassInv[i] += scaled(w, scale)
		}
	}
	return out, nil
}

// scaled multiplies a count by a scale factor, rounding half up, but never
// rounds a nonzero count down to zero: an executed block must stay executed
// after averaging, since layout algorithms prune only never-executed code.
func scaled(w uint64, scale float64) uint64 {
	if w == 0 {
		return 0
	}
	v := uint64(float64(w)*scale + 0.5)
	if v == 0 {
		v = 1
	}
	return v
}
