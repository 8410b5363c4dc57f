// Package trace defines the instruction-fetch trace representation and the
// stochastic control-flow walker that stands in for the Alliant FX/8
// hardware performance monitor of the paper: instead of capturing fetches
// from real CPUs, we generate them by walking the synthetic kernel and
// application CFGs with a seeded random source.
//
// A trace is a flat sequence of compact events. Basic-block events carry the
// domain (OS or application) and the block ID; marker events delimit
// operating-system invocations and carry the invocation class, which the
// profiler uses to reproduce the paper's Table 1 invocation breakdown.
package trace

import (
	"fmt"
	"math/rand"

	"oslayout/internal/program"
)

// Domain tells whether a fetch belongs to the operating system or to the
// application.
type Domain uint8

const (
	DomainOS Domain = iota
	DomainApp
	NumDomains = 2
)

// String returns "OS" or "App".
func (d Domain) String() string {
	if d == DomainOS {
		return "OS"
	}
	return "App"
}

// AppBase is the base virtual address of application images: a distinct
// region from the kernel, which sits at low addresses (as in the paper,
// where "virtual addresses for operating system code are equal to their
// physical addresses"). The cache simulator exploits the split to keep its
// eviction-provenance history in dense per-region tables.
const AppBase = 1 << 24

// Event is one entry of a trace, packed into 32 bits:
//
//	bits 31..30  tag: 0 = OS block, 1 = app block, 2 = invocation begin,
//	             3 = invocation end
//	bits 29..0   block ID (tags 0,1) or seed class (tag 2)
type Event uint32

const (
	tagOSBlock  = 0
	tagAppBlock = 1
	tagBegin    = 2
	tagEnd      = 3

	tagShift   = 30
	payloadMax = 1<<tagShift - 1
)

// BlockEvent packs a basic-block fetch event.
func BlockEvent(d Domain, b program.BlockID) Event {
	tag := uint32(tagOSBlock)
	if d == DomainApp {
		tag = tagAppBlock
	}
	return Event(tag<<tagShift | uint32(b)&payloadMax)
}

// BeginEvent packs an OS-invocation start marker.
func BeginEvent(class program.SeedClass) Event {
	return Event(tagBegin<<tagShift | uint32(class))
}

// EndEvent packs an OS-invocation end marker.
func EndEvent() Event { return Event(tagEnd << tagShift) }

// IsBlock reports whether the event is a basic-block fetch.
func (e Event) IsBlock() bool { return e>>tagShift <= tagAppBlock }

// IsBegin reports whether the event marks the start of an OS invocation.
func (e Event) IsBegin() bool { return e>>tagShift == tagBegin }

// IsEnd reports whether the event marks the end of an OS invocation.
func (e Event) IsEnd() bool { return e>>tagShift == tagEnd }

// Domain returns the domain of a block event.
func (e Event) Domain() Domain {
	if e>>tagShift == tagAppBlock {
		return DomainApp
	}
	return DomainOS
}

// Block returns the block ID of a block event.
func (e Event) Block() program.BlockID { return program.BlockID(e & payloadMax) }

// Class returns the seed class of a begin event.
func (e Event) Class() program.SeedClass { return program.SeedClass(e & payloadMax) }

// WordSize is the instruction word size in bytes; one reference in the
// paper's sense is the fetch of one instruction word.
const WordSize = 4

// RefsOf returns the number of instruction-word references the execution of
// a block of the given byte size produces.
func RefsOf(size int32) uint64 {
	n := uint64(size) / WordSize
	if n == 0 {
		n = 1
	}
	return n
}

// Trace is a complete captured fetch stream plus the programs it refers to.
// A trace comes in two forms: materialised (Events holds the full stream)
// and header-only (Events is nil; Source regenerates the identical stream
// chunk-by-chunk and Total carries its aggregate counts — see stream.go).
// Header-only traces bound replay memory by the chunk size rather than the
// stream length.
type Trace struct {
	Name   string
	OS     *program.Program
	App    *program.Program // nil when the workload has no traced application
	Events []Event
	// Source, when non-nil, reopens the trace's event stream; each call
	// must yield the identical sequence (deterministic regeneration).
	Source func() Reader
	// Total summarises the stream for header-only traces; nil means derive
	// from Events.
	Total *Totals
}

// NumEvents returns the number of events (blocks plus markers).
func (t *Trace) NumEvents() int {
	if t.Total != nil {
		return t.Total.Events
	}
	return len(t.Events)
}

// Refs returns the total instruction-word references per domain.
func (t *Trace) Refs() (os, app uint64) {
	if t.Total != nil {
		return t.Total.Refs[DomainOS], t.Total.Refs[DomainApp]
	}
	for _, e := range t.Events {
		if !e.IsBlock() {
			continue
		}
		if e.Domain() == DomainOS {
			os += RefsOf(t.OS.Block(e.Block()).Size)
		} else {
			app += RefsOf(t.App.Block(e.Block()).Size)
		}
	}
	return os, app
}

// Selector chooses the out-arc of dispatch blocks, letting the workload —
// not static probabilities — decide which handler services an invocation.
type Selector interface {
	// Select returns the index into the block's Out slice to follow.
	Select(d program.DispatchID, numArcs int) int
}

// SelectorFunc adapts a function to the Selector interface.
type SelectorFunc func(d program.DispatchID, numArcs int) int

// Select implements Selector.
func (f SelectorFunc) Select(d program.DispatchID, numArcs int) int { return f(d, numArcs) }

// Walker executes a program stochastically, emitting basic-block events.
// It maintains a call stack so procedure returns resume at the correct
// continuation block.
type Walker struct {
	Prog   *program.Program
	Domain Domain
	Rng    *rand.Rand
	// Sel resolves dispatch blocks; it may be nil if the program has none,
	// in which case dispatch blocks fall back to arc probabilities.
	Sel Selector

	cur   program.BlockID
	stack []program.BlockID // continuation blocks
	// MaxSteps bounds the number of blocks emitted by a single invocation
	// walk as a runaway guard. Zero means the default of 1<<20.
	MaxSteps int
	// Refs counts the instruction-word references of every block the
	// walker has emitted, so a caller need not look the blocks up again.
	Refs uint64
}

// NewWalker returns a walker over prog in the given domain.
func NewWalker(p *program.Program, d Domain, rng *rand.Rand, sel Selector) *Walker {
	return &Walker{Prog: p, Domain: d, Rng: rng, Sel: sel, cur: program.NoBlock}
}

// Running reports whether the walker is mid-execution (has a current block).
func (w *Walker) Running() bool { return w.cur != program.NoBlock }

// Start positions the walker at the entry of routine r with an empty stack.
func (w *Walker) Start(r program.RoutineID) {
	w.cur = w.Prog.Routine(r).Entry
	w.stack = w.stack[:0]
}

// step counts the references of the current block, just emitted, and
// advances past it, returning false when the walk is complete (outermost
// routine returned).
func (w *Walker) step() bool {
	b := w.Prog.Block(w.cur)
	w.Refs += RefsOf(b.Size)
	switch {
	case b.HasCall:
		if b.Call.Cont != program.NoBlock {
			w.stack = append(w.stack, b.Call.Cont)
		}
		w.cur = w.Prog.Routine(b.Call.Callee).Entry
		return true
	case len(b.Out) > 0:
		w.cur = b.Out[w.chooseArc(b)].To
		return true
	default: // return block
		if len(w.stack) == 0 {
			w.cur = program.NoBlock
			return false
		}
		w.cur = w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		return true
	}
}

// chooseArc picks an out-arc index of b, honoring dispatch selection.
func (w *Walker) chooseArc(b *program.BasicBlock) int {
	if b.Dispatch != program.NoDispatch && w.Sel != nil {
		i := w.Sel.Select(b.Dispatch, len(b.Out))
		if i < 0 || i >= len(b.Out) {
			panic(fmt.Sprintf("trace: selector returned arc %d of %d for dispatch %d", i, len(b.Out), b.Dispatch))
		}
		return i
	}
	if len(b.Out) == 1 {
		return 0
	}
	x := w.Rng.Float64()
	var cum float64
	for i := range b.Out {
		cum += b.Out[i].Prob
		if x < cum {
			return i
		}
	}
	return len(b.Out) - 1
}

// WalkInvocation runs routine r to completion, appending one block event per
// executed block to events, and returns the extended slice.
func (w *Walker) WalkInvocation(r program.RoutineID, events []Event) []Event {
	w.Start(r)
	limit := w.MaxSteps
	if limit == 0 {
		limit = 1 << 20
	}
	for n := 0; ; n++ {
		if n >= limit {
			panic(fmt.Sprintf("trace: invocation of %q exceeded %d steps; runaway loop in generated program",
				w.Prog.Routine(r).Name, limit))
		}
		events = append(events, BlockEvent(w.Domain, w.cur))
		if !w.step() {
			return events
		}
	}
}

// StepN emits up to n block events, resuming a suspended execution or
// restarting from routine restart when the previous execution finished.
// It returns the extended slice. This is how application programs run
// "continuously" between OS invocations.
func (w *Walker) StepN(n int, restart program.RoutineID, events []Event) []Event {
	for i := 0; i < n; i++ {
		if !w.Running() {
			w.Start(restart)
		}
		events = append(events, BlockEvent(w.Domain, w.cur))
		w.step()
	}
	return events
}
