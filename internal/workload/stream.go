package workload

// Streaming trace generation: the constant-memory counterpart of Generate.
// A Source packages a (kernel, workload, options) triple with its application
// image built exactly once — layouts and stream caches key on program
// pointers, so every reopened stream must reference the same programs — and
// reopens the identical event sequence on demand. Identity across reopens is
// by construction: each Open seeds a fresh random source and replays the
// same draw order, and Generate itself is a drain of the same generator, so
// the streamed and materialised event sequences cannot diverge.

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"oslayout/internal/appgen"
	"oslayout/internal/kernelgen"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// Source regenerates a workload's trace deterministically. Every Open yields
// the identical event sequence; the application image is built once and
// shared by all reopens (and by the header-only Trace), keeping program
// pointer identity stable.
type Source struct {
	k   *kernelgen.Kernel
	w   Workload
	opt Options
	app *appgen.App
}

// NewSource validates the workload against the kernel and returns a
// reopenable trace source.
func NewSource(k *kernelgen.Kernel, w Workload, opt Options) (*Source, error) {
	return newSource(k, w, opt, nil)
}

// newSource is NewSource with an optional pre-built application image, so
// the per-CPU sources of a MultiSource can share one image: layouts and
// stream caches key on program pointers, and the paper's CPUs run one
// kernel and one application binary.
func newSource(k *kernelgen.Kernel, w Workload, opt Options, app *appgen.App) (*Source, error) {
	opt.fill()
	// Validate dispatch wiring and the class mix up front, so Open cannot
	// fail. newSelector draws nothing from its rng at construction, so a
	// throwaway source is fine here.
	if _, err := newSelector(k, &w, rand.New(rand.NewSource(opt.Seed))); err != nil {
		return nil, err
	}
	var total float64
	for _, v := range w.ClassMix {
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("workload %s: empty class mix", w.Name)
	}
	s := &Source{k: k, w: w, opt: opt, app: app}
	if s.app == nil && w.HasApp() {
		s.app = w.BuildApp()
	}
	return s, nil
}

// App returns the workload's application image (nil for OS-only workloads).
func (s *Source) App() *appgen.App { return s.app }

// Open starts a fresh replay of the event stream. Batches honour the
// options' ChunkEvents as a low-water mark: a batch ends at the first
// segment boundary (application burst or OS invocation) at or past it, so
// segments are never split across batches.
func (s *Source) Open() trace.Reader {
	return &genReader{g: s.generator(), chunk: s.chunkEvents()}
}

func (s *Source) chunkEvents() int {
	if s.opt.ChunkEvents > 0 {
		return s.opt.ChunkEvents
	}
	return trace.DefaultChunkEvents
}

// Trace returns a header-only trace over the source. One generating walk
// computes its Totals and, when feed is non-nil, hands feed each batch in
// trace order (the batches Open's readers yield, valid only for the call),
// so a caller can profile the trace in the same walk. No event is retained:
// the result answers aggregate queries and replays in O(chunk) memory.
func (s *Source) Trace(feed func([]trace.Event)) (*trace.Trace, error) {
	r := &genReader{g: s.generator(), chunk: s.chunkEvents()}
	for {
		batch, err := r.Read()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			break
		}
		if feed != nil {
			feed(batch)
		}
	}
	return s.headerOnly(r.g.tot), nil
}

// headerOnly returns a header-only trace over the source whose generating
// walk counted tot.
func (s *Source) headerOnly(tot trace.Totals) *trace.Trace {
	t := s.header()
	t.Source, t.Total = s.Open, &tot
	return t
}

// header returns the trace's name and programs, with no events.
func (s *Source) header() *trace.Trace {
	t := &trace.Trace{Name: s.w.Name, OS: s.k.Prog}
	if s.app != nil {
		t.App = s.app.Prog
	}
	return t
}

// Generate materialises the source's full event sequence into a trace. It
// drains the same generator Open reopens, so the materialised and streamed
// sequences are identical by construction; the result shares the source's
// application image.
func (s *Source) Generate() (*trace.Trace, error) {
	t := s.header()
	g := s.generator()
	var err error
	for !g.done {
		if t.Events, err = g.step(t.Events); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// GenerateStreaming is the streaming counterpart of Generate: it returns a
// header-only trace whose events are regenerated chunk-by-chunk on every
// replay instead of being materialised.
func GenerateStreaming(k *kernelgen.Kernel, w Workload, opt Options) (*trace.Trace, *appgen.App, error) {
	s, err := NewSource(k, w, opt)
	if err != nil {
		return nil, nil, err
	}
	t, err := s.Trace(nil)
	if err != nil {
		return nil, nil, err
	}
	return t, s.app, nil
}

// generator holds the complete replay state of one pass over the stream:
// the shared random source (selector and walkers draw from it in a fixed
// order), the suspended walkers, and the totals of what it has emitted so
// far, whose reference counts decide when to interleave application bursts
// and when to stop.
type generator struct {
	src        *Source
	rng        *rand.Rand
	osWalker   *trace.Walker
	appWalkers []*trace.Walker
	classCum   [program.NumSeedClasses]float64
	tot        trace.Totals
	curApp     int
	burstCount int
	done       bool
}

// opens counts the generators started in this process, over all sources.
var opens atomic.Int64

// Opens returns how many trace generators this process has started: one per
// Open, Generate or Trace of a Source, and one per CPU of a merged stream.
// Tests read it to check how many walks a pass makes over each trace.
func Opens() int64 { return opens.Load() }

func (s *Source) generator() *generator {
	opens.Add(1)
	rng := rand.New(rand.NewSource(s.opt.Seed))
	// Cannot fail: NewSource validated the same construction.
	sel, err := newSelector(s.k, &s.w, rng)
	if err != nil {
		panic(fmt.Sprintf("workload: selector construction failed after validation: %v", err))
	}
	g := &generator{
		src:      s,
		rng:      rng,
		osWalker: trace.NewWalker(s.k.Prog, trace.DomainOS, rng, sel),
	}
	if s.app != nil {
		for range s.app.Mains {
			g.appWalkers = append(g.appWalkers, trace.NewWalker(s.app.Prog, trace.DomainApp, rng, nil))
		}
	}
	var total float64
	for _, v := range s.w.ClassMix {
		total += v
	}
	var cum float64
	for i, v := range s.w.ClassMix {
		cum += v / total
		g.classCum[i] = cum
	}
	return g
}

func (g *generator) sampleClass() program.SeedClass {
	x := g.rng.Float64()
	for i, c := range g.classCum {
		if x < c {
			return program.SeedClass(i)
		}
	}
	return program.SeedOther
}

// step appends one segment — an application burst or a complete OS
// invocation — to events, updating the totals. It sets done (appending
// nothing) once the OS reference target is reached.
func (g *generator) step(events []trace.Event) ([]trace.Event, error) {
	w, opt, app := &g.src.w, &g.src.opt, g.src.app
	refs := &g.tot.Refs
	if refs[trace.DomainOS] >= opt.OSRefs {
		g.done = true
		return events, nil
	}
	// Run the application whenever its reference share has fallen below
	// target; otherwise service an OS invocation.
	wantApp := false
	if app != nil {
		total := refs[trace.DomainOS] + refs[trace.DomainApp]
		wantApp = total == 0 ||
			float64(refs[trace.DomainApp])/float64(total) < 1-w.OSRefShare
	}
	start := len(events)
	if wantApp {
		n := 1 + g.rng.Intn(2*opt.AppBurstBlocks)
		aw := g.appWalkers[g.curApp]
		before := aw.Refs
		events = aw.StepN(n, app.Mains[g.curApp], events)
		refs[trace.DomainApp] += aw.Refs - before
		g.tot.Blocks += len(events) - start
		g.burstCount++
		if g.burstCount >= opt.BurstsPerSwitch {
			g.burstCount = 0
			g.curApp = (g.curApp + 1) % len(g.appWalkers)
		}
	} else {
		class := g.sampleClass()
		seed := g.src.k.Prog.Seeds[class]
		if seed == program.NoRoutine {
			return events, fmt.Errorf("workload %s: kernel has no seed for class %s", w.Name, class)
		}
		events = append(events, trace.BeginEvent(class))
		events = g.osWalker.WalkInvocation(seed, events)
		events = append(events, trace.EndEvent())
		refs[trace.DomainOS] = g.osWalker.Refs
		g.tot.Blocks += len(events) - start - 2
	}
	g.tot.Events += len(events) - start
	return events, nil
}

// genReader adapts a generator to trace.Reader, accumulating whole segments
// into a reused buffer until the chunk low-water mark is reached.
type genReader struct {
	g     *generator
	chunk int
	buf   []trace.Event
	err   error
}

func (r *genReader) Read() ([]trace.Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	r.buf = r.buf[:0]
	for !r.g.done && len(r.buf) < r.chunk {
		r.buf, r.err = r.g.step(r.buf)
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(r.buf) == 0 {
		return nil, nil
	}
	return r.buf, nil
}
