package workload

// Multi-CPU trace generation: the paper's substrate is a 4-CPU Alliant FX/8
// whose processors run the same workload against one shared kernel image.
// A MultiSource models that directly: N per-CPU Sources with distinct
// walker seeds but a shared kernel and a shared application image, merged
// by a deterministic interleaver into one event stream plus a run-length
// CPU schedule (trace.MultiTrace).
//
// The interleaving model is round-robin at burst granularity with seeded
// jitter: the scheduler visits CPUs in order, and each turn runs a jittered
// number of whole segments — an application burst or one complete
// Begin…End OS invocation, exactly what generator.step emits — so OS
// invocations are never split across CPUs (a CPU that enters the kernel
// finishes its invocation before the next CPU's fetches appear, the
// uniprocessor-per-invocation view the paper's traces take). Every draw
// comes from a dedicated jitter rng seeded independently of the walkers,
// so the merged sequence is a pure function of the seeds: reopens,
// materialised and streamed pipelines, and any worker count all see the
// identical stream.

import (
	"fmt"
	"math/rand"

	"oslayout/internal/appgen"
	"oslayout/internal/kernelgen"
	"oslayout/internal/trace"
)

// InterleaveOptions controls how per-CPU streams merge into one.
type InterleaveOptions struct {
	// CPUs is the number of per-CPU traces to generate and merge.
	// Default 4, the paper's Alliant FX/8.
	CPUs int
	// Granularity is the mean number of whole segments (application bursts
	// or complete OS invocations) one CPU runs before the scheduler rotates
	// to the next. Each turn's length is drawn as 1 + Intn(2*Granularity-1)
	// from the jitter rng, so the mean is Granularity and every turn runs
	// at least one segment. Default 4.
	Granularity int
	// Seed seeds the interleaving jitter, independently of the per-CPU
	// walker seeds. 0 derives a default from the base trace seed.
	Seed int64
}

// cpuSeedStride separates the per-CPU walker seeds derived from one base
// trace seed (primes keep unrelated seed families disjoint).
const cpuSeedStride = 7919

// jitterSeedOffset derives the default jitter seed from the base seed.
const jitterSeedOffset = 104729

func (o *InterleaveOptions) fill(base Options) {
	if o.CPUs == 0 {
		o.CPUs = 4
	}
	if o.Granularity == 0 {
		o.Granularity = 4
	}
	if o.Seed == 0 {
		o.Seed = base.Seed + jitterSeedOffset
	}
}

// MultiSource regenerates the merged multi-CPU trace of one workload
// deterministically: per-CPU sources (distinct walker seeds, shared kernel
// and application image) plus the interleaving model.
type MultiSource struct {
	srcs []*Source
	iopt InterleaveOptions
}

// NewMultiSource builds the per-CPU sources: CPU c's walker seed is
// opt.Seed + c*cpuSeedStride, and all CPUs share the kernel and one
// application image (the program pointers every layout and stream-cache
// key relies on).
func NewMultiSource(k *kernelgen.Kernel, w Workload, opt Options, iopt InterleaveOptions) (*MultiSource, error) {
	iopt.fill(opt)
	if iopt.CPUs < 1 || iopt.CPUs > 255 {
		return nil, fmt.Errorf("workload: %d CPUs out of range [1,255]", iopt.CPUs)
	}
	if iopt.Granularity < 1 {
		return nil, fmt.Errorf("workload: interleave granularity %d < 1", iopt.Granularity)
	}
	ms := &MultiSource{iopt: iopt}
	var app *appgen.App
	for cpu := 0; cpu < iopt.CPUs; cpu++ {
		o := opt
		o.Seed = opt.Seed + int64(cpu)*cpuSeedStride
		s, err := newSource(k, w, o, app)
		if err != nil {
			return nil, err
		}
		if cpu == 0 {
			app = s.app
		}
		ms.srcs = append(ms.srcs, s)
	}
	return ms, nil
}

// CPUs returns the number of per-CPU sources.
func (ms *MultiSource) CPUs() int { return len(ms.srcs) }

// App returns the shared application image (nil for OS-only workloads).
func (ms *MultiSource) App() *appgen.App { return ms.srcs[0].app }

// Source returns CPU cpu's individual trace source — the stream whose
// subsequence of the merged trace it is. Private-cache baselines replay
// these independently.
func (ms *MultiSource) Source(cpu int) *Source { return ms.srcs[cpu] }

// Options returns the interleaving options in effect (after defaulting).
func (ms *MultiSource) Options() InterleaveOptions { return ms.iopt }

// interleaver merges the per-CPU generators. onRun, when non-nil, observes
// each closed run: a maximal turn's worth of consecutive events from one
// CPU, with its block events counted (zero-event turns are skipped).
type interleaver struct {
	gens []*generator
	rng  *rand.Rand
	gran int
	// cur is the CPU whose turn is running; left the segments remaining in
	// the turn; run the turn's events and block events so far.
	cur   int
	left  int
	run   trace.CPURun
	onRun func(trace.CPURun)
	done  bool
}

func (ms *MultiSource) interleaver(onRun func(trace.CPURun)) *interleaver {
	il := &interleaver{
		rng:   rand.New(rand.NewSource(ms.iopt.Seed)),
		gran:  ms.iopt.Granularity,
		onRun: onRun,
	}
	for _, s := range ms.srcs {
		il.gens = append(il.gens, s.generator())
	}
	// Start "before" CPU 0: the first rotation lands on it.
	il.cur, il.left = len(il.gens)-1, 0
	return il
}

// turnLen draws one turn's segment count: mean gran, minimum 1. gran 1
// degenerates to strict round-robin (Intn(1) is always 0).
func (il *interleaver) turnLen() int { return 1 + il.rng.Intn(2*il.gran-1) }

// rotate closes the current run and advances round-robin to the next CPU
// with work left (wrapping; the current CPU is considered last, so a lone
// surviving CPU keeps running). When every generator is done, so is the
// interleaver.
func (il *interleaver) rotate() {
	if il.run.Events > 0 && il.onRun != nil {
		il.run.CPU = il.cur
		il.onRun(il.run)
	}
	il.run = trace.CPURun{}
	n := len(il.gens)
	for i := 1; i <= n; i++ {
		c := (il.cur + i) % n
		if !il.gens[c].done {
			il.cur, il.left = c, il.turnLen()
			return
		}
	}
	il.done = true
}

// step appends one segment of the merged stream to events. Each generator
// runs to completion, so every CPU's subsequence of the merged stream is
// exactly its single-CPU trace; the interleaving only decides the order the
// shared cache sees them in.
func (il *interleaver) step(events []trace.Event) ([]trace.Event, error) {
	for !il.done {
		if il.left <= 0 || il.gens[il.cur].done {
			il.rotate()
			continue
		}
		g := il.gens[il.cur]
		before := g.tot
		var err error
		if events, err = g.step(events); err != nil {
			return events, err
		}
		il.left--
		if n := g.tot.Events - before.Events; n > 0 {
			il.run.Events += n
			il.run.Blocks += g.tot.Blocks - before.Blocks
			return events, nil
		}
		// The generator reached its reference target without emitting: it
		// is done now, and the next iteration rotates past it.
	}
	return events, nil
}

// mergeReader adapts an interleaver to trace.Reader with the same whole-
// segment low-water batching genReader uses.
type mergeReader struct {
	il    *interleaver
	chunk int
	buf   []trace.Event
	err   error
}

func (r *mergeReader) Read() ([]trace.Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	r.buf = r.buf[:0]
	for !r.il.done && len(r.buf) < r.chunk {
		r.buf, r.err = r.il.step(r.buf)
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(r.buf) == 0 {
		return nil, nil
	}
	return r.buf, nil
}

// Open starts a fresh replay of the merged event stream (without run
// accounting — the schedule is regenerated identically by construction and
// travels on the MultiTrace).
func (ms *MultiSource) Open() trace.Reader {
	return &mergeReader{il: ms.interleaver(nil), chunk: ms.srcs[0].chunkEvents()}
}

// Generate materialises the merged trace: the full interleaved event stream
// plus its CPU run schedule.
func (ms *MultiSource) Generate() (*trace.MultiTrace, error) {
	mt := &trace.MultiTrace{Trace: ms.srcs[0].header(), CPUs: len(ms.srcs)}
	il := ms.interleaver(func(r trace.CPURun) { mt.Runs = append(mt.Runs, r) })
	var err error
	for !il.done {
		if mt.Trace.Events, err = il.step(mt.Trace.Events); err != nil {
			return nil, err
		}
	}
	if err := mt.CheckRuns(); err != nil {
		return nil, err
	}
	return mt, nil
}

// Trace is the streaming counterpart of Generate: a header-only merged
// trace whose events are regenerated chunk-by-chunk on every replay. One
// walk computes the CPU run schedule (tiny) and the totals, which are the
// sum of the per-CPU generators' own: every CPU's trace runs to completion
// in the merged one. Each CPU's own header-only trace, with its generator's
// totals, goes in PerCPU, so a private replay needs no counting walk. The
// event stream itself is never retained.
func (ms *MultiSource) Trace() (*trace.MultiTrace, error) {
	mt := &trace.MultiTrace{Trace: ms.srcs[0].header(), CPUs: len(ms.srcs)}
	il := ms.interleaver(func(r trace.CPURun) { mt.Runs = append(mt.Runs, r) })
	var buf []trace.Event
	for !il.done {
		var err error
		if buf, err = il.step(buf[:0]); err != nil {
			return nil, err
		}
	}
	tot := &trace.Totals{}
	for c, g := range il.gens {
		tot.Events += g.tot.Events
		tot.Blocks += g.tot.Blocks
		for d, n := range g.tot.Refs {
			tot.Refs[d] += n
		}
		mt.PerCPU = append(mt.PerCPU, ms.srcs[c].headerOnly(g.tot))
	}
	mt.Trace.Source = ms.Open
	mt.Trace.Total = tot
	if err := mt.CheckRuns(); err != nil {
		return nil, err
	}
	return mt, nil
}

// GenerateMulti produces the materialised merged multi-CPU trace of a
// workload in one call (NewMultiSource + Generate).
func GenerateMulti(k *kernelgen.Kernel, w Workload, opt Options, iopt InterleaveOptions) (*trace.MultiTrace, *appgen.App, error) {
	ms, err := NewMultiSource(k, w, opt, iopt)
	if err != nil {
		return nil, nil, err
	}
	mt, err := ms.Generate()
	if err != nil {
		return nil, nil, err
	}
	return mt, ms.App(), nil
}
