package main

import (
	"fmt"
	"runtime"
	"time"

	"oslayout/internal/expt"
	"oslayout/internal/obs"
)

// paperExperiments is what the reproduction exists for: every table and
// figure of the paper's evaluation, plus the repartitioning (fig18x) and
// multiprocessor (fig19) extensions of its cache-organisation study.
var paperExperiments = []string{
	"table1", "table2", "table3", "table4",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig18x", "fig19",
}

// paperWorkload regenerates the paper on a fresh expt.Env per pass. A fresh
// environment per pass is what keeps the timing honest: expt.Run memoizes
// results per environment, so a repeated pass on one environment would
// time map lookups.
var paperWorkload = &spec{
	name:     "paper",
	refs:     300_000,
	testRefs: 20_000,
	measure:  paperMeasure,
	traced:   paperTraced,
}

// paperPass is one timed pass: set-up, then every experiment rendered.
type paperPass struct {
	// setup and exps are CPU seconds, wall wall-clock seconds of the pass.
	setup, exps, wall float64
	outputs           map[string]string
	refs              uint64
	rec               *obs.Recorder
	env               *expt.Env
}

// paperKernels is how many kernels a paper run cycles its passes through;
// every run makes at least one pass on each.
const paperKernels = 5

// runPaperPass builds a fresh environment on the given kernel and runs
// every paper experiment on it; a non-nil ledger times each experiment and
// each render.
func runPaperPass(r *run, kernel int64, l *ledger) (*paperPass, error) {
	p := &paperPass{rec: obs.NewRecorder(), outputs: make(map[string]string, len(paperExperiments))}
	t0 := now()
	var err error
	if err := l.time("expt.setup", func() error {
		p.env, err = expt.NewEnv(expt.Options{OSRefs: r.refs, KernelSeed: kernel, Recorder: p.rec})
		return err
	}); err != nil {
		return nil, fmt.Errorf("building environment: %w", err)
	}
	_, p.setup = t0.since()
	t1 := now()
	for _, name := range paperExperiments {
		var res expt.Renderer
		if err := l.time("expt."+name+"_s", func() (err error) {
			res, err = expt.Run(p.env, name)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var text string
		l.time("expt.render_s", func() error { text = res.Render(); return nil })
		p.outputs[name] = obs.Digest(text)
	}
	_, p.exps = t1.since()
	p.wall, _ = t0.since()
	c := p.rec.Counters()
	if c["replay.events"] == 0 {
		return nil, fmt.Errorf("pass replayed no events")
	}
	p.refs = c["replay.refs"]
	return p, nil
}

func paperMeasure(r *run) error {
	heap := startHeapSampler()
	defer heap.Close()
	var setups, colds, passes, walls, heaps, rates []float64
	kernels := r.useKernels(paperKernels)
	for n := 0; n < len(kernels) || more(r.start, r.budget, walls); n++ {
		runtime.GC()
		heap.reset()
		kernel := kernels[n%len(kernels)]
		p, err := runPaperPass(r, kernel, nil)
		if !r.chk.op(fmt.Sprintf("paper pass %d (kernel %d)", n, kernel), r.kernelOutputs(kernel, outputsOf(p)), err) {
			continue
		}
		setups = append(setups, p.setup)
		colds = append(colds, p.exps)
		passes = append(passes, p.setup+p.exps)
		walls = append(walls, p.wall)
		heaps = append(heaps, heap.peakMiB())
		rates = append(rates, float64(p.refs)/1e6/p.exps)
		r.logf("paper: pass %d: %.3f CPU s set-up, %.3f CPU s experiments, %.3f s wall", n, p.setup, p.exps, p.wall)
	}
	if len(passes) == 0 {
		return fmt.Errorf("no pass succeeded")
	}
	r.set("setup_s", median(setups), "s")
	r.set("cold_cpu_s", median(colds), "s")
	r.set("pass_cpu_s", median(passes), "s")
	r.set("mrefs_per_cpu_s", median(rates), "Mref/cpu-s")
	r.set("peak_heap_mib", median(heaps), "MiB")
	r.wallLatency(walls)
	return nil
}

func outputsOf(p *paperPass) map[string]string {
	if p == nil {
		return nil
	}
	return p.outputs
}

// paperTraced times the layer calls of one set-up (through the layers
// directly) and of one pass (the experiments, their rendering, and the
// spans and counters the program's recorder emits), against an untraced
// pass for the tracing overhead.
func paperTraced(r *run) error {
	ref, err := runPaperPass(r, r.seed, nil)
	if !r.chk.op("paper untraced pass", outputsOf(ref), err) {
		return fmt.Errorf("untraced pass failed")
	}
	l := newLedger()
	if _, err := setupLayers(l, ref.env.St, r.seed, false); err != nil {
		return err
	}

	pl := newLedger()
	t1 := time.Now()
	p, err := runPaperPass(r, r.seed, pl)
	if !r.chk.op("paper traced pass", outputsOf(p), err) {
		return fmt.Errorf("traced pass failed")
	}
	t2 := time.Now()
	for _, name := range paperExperiments {
		r.set("expt."+name+"_s", pl.busy("expt."+name+"_s"), "s")
	}
	r.set("expt.render_s", pl.busy("expt.render_s"), "s")
	r.setLayerTimes(l)
	recorderLayers(r, p.rec, p.env)
	streamCacheLayers(r, p.env)
	r.set("unaccounted_s", t2.Sub(t1).Seconds()-pl.covered(t1, t2), "s")
	r.set("trace_overhead_frac", (t2.Sub(t1).Seconds()-ref.wall)/ref.wall, "ratio")
	return nil
}
