package main

import (
	"fmt"
	"runtime"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
)

// streamStrategies is the stream workload's slice of the compare grid: the
// paper's Base against its OptS.
var streamStrategies = []string{"base", "opts"}

// streamIdentityRefs is the reference count at which every stream run also
// replays the grid materialised, to check streamed ≡ materialised.
const streamIdentityRefs = 100_000

// streamWorkload replays the {base, opts} grid through the chunked
// constant-memory pipeline: every replay regenerates the trace, compiles
// it chunk by chunk overlapped with the drive, and bypasses the stream
// cache, so the run is bound by generation and memory bandwidth.
var streamWorkload = &spec{
	name:     "stream",
	refs:     20_000_000,
	testRefs: 50_000,
	measure:  streamMeasure,
	traced:   streamTraced,
}

const streamRounds = 2

func newStreamEnv(kernel int64, refs uint64, mode oslayout.StreamMode, rec *obs.Recorder) (*expt.Env, error) {
	return expt.NewEnv(expt.Options{OSRefs: refs, KernelSeed: kernel, Stream: mode, Recorder: rec})
}

// streamIdentity checks streamed ≡ materialised on a small study of the
// run's seed: two operations whose digests must agree.
func streamIdentity(r *run) {
	for _, mode := range []oslayout.StreamMode{oslayout.StreamOff, oslayout.StreamOn} {
		env, err := newStreamEnv(r.seed, streamIdentityRefs, mode, nil)
		var d string
		if err == nil {
			d, err = compareDigest(env, streamStrategies)
		}
		r.chk.op(fmt.Sprintf("stream identity (mode %d)", mode), map[string]string{"identity": d}, err)
	}
}

func streamMeasure(r *run) error {
	streamIdentity(r)
	return measureRounds(r, streamRounds, 0,
		func(kernel int64, rec *obs.Recorder) (*expt.Env, error) {
			env, err := newStreamEnv(kernel, r.refs, oslayout.StreamOn, rec)
			if err == nil && !env.St.Streaming() {
				err = fmt.Errorf("study is not streaming")
			}
			return env, err
		},
		func(env *expt.Env) (string, error) { return compareDigest(env, streamStrategies) })
}

// streamTraced runs one set-up and one streamed pass through the public
// API (untraced), then the same work layer by layer: header-only trace
// generation and profiling, strategy builds and one streamed RunManyOpt
// per grid task. A drain of every trace's chunks, outside the compared
// window, times regeneration alone.
func streamTraced(r *run) error {
	streamIdentity(r)
	rec := obs.NewRecorder()
	t0 := time.Now()
	env, err := newStreamEnv(r.seed, r.refs, oslayout.StreamOn, rec)
	if err != nil {
		return fmt.Errorf("building study: %w", err)
	}
	d, err := compareDigest(env, streamStrategies)
	if !r.chk.op("stream untraced pass", map[string]string{"compare": d}, err) {
		return fmt.Errorf("untraced pass failed")
	}
	untraced := time.Since(t0)
	recorderLayers(r, rec, env)

	l := newLedger()
	t1 := time.Now()
	s, err := setupLayers(l, env.St, r.seed, true)
	if err != nil {
		return err
	}
	g := newLayerGrid(s, streamStrategies, gridSizes)
	c, stats, err := g.streamPass(l)
	if err == nil {
		l.time("expt.render_s", func() error { d = obs.Digest(c.Render()); return nil })
	}
	if !r.chk.op("stream traced pass", map[string]string{"compare": d}, err) {
		return fmt.Errorf("traced pass failed")
	}
	t2 := time.Now()
	for _, t := range s.traces {
		if err := l.time("workload.regen_s", func() error { return drain(t) }); err != nil {
			return err
		}
	}
	r.setLayerTimes(l)
	r.set("expt.render_s", l.busy("expt.render_s"), "s")
	setCacheStats(r, stats)
	r.set("unaccounted_s", t2.Sub(t1).Seconds()-l.covered(t1, t2), "s")
	r.set("trace_overhead_frac", (t2.Sub(t1).Seconds()-untraced.Seconds())/untraced.Seconds(), "ratio")
	return nil
}

// drain reads a header-only trace's regenerated chunks to the end.
func drain(t *trace.Trace) error {
	rd := t.Chunks()
	for {
		batch, err := rd.Read()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			return nil
		}
	}
}

// streamPass evaluates the grid over header-only traces: each task is one
// streamed RunManyOpt, which regenerates, compiles and drives chunk by
// chunk inside the call.
func (g *layerGrid) streamPass(l *ledger) (*expt.Compare, []cache.Stats, error) {
	c := g.newCompare()
	layouts, err := g.layouts(l)
	if err != nil {
		return nil, nil, err
	}
	stats := make([][]cache.Stats, len(g.tasks))
	err = parEach(len(g.tasks), func(j int) error {
		tk := g.tasks[j]
		cfgs := make([]cache.Config, len(tk.sis))
		for i, si := range tk.sis {
			cfgs[i] = cache.Config{Size: g.sizes[si], Line: gridLine, Assoc: 1}
		}
		var res []*simulate.Result
		if err := l.time("simulate.stream_replay_s", func() (err error) {
			res, err = simulate.RunManyOpt(g.s.traces[tk.wi], layouts[tk.sis[0]][tk.k], g.appL[tk.wi], cfgs,
				simulate.Options{Workers: runtime.GOMAXPROCS(0)})
			return err
		}); err != nil {
			return err
		}
		for i, si := range tk.sis {
			c.Rates[si][tk.wi][tk.k] = res[i].Stats.MissRate()
			stats[j] = append(stats[j], res[i].Stats)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var flat []cache.Stats
	for _, st := range stats {
		flat = append(flat, st...)
	}
	return c, flat, nil
}
