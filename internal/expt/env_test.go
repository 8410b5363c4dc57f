package expt

import (
	"reflect"
	"sync"
	"testing"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/obs"
	"oslayout/internal/simulate"
)

// TestRecordReplayRefs checks the recorder's replay.refs and replay.events
// counts, which the throughput metrics divide by: each Eval, EvalBlocks and
// EvalMany call (observed or not) adds exactly its trace's references and
// events once per group that carries configurations, on a materialised and
// on a streaming environment, and a call with no configurations adds
// nothing. The lineutil experiment, which replays through the utilization
// loop, accounts every replay too, and so do fig19 and a private
// multi-CPU compare grid, whose traces lie outside the study's set.
func TestRecordReplayRefs(t *testing.T) {
	cfgs := []cache.Config{DefaultCache, {Size: 4 << 10, Line: 16, Assoc: 2}}
	for _, streaming := range []bool{false, true} {
		mode := oslayout.StreamOff
		if streaming {
			mode = oslayout.StreamOn
		}
		rec := obs.NewRecorder()
		e, err := NewEnv(Options{OSRefs: 60_000, Stream: mode, ChunkEvents: 4 << 10, Recorder: rec, CPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if e.St.Streaming() != streaming {
			t.Fatalf("study streaming = %v, want %v", e.St.Streaming(), streaming)
		}
		osL := e.Base()
		opts, err := e.Layout("opts", 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		calls := []struct {
			name    string
			replays uint64
			call    func(i int) error
		}{
			{"Eval", 1, func(i int) error {
				_, err := e.Eval(i, osL, nil, cfgs[0])
				return err
			}},
			{"EvalMany", 1, func(i int) error {
				_, err := e.EvalMany(i, []simulate.Group{{OS: osL, Configs: cfgs}}, nil, nil)
				return err
			}},
			{"EvalMany observed", 1, func(i int) error {
				_, err := e.EvalMany(i, []simulate.Group{{OS: osL, Configs: cfgs}}, []obs.Observer{nil, obs.NewSimStats(0)}, nil)
				return err
			}},
			{"EvalMany three groups, one empty", 2, func(i int) error {
				_, err := e.EvalMany(i, []simulate.Group{{OS: osL, Configs: cfgs}, {OS: osL}, {OS: opts, Configs: cfgs[:1]}}, nil, nil)
				return err
			}},
			{"EvalBlocks", 1, func(i int) error {
				_, _, err := e.EvalBlocks(i, osL, nil, cfgs[0])
				return err
			}},
		}
		refs := func() uint64 { return rec.Counters()["replay.refs"] }
		events := func() uint64 { return rec.Counters()["replay.events"] }
		var allRefs, allEvents uint64
		for i, d := range e.St.Data {
			osRefs, appRefs := d.Trace.Refs()
			nev := uint64(d.Trace.NumEvents())
			allRefs += osRefs + appRefs
			allEvents += nev
			for _, c := range calls {
				before, beforeEv := refs(), events()
				if err := c.call(i); err != nil {
					t.Fatalf("streaming=%v %s %s: %v", streaming, c.name, d.Workload.Name, err)
				}
				if got, want := refs()-before, c.replays*(osRefs+appRefs); got != want || want == 0 {
					t.Errorf("streaming=%v %s %s: replay.refs grew by %d, want %d (%d replays)",
						streaming, c.name, d.Workload.Name, got, want, c.replays)
				}
				if got, want := events()-beforeEv, c.replays*nev; got != want || want == 0 {
					t.Errorf("streaming=%v %s %s: replay.events grew by %d, want %d (%d replays)",
						streaming, c.name, d.Workload.Name, got, want, c.replays)
				}
			}
			before := refs()
			if _, err := e.EvalMany(i, []simulate.Group{{OS: osL}}, nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := refs() - before; got != 0 {
				t.Errorf("streaming=%v %s: EvalMany with no configurations added %d references", streaming, d.Workload.Name, got)
			}
		}
		// lineutil replays every workload once per (line size, layout).
		before, beforeEv := refs(), events()
		u, err := e.RunLineUtil()
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(3 * len(u.Lines))
		if got, want := refs()-before, n*allRefs; got != want {
			t.Errorf("streaming=%v lineutil: replay.refs grew by %d, want %d", streaming, got, want)
		}
		if got, want := events()-beforeEv, n*allEvents; got != want {
			t.Errorf("streaming=%v lineutil: replay.events grew by %d, want %d", streaming, got, want)
		}

		// The multiprocessor traces, counted here from materialised copies:
		// fig19 replays each workload's merged trace and every CPU's own
		// trace once per layout (Base, OptS); a private grid replays every
		// CPU's trace once per group, one for base and one per size for opts.
		var mergedRefs, mergedEvents, cpuRefs, cpuEvents uint64
		for i := range e.St.Data {
			ms, err := e.multiSource(i, e.CPUs())
			if err != nil {
				t.Fatal(err)
			}
			mt, err := ms.Generate()
			if err != nil {
				t.Fatal(err)
			}
			osRefs, appRefs := mt.Refs()
			mergedRefs += osRefs + appRefs
			mergedEvents += uint64(mt.NumEvents())
			for c := 0; c < e.CPUs(); c++ {
				tr, err := ms.Source(c).Generate()
				if err != nil {
					t.Fatal(err)
				}
				osRefs, appRefs := tr.Refs()
				cpuRefs += osRefs + appRefs
				cpuEvents += uint64(tr.NumEvents())
			}
		}
		before, beforeEv = refs(), events()
		if _, err := e.RunFigure19(); err != nil {
			t.Fatal(err)
		}
		if got, want := refs()-before, 2*(mergedRefs+cpuRefs); got != want {
			t.Errorf("streaming=%v fig19: replay.refs grew by %d, want %d", streaming, got, want)
		}
		if got, want := events()-beforeEv, 2*(mergedEvents+cpuEvents); got != want {
			t.Errorf("streaming=%v fig19: replay.events grew by %d, want %d", streaming, got, want)
		}
		sizes := []int{4 << 10, 8 << 10}
		before, beforeEv = refs(), events()
		if _, err := e.RunCompareOpts([]string{"base", "opts"}, sizes, 32, 1,
			CompareOptions{CPUs: e.CPUs(), Private: true}); err != nil {
			t.Fatal(err)
		}
		groups := uint64(1 + len(sizes))
		if got, want := refs()-before, groups*cpuRefs; got != want {
			t.Errorf("streaming=%v private grid: replay.refs grew by %d, want %d", streaming, got, want)
		}
		if got, want := events()-beforeEv, groups*cpuEvents; got != want {
			t.Errorf("streaming=%v private grid: replay.events grew by %d, want %d", streaming, got, want)
		}
	}
}

// TestEvalBlocks checks per-block attribution through the environment. On a
// materialised and a streaming environment, each workload's per-block sums
// equal its result's per-domain misses, self and cross misses, and the
// result equals Eval's. With an OnWindow hook the counts are identical and
// the replay delivers the same progress windows Eval does.
func TestEvalBlocks(t *testing.T) {
	cfg := cache.Config{Size: 4 << 10, Line: 32, Assoc: 1}
	sum := func(vs []uint64) uint64 {
		var n uint64
		for _, v := range vs {
			n += v
		}
		return n
	}
	for _, streaming := range []bool{false, true} {
		mode := oslayout.StreamOff
		if streaming {
			mode = oslayout.StreamOn
		}
		opt := Options{OSRefs: 60_000, Stream: mode, ChunkEvents: 4 << 10}
		plain, err := NewEnv(opt)
		if err != nil {
			t.Fatal(err)
		}
		var flushes []obs.WindowFlush
		opt.OnWindow = func(f obs.WindowFlush) { flushes = append(flushes, f) }
		opt.Par = 1
		hooked, err := NewEnv(opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range plain.St.Data {
			name := d.Workload.Name
			res, blocks, err := plain.EvalBlocks(i, plain.Base(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := &res.Stats
			for dom := range st.Misses {
				if sum(blocks.Misses[dom]) != st.Misses[dom] || sum(blocks.Self[dom]) != st.Self[dom] ||
					sum(blocks.Cross[dom]) != st.Cross[dom] {
					t.Errorf("streaming=%v %s domain %d: per-block sums differ from stats %+v", streaming, name, dom, *st)
				}
			}
			if st.Misses[0] == 0 || st.Self[0] == 0 {
				t.Errorf("streaming=%v %s: degenerate replay %+v", streaming, name, *st)
			}
			if want, err := plain.Eval(i, plain.Base(), nil, cfg); err != nil || !reflect.DeepEqual(res, want) {
				t.Errorf("streaming=%v %s: EvalBlocks result differs from Eval (err %v)", streaming, name, err)
			}

			flushes = nil
			hres, hblocks, err := hooked.EvalBlocks(i, hooked.Base(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := flushes
			flushes = nil
			if _, err := hooked.Eval(i, hooked.Base(), nil, cfg); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hres, res) || !reflect.DeepEqual(hblocks, blocks) {
				t.Errorf("streaming=%v %s: counts differ with a progress hook", streaming, name)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, flushes) {
				t.Errorf("streaming=%v %s: EvalBlocks delivered %d progress windows, Eval %d (or they differ)",
					streaming, name, len(got), len(flushes))
			}
		}
	}
}

// TestSweepProgress checks which replays stream live progress: compare grid
// cells and fig18x's partitioned replays attach no progress observer, while
// a sweep batch (fig17) streams windows for its first configuration only,
// on every workload.
func TestSweepProgress(t *testing.T) {
	var mu sync.Mutex
	var flushes []obs.WindowFlush
	e, err := NewEnv(Options{OSRefs: 60_000, OnWindow: func(f obs.WindowFlush) {
		mu.Lock()
		flushes = append(flushes, f)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCompareOpts([]string{"base", "opts"}, []int{8 << 10}, 32, 1, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunFigure18X(); err != nil {
		t.Fatal(err)
	}
	if len(flushes) != 0 {
		t.Errorf("compare and fig18x streamed %d progress windows, want none", len(flushes))
	}
	f, err := e.RunFigure17()
	if err != nil {
		t.Fatal(err)
	}
	configs, workloads := map[string]bool{}, map[string]bool{}
	for _, fl := range flushes {
		configs[fl.Config] = true
		workloads[fl.Workload] = true
	}
	first := cache.Config{Size: 8 << 10, Line: f.Lines[0], Assoc: 1}.String()
	if len(configs) != 1 || !configs[first] {
		t.Errorf("fig17 streamed progress for configs %v, want only %s", configs, first)
	}
	if len(workloads) != len(e.St.Data) {
		t.Errorf("fig17 streamed progress for %d workloads, want %d", len(workloads), len(e.St.Data))
	}
}
