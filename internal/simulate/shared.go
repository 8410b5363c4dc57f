package simulate

// Shared-cache multiprocessor replay: one merged multi-CPU event stream
// (trace.MultiTrace) driven into caches that all CPUs share. This is a
// separate drive from RunGroups on purpose — the single-CPU hot path stays
// branch-free and bit-identical, while this walk follows the run-length CPU
// schedule beside the compiled stream and keeps per-CPU books (obs.CPUStats)
// on every access.
//
// The walk reuses the whole single-CPU artifact chain: the same chunked
// compilation (chunkCompiler, so materialised and header-only merged traces
// replay identically), the same packed access words, the same per-event
// offsets driveWindowObserved follows. Each configuration is its own drive
// unit — the direct-mapped inclusion-chain skip is deliberately absent
// here, because a skipped access would also skip its per-CPU hit
// accounting — and units fan out across workers with a barrier per window,
// so results are bit-identical at any worker count.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// SharedOptions tunes RunShared beyond the configuration list.
type SharedOptions struct {
	// Observers, when non-nil, holds one observer per configuration (nil
	// entries allowed) — the same contract as Options.Observers, so
	// partition controllers and SimStats attach unchanged.
	Observers []obs.Observer
	// Setups, when non-nil, holds one cache setup per configuration,
	// applied after construction (partition binding).
	Setups []CacheSetup
	// Workers bounds the per-window fan-out across configurations.
	Workers int
}

// SharedResult is one configuration's outcome: the usual Result plus the
// per-CPU split and cross-CPU attribution.
type SharedResult struct {
	*Result
	// CPU holds the per-CPU reference/miss split, the eviction attribution
	// matrix and the constructive-sharing counts.
	CPU *obs.CPUStats
	// Evictions counts eviction-hook invocations during the replay — the
	// independent total the CPU.Evictions matrix must sum to exactly.
	Evictions uint64
}

// sharedUnit drives one configuration over the merged stream.
type sharedUnit struct {
	lineIdx int
	access  func(line uint64, d trace.Domain) cache.MissClass
	cpu     *obs.CPUStats
	o       obs.Observer
	// curCPU is the CPU of the event being replayed; the eviction hook
	// reads it to attribute the eviction's evictor.
	curCPU    int
	evictions uint64
}

// sharedWindow is one replay window: packed block events, their CPUs, and
// one compiled lineWindow per line-size group.
type sharedWindow struct {
	attrs   []uint32
	cpuOf   []uint8
	refsTab [trace.NumDomains][]uint64
	lines   []lineWindow
}

// RunShared replays the merged multi-CPU trace through every configuration:
// all CPUs fetch into one shared cache per configuration (way-partitioned
// ones bind their partition via Setups, exactly like RunGroups). appL may
// be nil when the trace has no application.
func RunShared(mt *trace.MultiTrace, osL, appL *layout.Layout, cfgs []cache.Config, opt SharedOptions) ([]*SharedResult, error) {
	if err := mt.CheckRuns(); err != nil {
		return nil, err
	}
	if opt.Observers != nil && len(opt.Observers) != len(cfgs) {
		return nil, fmt.Errorf("simulate: %d observers for %d configs", len(opt.Observers), len(cfgs))
	}
	if opt.Setups != nil && len(opt.Setups) != len(cfgs) {
		return nil, fmt.Errorf("simulate: %d setups for %d configs", len(opt.Setups), len(cfgs))
	}
	if err := checkLayouts(mt.Trace, osL, appL); err != nil {
		return nil, err
	}

	results := make([]*SharedResult, len(cfgs))
	units := make([]*sharedUnit, len(cfgs))
	caches := make([]*cache.Cache, len(cfgs))

	// Group configurations by line size: they share one compiled window.
	byLine := make(map[int]int)
	var lineSizes []int
	for i, cfg := range cfgs {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = c
		if opt.Setups != nil && opt.Setups[i] != nil {
			if err := opt.Setups[i](c); err != nil {
				return nil, err
			}
		}
		k, ok := byLine[cfg.Line]
		if !ok {
			k = len(lineSizes)
			byLine[cfg.Line] = k
			lineSizes = append(lineSizes, cfg.Line)
		}
		u := &sharedUnit{lineIdx: k, access: c.AccessFunc(), cpu: obs.NewCPUStats(mt.CPUs)}
		if opt.Observers != nil {
			u.o = opt.Observers[i]
		}
		units[i] = u
		results[i] = &SharedResult{Result: &Result{LayoutName: osL.Name, Config: cfg}, CPU: u.cpu}
		// One hook serves both books: cross-CPU attribution always, plus
		// the observer's Evict when one is attached.
		c.SetEvictionHook(func(victim uint64, set int, ev trace.Domain) {
			u.evictions++
			u.cpu.Evicted(victim, u.curCPU)
			if u.o != nil {
				u.o.Evict(victim, set, ev)
			}
		})
	}
	if len(cfgs) == 0 {
		return results, nil
	}

	compilers := make([]*chunkCompiler, len(lineSizes))
	for k, ls := range lineSizes {
		cc, err := newChunkCompiler(mt.Trace, osL, appL, ls)
		if err != nil {
			return nil, err
		}
		compilers[k] = cc
	}

	tot := mt.Summarize()
	for i := range units {
		if units[i].o != nil {
			units[i].o.Begin(cfgs[i], tot.Blocks)
		}
	}

	w := &sharedWindow{lines: make([]lineWindow, len(lineSizes))}
	w.refsTab[trace.DomainOS] = refsOf(mt.OS)
	if mt.App != nil {
		w.refsTab[trace.DomainApp] = refsOf(mt.App)
	}

	// The run cursor: runs[runIdx] covers the next `left` raw events
	// (markers included). Chunk boundaries need not align with runs — the
	// cursor simply carries across windows.
	runIdx, left, runCPU := 0, 0, 0
	r := mt.Chunks()
	for {
		batch, err := r.Read()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			break
		}
		w.attrs, w.cpuOf = emptied(w.attrs, len(batch)), emptied(w.cpuOf, len(batch))
		for _, e := range batch {
			for left == 0 {
				if runIdx >= len(mt.Runs) {
					return nil, fmt.Errorf("simulate: merged stream outruns its CPU schedule")
				}
				left, runCPU = mt.Runs[runIdx].Events, mt.Runs[runIdx].CPU
				runIdx++
			}
			left--
			if !e.IsBlock() {
				continue
			}
			w.attrs = append(w.attrs, uint32(e.Domain())<<eventDomainShift|uint32(e.Block()))
			w.cpuOf = append(w.cpuOf, uint8(runCPU))
		}
		for k := range compilers {
			if err := compilers[k].compile(w.attrs, &w.lines[k], true); err != nil {
				return nil, err
			}
		}
		driveSharedUnits(units, w, opt.Workers)
	}

	for i := range results {
		caches[i].Stats.Refs = tot.Refs
		results[i].Stats = caches[i].Stats
		results[i].Evictions = units[i].evictions
	}
	return results, nil
}

// driveSharedUnits fans the units over one window; the return is the
// barrier that keeps every cache's access order sequential across windows.
func driveSharedUnits(units []*sharedUnit, w *sharedWindow, workers int) {
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for _, u := range units {
			u.drive(w)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(units) {
					return
				}
				units[k].drive(w)
			}
		}()
	}
	wg.Wait()
}

// drive replays one window through the unit's cache, keeping the per-CPU
// books on every access. The cache-visible access sequence is exactly the
// single-CPU engine's for the same merged trace.
func (u *sharedUnit) drive(w *sharedWindow) {
	lw := &w.lines[u.lineIdx]
	start := uint32(0)
	for i, a := range w.attrs {
		d := trace.Domain(a >> eventDomainShift)
		b := a & (1<<eventDomainShift - 1)
		cpu := int(w.cpuOf[i])
		u.curCPU = cpu
		u.cpu.Ref(cpu, d, w.refsTab[d][b])
		if u.o != nil {
			u.o.Event(d, b, w.refsTab[d][b])
		}
		end := lw.eventEnd[i]
		for j := start; j < end; j++ {
			line := uint64(lw.accs[j] & streamLineMask)
			cl := u.access(line, d)
			if cl == cache.Hit {
				u.cpu.Hit(line, cpu, d)
				continue
			}
			u.cpu.Miss(cpu, d)
			u.cpu.Install(line, cpu)
			if u.o != nil {
				u.o.Miss(line, d, cl, b)
			}
		}
		start = end
	}
}
