package simulate

// Shared-cache multiprocessor replay: one merged multi-CPU event stream
// (trace.MultiTrace) driven into caches that all CPUs share. It is
// RunGroups over the merged stream plus one cpuBooks observer per
// configuration, which follows the run-length CPU schedule event by event
// and keeps the configuration's per-CPU books (obs.CPUStats). The books
// count hits on lines a sibling CPU installed, so they are hit observers:
// a direct-mapped cache they watch leaves the inclusion chain, and every
// hit of the compiled stream reaches them. Everything else — cache
// construction, line-size and layout grouping, chunked compile, unit
// fan-out and the per-window barrier — is the single-CPU engine's, so the
// results are bit-identical at any worker count and in either pipeline
// mode, and a one-CPU replay equals RunManyOpt.

import (
	"fmt"

	"oslayout/internal/cache"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

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

// cpuBooks keeps one configuration's per-CPU books and forwards every
// Observer call to the caller's observer, when there is one.
type cpuBooks struct {
	cpu  obs.CPUStats
	next obs.Observer
	runs []trace.CPURun
	// run indexes the next schedule entry, left counts the block events
	// the current one still owns, and cur is the CPU of the event being
	// replayed: the one its misses, hits and evictions are charged to.
	run, left, cur int
	evictions      uint64
}

func (b *cpuBooks) Begin(cfg cache.Config, totalEvents int) {
	if b.next != nil {
		b.next.Begin(cfg, totalEvents)
	}
}

func (b *cpuBooks) Event(d trace.Domain, block uint32, refs uint64) {
	for b.left == 0 {
		b.cur, b.left = b.runs[b.run].CPU, b.runs[b.run].Blocks
		b.run++
	}
	b.left--
	b.cpu.Ref(b.cur, d, refs)
	if b.next != nil {
		b.next.Event(d, block, refs)
	}
}

func (b *cpuBooks) Miss(line uint64, d trace.Domain, class cache.MissClass, block uint32) {
	b.cpu.Miss(b.cur, d)
	b.cpu.Install(line, b.cur)
	if b.next != nil {
		b.next.Miss(line, d, class, block)
	}
}

func (b *cpuBooks) Evict(victimLine uint64, set int, evictor trace.Domain) {
	b.evictions++
	b.cpu.Evicted(victimLine, b.cur)
	if b.next != nil {
		b.next.Evict(victimLine, set, evictor)
	}
}

func (b *cpuBooks) Hit(line uint64, d trace.Domain) { b.cpu.Hit(line, b.cur, d) }

// RunShared replays the merged multi-CPU trace under every group: all CPUs
// fetch into one shared cache per configuration. Options apply as in
// RunGroups — opt.Observers[i], when given, sees config i's replay through
// its books (partition controllers, SimStats), and way-partitioned caches
// bind their partition via opt.Setups. Results index the groups' configs
// concatenated in order. The schedule must cover the stream exactly, in
// raw events and in block events. The merged stream replays through a
// header-only view over its own Chunks, so a materialised trace, like a
// regenerated one, keeps O(chunk) compiled bytes in flight however many
// groups the call carries, and a header-only one is regenerated once.
func RunShared(mt *trace.MultiTrace, groups []Group, opt Options) ([]*SharedResult, error) {
	if err := mt.CheckRuns(); err != nil {
		return nil, err
	}
	tot := mt.Summarize()
	blocks := 0
	for _, r := range mt.Runs {
		blocks += r.Blocks
	}
	if blocks != tot.Blocks {
		return nil, fmt.Errorf("simulate: CPU schedule covers %d of %d block events", blocks, tot.Blocks)
	}
	var books []*cpuBooks
	for _, g := range groups {
		for _, cfg := range g.Configs {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			books = append(books, &cpuBooks{cpu: *obs.NewCPUStats(mt.CPUs, cfg.Line), runs: mt.Runs})
		}
	}
	if opt.Observers != nil && len(opt.Observers) != len(books) {
		return nil, fmt.Errorf("simulate: %d observers for %d configs", len(opt.Observers), len(books))
	}
	observers := make([]obs.Observer, len(books))
	for i, b := range books {
		if opt.Observers != nil {
			b.next = opt.Observers[i]
		}
		observers[i] = b
	}
	opt.Observers = observers

	view := &trace.Trace{Name: mt.Name, OS: mt.OS, App: mt.App, Source: mt.Trace.Chunks, Total: tot}
	res, err := RunGroups(view, groups, opt)
	if err != nil {
		return nil, err
	}
	out := make([]*SharedResult, len(res))
	for i, r := range res {
		out[i] = &SharedResult{Result: r, CPU: &books[i].cpu, Evictions: books[i].evictions}
	}
	return out, nil
}
