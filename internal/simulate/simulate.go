// Package simulate drives traces through cache models under given layouts.
// It is the counterpart of the paper's "final tool ... the cache simulator,
// with which we determine the effectiveness of the new basic block layout"
// (Section 2.2): the same dynamic trace is replayed under each candidate
// layout and cache organisation.
package simulate

import (
	"fmt"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// Result is the outcome of one simulation run. Per-block miss attribution
// is not part of it: attach an obs.BlockMisses observer to the replays that
// need it.
type Result struct {
	// LayoutName names the OS layout evaluated.
	LayoutName string
	Config     cache.Config
	Stats      cache.Stats
}

// AppBase is the base virtual address of application images: a distinct
// region from the kernel (which sits at low addresses, as in the paper where
// "virtual addresses for operating system code are equal to their physical
// addresses").
const AppBase = trace.AppBase

// Run replays the trace through one cache under the given layouts. appL may
// be nil when the trace has no application.
func Run(t *trace.Trace, osL, appL *layout.Layout, cfg cache.Config) (*Result, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := run(t, osL, appL, c, false); err != nil {
		return nil, err
	}
	return &Result{LayoutName: osL.Name, Config: cfg, Stats: c.Stats}, nil
}

// RunUtil is Run with cache-line utilization tracking enabled: it
// additionally reports, over evicted lines, the mean fraction of line words
// fetched while resident — the spatial-locality exploitation that makes
// layout gains grow with line size (Figure 17-a).
func RunUtil(t *trace.Trace, osL, appL *layout.Layout, cfg cache.Config) (*Result, cache.UtilStats, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, cache.UtilStats{}, err
	}
	if err := c.EnableUtilization(); err != nil {
		return nil, cache.UtilStats{}, err
	}
	if err := run(t, osL, appL, c, true); err != nil {
		return nil, cache.UtilStats{}, err
	}
	return &Result{LayoutName: osL.Name, Config: cfg, Stats: c.Stats}, c.Util, nil
}

// run is the common replay loop over a single cache; util marks the fetched
// words for line-utilization tracking. The paper's Sep and Resv hardware
// alternatives, formerly separate two-cache replay loops here, are now
// expressed as way partitions of one cache (cache.Partition) and replayed by
// the compiled-stream engine.
func run(t *trace.Trace, osL, appL *layout.Layout, c *cache.Cache, util bool) error {
	if err := checkLayouts(t, osL, appL); err != nil {
		return err
	}

	// Iterate in windows so header-only traces replay in O(chunk) memory;
	// cache and routing state plainly carries across window boundaries.
	r := t.Chunks()
	for {
		batch, rerr := r.Read()
		if rerr != nil {
			return rerr
		}
		if len(batch) == 0 {
			break
		}
		for _, e := range batch {
			if !e.IsBlock() {
				continue
			}
			d := e.Domain()
			b := e.Block()
			var l *layout.Layout
			var p *program.Program
			if d == trace.DomainOS {
				l, p = osL, t.OS
			} else {
				l, p = appL, t.App
			}
			addr := l.Addr[b]
			size := p.Block(b).Size
			c.Stats.Refs[d] += trace.RefsOf(size)
			startLine := c.LineOf(addr)
			endLine := c.LineOf(addr + uint64(size) - 1)
			for line := startLine; line <= endLine; line++ {
				c.AccessLine(line, d)
				if util {
					lineBase := line * uint64(c.Config().Line)
					from := 0
					if addr > lineBase {
						from = int(addr-lineBase) / trace.WordSize
					}
					to := c.Config().Line/trace.WordSize - 1
					if end := addr + uint64(size); end < lineBase+uint64(c.Config().Line) {
						to = int(end-1-lineBase) / trace.WordSize
					}
					c.MarkWords(line, from, to)
				}
			}
		}
	}
	return nil
}

// checkLayouts validates that the layouts match the trace's programs.
func checkLayouts(t *trace.Trace, osL, appL *layout.Layout) error {
	if osL.Prog != t.OS {
		return fmt.Errorf("simulate: OS layout is for program %q, trace for %q", osL.Prog.Name, t.OS.Name)
	}
	if t.App != nil && appL == nil {
		return fmt.Errorf("simulate: trace has application references but no application layout given")
	}
	return nil
}

// HistogramOf aggregates a per-block count slice (an obs.BlockMisses domain,
// say) into address-range buckets under a reference layout: the paper plots
// misses against Base-layout addresses even for optimised layouts.
func HistogramOf(perBlock []uint64, ref *layout.Layout, bucket uint64) []uint64 {
	if bucket == 0 {
		bucket = 1 << 10
	}
	n := (ref.End() - ref.Base + bucket - 1) / bucket
	h := make([]uint64, n)
	for b, m := range perBlock {
		if m == 0 {
			continue
		}
		idx := (ref.Addr[b] - ref.Base) / bucket
		if idx < uint64(len(h)) {
			h[idx] += m
		}
	}
	return h
}

// RefHistogram aggregates per-block references into address-range buckets
// under a reference layout (Figure 2).
func RefHistogram(p *program.Program, ref *layout.Layout, bucket uint64) []uint64 {
	if bucket == 0 {
		bucket = 1 << 10
	}
	n := (ref.End() - ref.Base + bucket - 1) / bucket
	h := make([]uint64, n)
	for b := range p.Blocks {
		blk := &p.Blocks[b]
		if blk.Weight == 0 {
			continue
		}
		idx := (ref.Addr[b] - ref.Base) / bucket
		if idx < uint64(len(h)) {
			h[idx] += blk.Weight * trace.RefsOf(blk.Size)
		}
	}
	return h
}
