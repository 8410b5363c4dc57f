// Package simulate drives traces through cache models under given layouts.
// It is the counterpart of the paper's "final tool ... the cache simulator,
// with which we determine the effectiveness of the new basic block layout"
// (Section 2.2): the same dynamic trace is replayed under each candidate
// layout and cache organisation.
package simulate

import (
	"fmt"
	"math/bits"

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
	if err := run(t, osL, appL, c, nil); err != nil {
		return nil, err
	}
	return &Result{LayoutName: osL.Name, Config: cfg, Stats: c.Stats}, nil
}

// RunUtil is Run with cache-line utilization tracking: it additionally
// reports, over evicted lines, the mean fraction of line words fetched while
// resident — the spatial-locality exploitation that makes layout gains grow
// with line size (Figure 17-a). Lines over 256 B (64 words) are refused.
func RunUtil(t *trace.Trace, osL, appL *layout.Layout, cfg cache.Config) (*Result, UtilStats, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, UtilStats{}, err
	}
	u, err := trackUtil(c)
	if err != nil {
		return nil, UtilStats{}, err
	}
	if err := run(t, osL, appL, c, u); err != nil {
		return nil, UtilStats{}, err
	}
	return &Result{LayoutName: osL.Name, Config: cfg, Stats: c.Stats}, u.UtilStats, nil
}

// run is the common replay loop over a single cache; a non-nil u marks the
// fetched words for line-utilization tracking. The paper's Sep and Resv
// hardware alternatives, formerly separate two-cache replay loops here, are
// now expressed as way partitions of one cache (cache.Partition) and
// replayed by the compiled-stream engine.
func run(t *trace.Trace, osL, appL *layout.Layout, c *cache.Cache, u *utilTracker) error {
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
				class := c.AccessLine(line, d)
				if u != nil {
					lineBase := line * uint64(c.Config().Line)
					from := 0
					if addr > lineBase {
						from = int(addr-lineBase) / trace.WordSize
					}
					to := c.Config().Line/trace.WordSize - 1
					if end := addr + uint64(size); end < lineBase+uint64(c.Config().Line) {
						to = int(end-1-lineBase) / trace.WordSize
					}
					u.mark(line, class, from, to)
				}
			}
		}
	}
	return nil
}

// UtilStats measures cache-line utilization: of the words a line held while
// resident, how many were actually fetched before the line was evicted.
// Layouts with good spatial locality (the paper's sequences) raise this,
// which is why their advantage grows with line size (Figure 17-a).
type UtilStats struct {
	// Evictions counts evicted lines (lines still resident at the end of a
	// run are not counted).
	Evictions uint64
	// WordsUsed and WordsTotal accumulate the used and total word counts of
	// evicted lines.
	WordsUsed, WordsTotal uint64
}

// Utilization returns the mean fraction of line words used before eviction.
func (u UtilStats) Utilization() float64 {
	if u.WordsTotal == 0 {
		return 0
	}
	return float64(u.WordsUsed) / float64(u.WordsTotal)
}

// maskWords is the width of a line's word mask: one bit per instruction
// word, so lines up to maskWords*trace.WordSize bytes (256 B) can be
// tracked.
const maskWords = 64

// utilTracker measures line utilization beside a cache. It keeps a word mask
// per line address, restarts it when a fetch misses (the line was just
// installed), and counts a line's words when the cache's eviction hook
// reports the line displaced. A line that a repartition drops is not
// counted, as the cache reports no eviction for it; its next fetch misses
// and restarts its mask.
type utilTracker struct {
	UtilStats
	lineWords uint64
	// lo holds the masks of kernel lines, hi those of application lines
	// re-based to hiBase, the first line at trace.AppBase: both images are
	// a few MB, so dense tables beat a map on every access.
	lo, hi []uint64
	hiBase uint64
}

// trackUtil attaches a tracker to c's eviction hook. It refuses a line
// wider than the mask, whose upper words would go uncounted.
func trackUtil(c *cache.Cache) (*utilTracker, error) {
	line := c.Config().Line
	if w := line / trace.WordSize; w > maskWords {
		return nil, fmt.Errorf("simulate: line size %dB has %d words, exceeding the %d-word utilization mask",
			line, w, maskWords)
	}
	u := &utilTracker{lineWords: uint64(line / trace.WordSize), hiBase: c.LineOf(trace.AppBase)}
	c.SetEvictionHook(u.evict)
	return u, nil
}

// maskOf returns the mask of line, growing its table to cover it.
func (u *utilTracker) maskOf(line uint64) *uint64 {
	tab, i := &u.lo, line
	if line >= u.hiBase {
		tab, i = &u.hi, line-u.hiBase
	}
	if i >= uint64(len(*tab)) {
		*tab = append(*tab, make([]uint64, i+1-uint64(len(*tab)))...)
	}
	return &(*tab)[i]
}

// mark records that words [from, to] (inclusive, line-relative) of line were
// fetched by an access whose outcome was class.
func (u *utilTracker) mark(line uint64, class cache.MissClass, from, to int) {
	words := (^uint64(0) >> (63 - uint(to))) &^ (1<<uint(from) - 1)
	m := u.maskOf(line)
	if class != cache.Hit {
		*m = words
	} else {
		*m |= words
	}
}

// evict is the cache's eviction hook: it counts the displaced line's words.
func (u *utilTracker) evict(line uint64, _ int, _ trace.Domain) {
	u.Evictions++
	u.WordsUsed += uint64(bits.OnesCount64(*u.maskOf(line)))
	u.WordsTotal += u.lineWords
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
