package obs

import (
	"oslayout/internal/cache"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// BlockMisses is the per-block miss attribution observer: it charges each
// classified miss to the basic block whose fetch caused it. The paper reads
// these counts to explain its results (Figure 1's self/cross peaks, Table
// 2's sequence miss share, the block classes of Figures 13–14); sweeps that
// read only per-domain totals leave it off, so the replay engine keeps no
// per-block state of its own.
type BlockMisses struct {
	// Misses[d][b] counts misses of block b of domain d. The application
	// slices are nil when the trace has no application.
	Misses [trace.NumDomains][]uint64
	// Self and Cross split Misses into self- and cross-interference misses
	// (the remainder is cold misses).
	Self  [trace.NumDomains][]uint64
	Cross [trace.NumDomains][]uint64
}

// NewBlockMisses returns zeroed counters sized to the trace's programs.
func NewBlockMisses(t *trace.Trace) *BlockMisses {
	m := &BlockMisses{}
	for d, p := range [trace.NumDomains]*program.Program{t.OS, t.App} {
		if p != nil {
			m.Misses[d] = make([]uint64, p.NumBlocks())
			m.Self[d] = make([]uint64, p.NumBlocks())
			m.Cross[d] = make([]uint64, p.NumBlocks())
		}
	}
	return m
}

// Begin implements Observer.
func (m *BlockMisses) Begin(cache.Config, int) {}

// Event implements Observer.
func (m *BlockMisses) Event(trace.Domain, uint32, uint64) {}

// Miss implements Observer.
func (m *BlockMisses) Miss(_ uint64, d trace.Domain, class cache.MissClass, block uint32) {
	m.Misses[d][block]++
	switch class {
	case cache.SelfMiss:
		m.Self[d][block]++
	case cache.CrossMiss:
		m.Cross[d][block]++
	}
}

// Evict implements Observer.
func (m *BlockMisses) Evict(uint64, int, trace.Domain) {}
