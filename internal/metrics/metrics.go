// Package metrics implements the locality analyses of Section 3 of the
// paper: the arc-probability distribution (Figure 3), routine and basic
// block invocation skew (Figures 6 and 8), temporal reuse distance
// (Figure 7), loop behaviour (Table 3, Figures 4 and 5), and sequence
// characterisation (Table 2).
package metrics

import (
	"sort"

	"oslayout/internal/cfa"
	"oslayout/internal/core"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// ArcProbStats is the Figure 3 analysis: how deterministic control transfers
// are, measured over executed arcs (conditional and unconditional branches,
// fall-throughs and procedure calls).
type ArcProbStats struct {
	// Buckets histograms arc probabilities into 20 equal bins of width
	// 0.05, by arc count.
	Buckets [20]int
	// TotalArcs is the number of executed arcs considered.
	TotalArcs int
	// FracHigh is the fraction of arcs with probability ≥ 0.99.
	FracHigh float64
	// FracLow is the fraction of arcs with probability ≤ 0.01.
	FracLow float64
}

// ArcProbabilities computes the Figure 3 distribution from a profiled
// program. Only arcs leaving executed blocks are counted; arcs that were
// never traversed still count (with probability 0), matching the paper's
// "probability that an outgoing arc is used given that the basic block that
// it leaves is executed".
func ArcProbabilities(p *program.Program) ArcProbStats {
	var st ArcProbStats
	add := func(prob float64) {
		st.TotalArcs++
		bin := int(prob * 20)
		if bin >= len(st.Buckets) {
			bin = len(st.Buckets) - 1
		}
		st.Buckets[bin]++
		if prob >= 0.99 {
			st.FracHigh++
		}
		if prob <= 0.01 {
			st.FracLow++
		}
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Weight == 0 {
			continue
		}
		w := float64(b.Weight)
		for _, a := range b.Out {
			add(float64(a.Weight) / w)
		}
		if b.HasCall {
			add(float64(b.Call.Count) / w)
		}
	}
	if st.TotalArcs > 0 {
		st.FracHigh /= float64(st.TotalArcs)
		st.FracLow /= float64(st.TotalArcs)
	}
	return st
}

// InvocationSkew returns the per-routine invocation counts sorted from most
// to least frequently invoked and normalised to sum to 100 (Figure 6).
// Routines never invoked are omitted.
func InvocationSkew(p *program.Program) []float64 {
	var counts []float64
	var total float64
	for i := range p.Routines {
		if inv := p.Routines[i].Invocations; inv > 0 {
			counts = append(counts, float64(inv))
			total += float64(inv)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	for i := range counts {
		counts[i] = 100 * counts[i] / total
	}
	return counts
}

// BlockSkew is the Figure 8 analysis of basic-block invocation counts with
// loops counted as a single iteration per invocation.
type BlockSkew struct {
	// Shares are the normalised (percent) adjusted execution counts of
	// executed blocks, sorted descending.
	Shares []float64
	// Executed is the number of executed blocks.
	Executed int
	// Over3Pct and Over1Pct count blocks whose share exceeds 3% and 1%;
	// UnderPt01Pct counts blocks below 0.01%.
	Over3Pct, Over1Pct, UnderPt01Pct int
}

// BlockInvocationSkew computes Figure 8 from a profiled program and its
// natural loops.
func BlockInvocationSkew(p *program.Program, loops []cfa.Loop) BlockSkew {
	adj := core.AdjustedWeights(p, loops)
	var sk BlockSkew
	var total float64
	for _, a := range adj {
		if a > 0 {
			sk.Shares = append(sk.Shares, float64(a))
			total += float64(a)
		}
	}
	sk.Executed = len(sk.Shares)
	sort.Sort(sort.Reverse(sort.Float64Slice(sk.Shares)))
	for i := range sk.Shares {
		sk.Shares[i] = 100 * sk.Shares[i] / total
		switch {
		case sk.Shares[i] > 3:
			sk.Over3Pct++
			sk.Over1Pct++
		case sk.Shares[i] > 1:
			sk.Over1Pct++
		case sk.Shares[i] < 0.01:
			sk.UnderPt01Pct++
		}
	}
	return sk
}

// ReuseBuckets are the Figure 7 histogram bins: OS instruction words fetched
// between consecutive calls to the same routine within one OS invocation.
var ReuseBucketBounds = []uint64{100, 1_000, 10_000, 100_000}

// ReuseStats is the Figure 7 result.
type ReuseStats struct {
	// Buckets[i] counts reuses with distance < ReuseBucketBounds[i] (and ≥
	// the previous bound); the last entry counts distances beyond every
	// bound.
	Buckets []float64
	// LastInv counts first calls never repeated within their OS invocation
	// (the paper's "Last Inv" column).
	LastInv float64
	// Routines are the tracked routine IDs (the most frequently invoked).
	Routines []program.RoutineID
}

// TopRoutines returns the n most frequently invoked routines.
func TopRoutines(p *program.Program, n int) []program.RoutineID {
	ids := make([]program.RoutineID, 0, p.NumRoutines())
	for i := range p.Routines {
		if p.Routines[i].Invocations > 0 {
			ids = append(ids, program.RoutineID(i))
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		wa, wb := p.Routine(ids[a]).Invocations, p.Routine(ids[b]).Invocations
		if wa != wb {
			return wa > wb
		}
		return ids[a] < ids[b]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

// TemporalReuse measures Figure 7 over a trace for the given routines:
// statistics are kept within an OS invocation and reset across invocations.
// The result is normalised to percentages.
func TemporalReuse(t *trace.Trace, routines []program.RoutineID) ReuseStats {
	st := ReuseStats{
		Buckets:  make([]float64, len(ReuseBucketBounds)+1),
		Routines: routines,
	}
	tracked := make(map[program.BlockID]int, len(routines))
	for i, r := range routines {
		tracked[t.OS.Routine(r).Entry] = i
	}
	lastPos := make([]int64, len(routines))
	inInv := false
	var words int64
	resetInv := func() {
		for i := range lastPos {
			if lastPos[i] >= 0 {
				st.LastInv++
			}
			lastPos[i] = -1
		}
	}
	for i := range lastPos {
		lastPos[i] = -1
	}
	// Walk in windows so header-only traces analyse in O(chunk) memory; all
	// accumulation state carries across window boundaries.
	r := t.Chunks()
	for {
		batch, err := r.Read()
		if err != nil || len(batch) == 0 {
			break
		}
		for _, e := range batch {
			switch {
			case e.IsBegin():
				inInv = true
			case e.IsEnd():
				resetInv()
				inInv = false
			case e.IsBlock() && e.Domain() == trace.DomainOS && inInv:
				b := e.Block()
				if ri, ok := tracked[b]; ok {
					if lastPos[ri] >= 0 {
						d := uint64(words - lastPos[ri])
						bi := len(ReuseBucketBounds)
						for j, bound := range ReuseBucketBounds {
							if d < bound {
								bi = j
								break
							}
						}
						st.Buckets[bi]++
					}
					lastPos[ri] = words
				}
				words += int64(trace.RefsOf(t.OS.Block(b).Size))
			}
		}
	}
	resetInv()
	var total float64
	for _, v := range st.Buckets {
		total += v
	}
	total += st.LastInv
	if total > 0 {
		for i := range st.Buckets {
			st.Buckets[i] = 100 * st.Buckets[i] / total
		}
		st.LastInv = 100 * st.LastInv / total
	}
	return st
}

// MergeReuse averages several normalised reuse results (the paper reports
// the average of the four workloads).
func MergeReuse(rs []ReuseStats) ReuseStats {
	if len(rs) == 0 {
		return ReuseStats{}
	}
	out := ReuseStats{Buckets: make([]float64, len(rs[0].Buckets))}
	for _, r := range rs {
		for i, v := range r.Buckets {
			out.Buckets[i] += v
		}
		out.LastInv += r.LastInv
	}
	n := float64(len(rs))
	for i := range out.Buckets {
		out.Buckets[i] /= n
	}
	out.LastInv /= n
	return out
}
