package metrics

// Conflict attribution, reproducing the paper's Section 3.1 analysis of the
// Figure 1 miss peaks: "the highest peak is caused by conflicts between the
// routines that handle the timer and those that perform multiplication and
// division", "the other high peak is caused by conflicts between the
// routines that perform user/system transitions and those that handle the
// beginning of system calls".
//
// For a given layout and cache geometry, every executed basic block maps to
// a range of cache sets. Two hot blocks of different routines that share a
// set conflict; the expected thrash between them is bounded by the smaller
// of their execution counts. Aggregating this bound over routine pairs
// ranks the conflicts a layout suffers — the automatable version of the
// paper's manual peak attribution.

import (
	"sort"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
)

// ConflictPair is one routine pair with an estimated conflict magnitude.
type ConflictPair struct {
	A, B program.RoutineID
	// Weight is the summed min-execution-count bound over the set-sharing
	// block pairs of the two routines.
	Weight uint64
}

// ConflictPairs ranks routine pairs by estimated cache conflict under the
// given layout and cache geometry, returning the top k pairs. Only executed
// blocks participate. Within-routine conflicts are skipped (the paper's
// peaks are between routines; self-conflicts of one routine are rare since
// routines are smaller than the cache).
func ConflictPairs(p *program.Program, l *layout.Layout, cfg cache.Config, k int) []ConflictPair {
	sets := cfg.NumSets()
	if sets <= 0 {
		return nil
	}
	type occupant struct {
		routine program.RoutineID
		weight  uint64
	}
	bySet := make([][]occupant, sets)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if b.Weight == 0 {
			continue
		}
		addr := l.Addr[bi]
		firstLine := addr / uint64(cfg.Line)
		lastLine := (addr + uint64(b.Size) - 1) / uint64(cfg.Line)
		for line := firstLine; line <= lastLine; line++ {
			set := int(line % uint64(sets))
			bySet[set] = append(bySet[set], occupant{b.Routine, b.Weight})
		}
	}
	agg := make(map[[2]program.RoutineID]uint64)
	for _, occ := range bySet {
		if len(occ) < 2 {
			continue
		}
		// Collapse per-routine weight within the set first, so a routine
		// with many blocks in the set is not double-counted.
		perRoutine := make(map[program.RoutineID]uint64, len(occ))
		for _, o := range occ {
			if o.weight > perRoutine[o.routine] {
				perRoutine[o.routine] = o.weight
			}
		}
		rs := make([]program.RoutineID, 0, len(perRoutine))
		for r := range perRoutine {
			rs = append(rs, r)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				wa, wb := perRoutine[rs[i]], perRoutine[rs[j]]
				m := wa
				if wb < wa {
					m = wb
				}
				agg[[2]program.RoutineID{rs[i], rs[j]}] += m
			}
		}
	}
	pairs := make([]ConflictPair, 0, len(agg))
	for key, w := range agg {
		pairs = append(pairs, ConflictPair{A: key[0], B: key[1], Weight: w})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Weight != pairs[j].Weight {
			return pairs[i].Weight > pairs[j].Weight
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}
