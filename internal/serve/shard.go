package serve

import (
	"fmt"
	"slices"

	"oslayout"
	"oslayout/internal/expt"
	"oslayout/internal/strategy"
)

// ShardSpec is the coordinator-to-worker unit of work: the whole job spec
// (so the worker derives the identical canonical grid) plus the slice of it
// this shard executes. Exactly one of Experiment (one registered experiment)
// or Shard (a compare-grid cell mask) is set.
type ShardSpec struct {
	// Job is the full job specification, validated on both ends; the
	// worker's study pool keys off its (refs, seed, stream, chunk), so
	// every shard of one grid replays from one pooled study.
	Job JobSpec `json:"job"`
	// Index and Of place the shard in the job's decomposition.
	Index int `json:"index"`
	Of    int `json:"of"`
	// Experiment names the one registered experiment this shard runs (for
	// experiment jobs).
	Experiment string `json:"experiment,omitempty"`
	// Shard masks the compare grid's cells (for compare jobs).
	Shard *expt.CompareShard `json:"shard,omitempty"`
}

// validate rejects a shard the validated job spec cannot carry: a bad
// shape, a place outside the decomposition, an experiment the job does not
// list, or a compare mask the job's grid would refuse. It runs before the
// worker leases a study, so every such shard gets a 400, which the
// coordinator treats as permanent.
func (sp *ShardSpec) validate() error {
	switch {
	case sp.Experiment != "" && sp.Shard != nil:
		return fmt.Errorf("shard names both an experiment and a compare mask")
	case sp.Experiment == "" && sp.Shard == nil:
		return fmt.Errorf("shard names no work")
	case sp.Experiment != "" && sp.Job.Compare != nil:
		return fmt.Errorf("experiment shard on a compare job")
	case sp.Shard != nil && sp.Job.Compare == nil:
		return fmt.Errorf("compare shard on an experiment job")
	case sp.Index < 0 || sp.Index >= sp.Of:
		return fmt.Errorf("shard index %d out of range [0,%d)", sp.Index, sp.Of)
	case sp.Experiment != "" && !slices.Contains(sp.Job.Experiments, sp.Experiment):
		return fmt.Errorf("shard experiment %q is not in the job", sp.Experiment)
	}
	if c := sp.Job.Compare; c != nil {
		nw := len(oslayout.PaperWorkloads())
		_, _, _, err := sp.Shard.Select(nw, len(c.Strategies), max(sp.Job.Cpus, 1), c.Private)
		return err
	}
	return nil
}

// ShardResult is one executed shard coming back: the rendered experiment
// result or the partial compare grid, plus the provenance and replay volume
// the coordinator aggregates into the merged run's manifest and metrics.
type ShardResult struct {
	Index int `json:"index"`
	// Host identifies the worker machine (multi-host provenance for the
	// merged archive record).
	Host   string  `json:"host"`
	Millis float64 `json:"millis"`
	// Refs and Events are the shard's replay volume, from the worker's
	// recorder.
	Refs   uint64 `json:"refs"`
	Events uint64 `json:"events"`
	// Results carries an experiment shard's rendered output.
	Results map[string]JobResult `json:"results,omitempty"`
	// Grid carries a compare shard's partial grid (full-dimension arrays
	// with only the masked cells filled).
	Grid *expt.Compare `json:"grid,omitempty"`
}

// decompose splits a validated job spec into shards. Experiment jobs shard
// per experiment. Compare jobs shard along the (workload × strategy) cell
// axis — and along the per-CPU-trace axis when the grid runs private
// per-CPU caches — packing cells of one row into a shard until the
// projected replay volume reaches shardRefs (0 packs nothing: one cell per
// shard, the finest grain). Shards are cross products (one workload × a
// strategy run, or one cell × a CPU run), so each maps onto one
// expt.CompareShard mask exactly and their union covers the grid.
func decompose(spec JobSpec, shardRefs uint64) ([]ShardSpec, error) {
	var shards []ShardSpec
	if spec.Compare == nil {
		for _, name := range spec.Experiments {
			one := spec
			one.Experiments = []string{name}
			shards = append(shards, ShardSpec{Job: one, Experiment: name})
		}
	} else {
		c := spec.Compare
		sizes, err := ParseSizes(c.Sizes)
		if err != nil {
			return nil, err
		}
		// A cell's replay volume: refs per size batch, one batch for
		// size-independent strategies, one per size otherwise; shared
		// multiprocessor cells replay the merged cpus-wide trace.
		cellCost := make([]uint64, len(c.Strategies))
		for k, name := range c.Strategies {
			s, err := strategy.Get(name)
			if err != nil {
				return nil, err
			}
			cost := spec.Refs
			if s.SizeDependent() {
				cost *= uint64(len(sizes))
			}
			if spec.Cpus > 1 && !c.Private {
				cost *= uint64(spec.Cpus)
			}
			cellCost[k] = cost
		}
		nw := len(oslayout.PaperWorkloads())
		cjob := spec // shards share the validated spec verbatim
		if c.Private {
			// Private grids shard per (cell, CPU group): the finest axis.
			for wi := 0; wi < nw; wi++ {
				for k := range c.Strategies {
					var cur []int
					var cost uint64
					for cpu := 0; cpu < spec.Cpus; cpu++ {
						cur = append(cur, cpu)
						cost += cellCost[k]
						if cost >= shardRefs {
							shards = append(shards, ShardSpec{Job: cjob, Shard: &expt.CompareShard{
								Workloads: []int{wi}, Strategies: []int{k}, CPUs: cur,
							}})
							cur, cost = nil, 0
						}
					}
					if len(cur) > 0 {
						shards = append(shards, ShardSpec{Job: cjob, Shard: &expt.CompareShard{
							Workloads: []int{wi}, Strategies: []int{k}, CPUs: cur,
						}})
					}
				}
			}
		} else {
			for wi := 0; wi < nw; wi++ {
				var cur []int
				var cost uint64
				for k := range c.Strategies {
					cur = append(cur, k)
					cost += cellCost[k]
					if cost >= shardRefs {
						shards = append(shards, ShardSpec{Job: cjob, Shard: &expt.CompareShard{
							Workloads: []int{wi}, Strategies: cur,
						}})
						cur, cost = nil, 0
					}
				}
				if len(cur) > 0 {
					shards = append(shards, ShardSpec{Job: cjob, Shard: &expt.CompareShard{
						Workloads: []int{wi}, Strategies: cur,
					}})
				}
			}
		}
	}
	for i := range shards {
		shards[i].Index, shards[i].Of = i, len(shards)
	}
	return shards, nil
}
