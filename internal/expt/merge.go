package expt

// Shard reassembly for distributed compare grids: a coordinator
// (internal/serve) runs RunCompareOpts on worker daemons with complementary
// CompareShard masks and merges the partial grids back into one. Every grid
// cell is an independent replay, so merging is pure cell copying — the only
// derived value, the private-mode aggregate rate, is recomputed by Finalize
// from the merged integer sums, in the same CPU order a whole-grid run uses.

import (
	"fmt"
	"slices"
)

// MergeShard copies the cells the shard mask designates from src into c.
// Both grids must have been produced by RunCompareOpts over the same
// specification (same strategies, sizes, geometry, workloads, CPU model);
// a nil shard copies every cell. The caller merges each shard under the
// mask it was dispatched with — copying is mask-driven, not value-driven,
// because a legitimate cell value can be zero. Grids whose arrays do not
// have the dimensions their headers give are rejected before any cell is
// copied. Call Finalize once after the last shard.
func (c *Compare) MergeShard(src *Compare, shard *CompareShard) error {
	if err := c.compatible(src); err != nil {
		return err
	}
	if err := c.checkShape(c); err != nil {
		return fmt.Errorf("expt: merged grid: %w", err)
	}
	if err := c.checkShape(src); err != nil {
		return fmt.Errorf("expt: shard grid: %w", err)
	}
	var mask CompareShard
	if shard != nil {
		mask = *shard
	}
	wsel, err := selection(mask.Workloads, len(c.Workloads), "workload")
	if err != nil {
		return err
	}
	ksel, err := selection(mask.Strategies, len(c.Strategies), "strategy")
	if err != nil {
		return err
	}
	csel, err := selection(mask.CPUs, c.CPUs, "cpu")
	if err != nil {
		return err
	}
	if mask.CPUs != nil && !c.Private {
		return fmt.Errorf("expt: per-CPU shards need private caches")
	}
	for si := range c.Sizes {
		for wi := range c.Workloads {
			if !wsel[wi] {
				continue
			}
			for k := range c.Strategies {
				if !ksel[k] {
					continue
				}
				if c.Private {
					for cpu := 0; cpu < c.CPUs; cpu++ {
						if !csel[cpu] {
							continue
						}
						c.CPURates[si][wi][k][cpu] = src.CPURates[si][wi][k][cpu]
						c.CPURefs[si][wi][k][cpu] = src.CPURefs[si][wi][k][cpu]
						c.CPUMisses[si][wi][k][cpu] = src.CPUMisses[si][wi][k][cpu]
					}
					continue
				}
				c.Rates[si][wi][k] = src.Rates[si][wi][k]
				if c.Attr != nil {
					c.Attr[si][wi][k] = src.Attr[si][wi][k]
				}
				if c.PartEvents != nil {
					c.PartEvents[si][wi][k] = src.PartEvents[si][wi][k]
					c.PartFinal[si][wi][k] = src.PartFinal[si][wi][k]
					c.PartSplit[si][wi][k] = src.PartSplit[si][wi][k]
				}
				if c.CPURates != nil {
					copy(c.CPURates[si][wi][k], src.CPURates[si][wi][k])
					c.Evictions[si][wi][k] = src.Evictions[si][wi][k]
					c.CrossEvictions[si][wi][k] = src.CrossEvictions[si][wi][k]
				}
			}
		}
	}
	return nil
}

// compatible verifies two grids describe the same specification, so a
// merge cannot silently interleave cells from different experiments.
func (c *Compare) compatible(o *Compare) error {
	switch {
	case !slices.Equal(c.Strategies, o.Strategies):
		return fmt.Errorf("expt: merging grids with different strategies (%v vs %v)", c.Strategies, o.Strategies)
	case !slices.Equal(c.Sizes, o.Sizes):
		return fmt.Errorf("expt: merging grids with different sizes (%v vs %v)", c.Sizes, o.Sizes)
	case c.Line != o.Line || c.Assoc != o.Assoc:
		return fmt.Errorf("expt: merging grids with different geometry (%dB/%d-way vs %dB/%d-way)", c.Line, c.Assoc, o.Line, o.Assoc)
	case !slices.Equal(c.Workloads, o.Workloads):
		return fmt.Errorf("expt: merging grids with different workloads (%v vs %v)", c.Workloads, o.Workloads)
	case c.Partition != o.Partition:
		return fmt.Errorf("expt: merging grids with different partitions (%q vs %q)", c.Partition, o.Partition)
	case c.CPUs != o.CPUs || c.Private != o.Private:
		return fmt.Errorf("expt: merging grids with different CPU models (%d/private=%v vs %d/private=%v)", c.CPUs, c.Private, o.CPUs, o.Private)
	}
	return nil
}

// checkShape verifies that every array MergeShard and Finalize index in g,
// a grid compatible with c, has the dimensions c's headers give. Which
// arrays those are follows c's mode: the per-CPU arrays of a private grid,
// otherwise Rates and whichever of the detail, partition and shared-cache
// arrays c carries.
func (c *Compare) checkShape(g *Compare) error {
	s, w, k, cpus := len(c.Sizes), len(c.Workloads), len(c.Strategies), c.CPUs
	var bad string
	switch {
	case !shape3(g.Rates, s, w, k):
		bad = "Rates"
	case c.Private:
		switch {
		case !shape4(g.CPURates, s, w, k, cpus):
			bad = "CPURates"
		case !shape4(g.CPURefs, s, w, k, cpus):
			bad = "CPURefs"
		case !shape4(g.CPUMisses, s, w, k, cpus):
			bad = "CPUMisses"
		}
	case c.Attr != nil && !shape3(g.Attr, s, w, k):
		bad = "Attr"
	case c.PartEvents != nil && !shape3(g.PartEvents, s, w, k):
		bad = "PartEvents"
	case c.PartEvents != nil && !shape3(g.PartFinal, s, w, k):
		bad = "PartFinal"
	case c.PartEvents != nil && !shape3(g.PartSplit, s, w, k):
		bad = "PartSplit"
	case c.CPURates != nil && !shape4(g.CPURates, s, w, k, cpus):
		bad = "CPURates"
	case c.CPURates != nil && !shape3(g.Evictions, s, w, k):
		bad = "Evictions"
	case c.CPURates != nil && !shape3(g.CrossEvictions, s, w, k):
		bad = "CrossEvictions"
	}
	if bad != "" {
		return fmt.Errorf("%s does not match the grid's %d sizes, %d workloads, %d strategies and %d CPUs", bad, s, w, k, cpus)
	}
	return nil
}

// shape3 reports whether a is an [s][w][k] grid.
func shape3[T any](a [][][]T, s, w, k int) bool {
	if len(a) != s {
		return false
	}
	for _, row := range a {
		if len(row) != w {
			return false
		}
		for _, cell := range row {
			if len(cell) != k {
				return false
			}
		}
	}
	return true
}

// shape4 reports whether a is an [s][w][k][cpus] grid.
func shape4[T any](a [][][][]T, s, w, k, cpus int) bool {
	if len(a) != s {
		return false
	}
	for _, plane := range a {
		if !shape3(plane, w, k, cpus) {
			return false
		}
	}
	return true
}
