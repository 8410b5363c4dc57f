// Way partitioning: a runtime-variable split of each set's ways into
// per-domain regions, generalising the paper's Sep (statically split cache)
// and Resv (small reserved OS cache) hardware alternatives into one
// reconfigurable mechanism (Section 5.5). Ways are assigned to an OS
// region, an application region, a reserved region keyed on a line set, or
// left shared; the assignment can change mid-replay (the Graphite OCache
// evolveNaive/evolveDataIntensive scenario family) with either keep or
// invalidate semantics for the lines sitting in reassigned ways.
//
// Semantics follow hardware way-partitioning (Intel CAT style): lookup is
// global — a resident line hits no matter which region its way currently
// belongs to — while allocation and LRU promotion are confined to the
// region the miss routes to. Confining allocation is what isolates the
// domains; keeping lookup global is what makes "keep" reassignment
// meaningful: lines in reassigned ways stay findable and age out of their
// new region instead of vanishing.
package cache

import (
	"fmt"

	"oslayout/internal/trace"
)

// Region identifies one way-partition region. Regions occupy contiguous
// way sub-ranges of every set, in this declaration order.
type Region uint8

const (
	// RegionResv holds the reserved line set (OS fetches whose line is in
	// the set installed by SetReservedLines) — the Resv generalisation.
	RegionResv Region = iota
	// RegionOS holds all other OS fetches when the OS has dedicated ways.
	RegionOS
	// RegionApp holds application fetches when the app has dedicated ways.
	RegionApp
	// RegionShared holds every fetch whose domain has no dedicated ways.
	RegionShared
	// NumRegions is the number of regions.
	NumRegions = 4
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionResv:
		return "resv"
	case RegionOS:
		return "os"
	case RegionApp:
		return "app"
	case RegionShared:
		return "shared"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// Partition describes a way split: OSWays, AppWays and ResvWays are
// dedicated to their regions and the remaining ways are shared by whatever
// is left unrouted. The zero value means unpartitioned — the cache runs the
// classic access paths untouched.
type Partition struct {
	OSWays   int
	AppWays  int
	ResvWays int
}

// Enabled reports whether the partition dedicates any ways.
func (p Partition) Enabled() bool { return p != Partition{} }

// String formats the split like "os4+app3+resv1"; zero-way regions are
// omitted and the zero partition renders as "shared".
func (p Partition) String() string {
	if !p.Enabled() {
		return "shared"
	}
	s := ""
	add := func(name string, n int) {
		if n == 0 {
			return
		}
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("%s%d", name, n)
	}
	add("os", p.OSWays)
	add("app", p.AppWays)
	add("resv", p.ResvWays)
	return s
}

// Check reports whether the partition is realisable on a cache of the given
// associativity: no negative regions, no over-committed ways, and every
// domain left somewhere to allocate (a dedicated region or a shared way).
func (p Partition) Check(assoc int) error {
	if p.OSWays < 0 || p.AppWays < 0 || p.ResvWays < 0 {
		return fmt.Errorf("cache: negative way count in partition %s", p)
	}
	// Take the regions off the ways one at a time: the remainder stays in
	// [0, assoc], so no way count, however large, can overflow a sum.
	shared := assoc
	for _, n := range []int{p.OSWays, p.AppWays, p.ResvWays} {
		if n > shared {
			return fmt.Errorf("cache: partition %s over-commits the ways: it dedicates more than associativity %d", p, assoc)
		}
		shared -= n
	}
	if shared == 0 {
		if p.OSWays == 0 {
			return fmt.Errorf("cache: partition %s leaves OS fetches nowhere to allocate (no shared ways and no OS ways)", p)
		}
		if p.AppWays == 0 {
			return fmt.Errorf("cache: partition %s leaves application fetches nowhere to allocate (no shared ways and no app ways)", p)
		}
	}
	return nil
}

// RepartStats counts runtime repartitioning activity.
type RepartStats struct {
	// Events counts SetPartition calls that changed the way assignment.
	Events uint64
	// Migrated counts resident lines carried into a different region by a
	// keep-reassignment.
	Migrated uint64
	// Dropped counts resident lines invalidated because repartitioning
	// left them no way (always under invalidate; under keep only when the
	// growing regions had no room).
	Dropped uint64
}

// Partition returns the active way split (the zero value when the cache is
// unpartitioned).
func (c *Cache) Partition() Partition { return c.part }

// Repartitions returns the runtime repartitioning counters.
func (c *Cache) Repartitions() RepartStats { return c.repart }

// regionsOf lays the partition's regions out as contiguous way sub-ranges
// in Region order, returning each region's offset and length.
func (c *Cache) regionsOf(p Partition) (off, length [NumRegions]int) {
	length[RegionResv] = p.ResvWays
	length[RegionOS] = p.OSWays
	length[RegionApp] = p.AppWays
	length[RegionShared] = c.assoc - p.ResvWays - p.OSWays - p.AppWays
	o := 0
	for r := 0; r < NumRegions; r++ {
		off[r] = o
		o += length[r]
	}
	return off, length
}

// installPartition activates a (pre-validated) partition's region layout.
func (c *Cache) installPartition(p Partition) {
	c.part = p
	c.regOff, c.regLen = c.regionsOf(p)
	if c.regOfWay == nil {
		c.regOfWay = make([]Region, c.assoc)
	}
	for r := Region(0); r < NumRegions; r++ {
		for i := 0; i < c.regLen[r]; i++ {
			c.regOfWay[c.regOff[r]+i] = r
		}
	}
}

// SetReservedLines installs the line-address set routed to the reserved
// region (the paper keys it on the SelfConfFree block set). Replaces any
// previous set; nil or empty clears it, leaving the reserved region's ways
// idle. Lines already resident elsewhere stay where they are — only future
// allocations route to the reserved ways.
func (c *Cache) SetReservedLines(lines []uint64) error {
	if len(lines) == 0 {
		c.resvLine = nil
		return nil
	}
	var max uint64
	for _, l := range lines {
		if l > max {
			max = l
		}
	}
	if max >= histDenseMax {
		return fmt.Errorf("cache: reserved line %#x beyond the dense bound %#x (reserved sets hold kernel lines)", max, uint64(histDenseMax))
	}
	mark := make([]bool, max+1)
	for _, l := range lines {
		mark[l] = true
	}
	c.resvLine = mark
	return nil
}

// SetPartition reassigns ways between regions mid-replay. The cache must
// have been built partitioned (Config.Part non-zero): batch drivers hoist
// the access function at setup, so the partitioned-vs-classic choice is
// fixed at construction while the split itself stays mutable.
//
// Reassignment semantics: each region keeps its most-recently-used lines up
// to its new capacity, in recency order. Lines overflowing a shrinking
// region are, under keep, appended at the LRU end of regions that grew (in
// Region order) — they stay resident and findable, aging out of their new
// region unless re-referenced — and are invalidated under invalidate (or
// when no grown region has room). Eviction provenance is untouched either
// way: a dropped line re-misses with the classification its history already
// carries, and no observer eviction is reported (repartitioning is a
// reconfiguration, not a fetch).
func (c *Cache) SetPartition(p Partition, keep bool) error {
	if !c.part.Enabled() {
		return fmt.Errorf("cache: %s was built unpartitioned; partitioning is fixed at construction", c.cfg)
	}
	if !p.Enabled() {
		return fmt.Errorf("cache: cannot clear the partition at runtime (move the ways to a shared region instead)")
	}
	if err := p.Check(c.assoc); err != nil {
		return err
	}
	if p == c.part {
		return nil
	}
	newOff, newLen := c.regionsOf(p)

	var kept [NumRegions][]uint64
	for r := range kept {
		kept[r] = make([]uint64, 0, c.assoc)
	}
	pool := make([]uint64, 0, c.assoc)
	for set := 0; set < int(c.numSets); set++ {
		base := set * c.assoc
		for r := range kept {
			kept[r] = kept[r][:0]
		}
		pool = pool[:0]
		// Gather the whole set under the old layout before writing anything:
		// old and new region ranges overlap. Resident lines form a recency-
		// ordered prefix of each region.
		for r := Region(0); r < NumRegions; r++ {
			ob := base + c.regOff[r]
			for i := 0; i < c.regLen[r]; i++ {
				line := c.ways[ob+i]
				if line == emptyTag {
					break
				}
				if i < newLen[r] {
					kept[r] = append(kept[r], line)
				} else {
					pool = append(pool, line)
				}
			}
		}
		ph := 0
		for r := Region(0); r < NumRegions; r++ {
			nb := base + newOff[r]
			i := copy(c.ways[nb:nb+newLen[r]], kept[r])
			if keep {
				for i < newLen[r] && ph < len(pool) {
					c.ways[nb+i] = pool[ph]
					ph++
					c.repart.Migrated++
					i++
				}
			}
			for ; i < newLen[r]; i++ {
				c.ways[nb+i] = emptyTag
			}
		}
		c.repart.Dropped += uint64(len(pool) - ph)
	}
	c.installPartition(p)
	c.repart.Events++
	return nil
}

// routeRegion picks the region a missing line allocates into.
func (c *Cache) routeRegion(line uint64, d trace.Domain) Region {
	if d == trace.DomainOS {
		if c.regLen[RegionResv] > 0 && line < uint64(len(c.resvLine)) && c.resvLine[line] {
			return RegionResv
		}
		if c.regLen[RegionOS] > 0 {
			return RegionOS
		}
	} else if c.regLen[RegionApp] > 0 {
		return RegionApp
	}
	return RegionShared
}

// The partitioned access specialisations, picked at construction exactly
// like the classic four, so unpartitioned caches pay no new branch.

func (c *Cache) accessPartPow2(line uint64, d trace.Domain) MissClass {
	return c.accessPart(line, int(line&c.setMask), d)
}

func (c *Cache) accessPartMod(line uint64, d trace.Domain) MissClass {
	return c.accessPart(line, int(line%c.numSets), d)
}

// accessPart is accessAssoc under a way partition: the lookup scans the
// whole set (a line stays findable after its way is reassigned), a hit
// promotes within the region currently owning the hit way, and a miss
// allocates — and victimises — strictly inside the routed region.
func (c *Cache) accessPart(line uint64, set int, d trace.Domain) MissClass {
	base := set * c.assoc
	for i := 0; i < c.assoc; i++ {
		if c.ways[base+i] == line {
			rb := base + c.regOff[c.regOfWay[i]]
			for j := base + i; j > rb; j-- {
				c.ways[j] = c.ways[j-1]
			}
			c.ways[rb] = line
			return Hit
		}
	}
	class := c.classifyMiss(line, d)
	c.Stats.Misses[d]++
	r := c.routeRegion(line, d)
	rb := base + c.regOff[r]
	n := c.regLen[r]
	victim := rb + n - 1
	if c.cfg.Policy == RandomReplacement {
		victim = rb
		for i := 0; i < n; i++ {
			if c.ways[rb+i] == emptyTag {
				victim = rb + i
				break
			}
			victim = rb + int(c.nextRand()%uint64(n))
		}
	}
	if c.ways[victim] != emptyTag {
		c.recordEviction(c.ways[victim], victim, d)
	}
	for j := victim; j > rb; j-- {
		c.ways[j] = c.ways[j-1]
	}
	c.ways[rb] = line
	if class == ColdMiss {
		c.markSeenCold(line, d)
	}
	return class
}
