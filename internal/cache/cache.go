// Package cache implements the set-associative instruction cache simulator
// used to evaluate layouts, with the miss classification the paper's
// analysis depends on: first-time (cold) misses, self-interference misses
// (the missing domain itself displaced the line) and cross-interference
// misses (the other domain displaced it). Replacement is LRU.
package cache

import (
	"fmt"
	"math/bits"

	"oslayout/internal/trace"
)

// Policy selects the replacement policy of set-associative caches.
type Policy uint8

const (
	// LRU replaces the least recently used way (the default; the policy
	// assumed throughout the paper's evaluation).
	LRU Policy = iota
	// RandomReplacement replaces a uniformly random way, using a
	// deterministic xorshift stream — an extension used by the ablation
	// experiments to check that the layout results do not depend on LRU.
	RandomReplacement
)

// String names the policy.
func (p Policy) String() string {
	if p == RandomReplacement {
		return "random"
	}
	return "LRU"
}

// Config describes one cache organisation.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// Line is the line (block) size in bytes.
	Line int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
	// Policy is the replacement policy; the zero value is LRU.
	Policy Policy
	// Part, when non-zero, way-partitions the cache between per-domain
	// regions (see Partition). Whether a cache is partitioned is fixed at
	// construction — the split itself stays mutable via SetPartition — and
	// the zero value leaves the cache on the classic unpartitioned access
	// paths, untouched.
	Part Partition
}

// String formats the organisation like "8KB/32B/direct-mapped".
func (c Config) String() string {
	way := fmt.Sprintf("%d-way", c.Assoc)
	if c.Assoc == 1 {
		way = "DM"
	}
	s := fmt.Sprintf("%dKB/%dB/%s", c.Size>>10, c.Line, way)
	if c.Policy != LRU {
		s += "/" + c.Policy.String()
	}
	if c.Part.Enabled() {
		s += "/" + c.Part.String()
	}
	return s
}

// Validate reports whether the organisation is realisable.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.Line <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache: non-positive parameter in %+v", c)
	case bits.OnesCount(uint(c.Line)) != 1:
		return fmt.Errorf("cache: line %d not a power of two", c.Line)
	case c.Line < trace.WordSize:
		// Also what keeps every line address below emptyTag.
		return fmt.Errorf("cache: line %d narrower than one %d-byte instruction word", c.Line, trace.WordSize)
	case c.Assoc > c.Size/c.Line:
		// Also what keeps line*assoc below from overflowing.
		return fmt.Errorf("cache: %d ways of %dB lines exceed size %d", c.Assoc, c.Line, c.Size)
	case c.Size%(c.Line*c.Assoc) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*assoc %d", c.Size, c.Line*c.Assoc)
	}
	if c.Part.Enabled() {
		return c.Part.Check(c.Assoc)
	}
	return nil
}

// NumSets returns the number of sets.
func (c Config) NumSets() int { return c.Size / (c.Line * c.Assoc) }

// MissClass classifies the outcome of one line access.
type MissClass uint8

const (
	// Hit: the line was resident.
	Hit MissClass = iota
	// ColdMiss: the line had never been referenced.
	ColdMiss
	// SelfMiss: the line was last displaced by the same domain.
	SelfMiss
	// CrossMiss: the line was last displaced by the other domain.
	CrossMiss
)

// String names the class.
func (m MissClass) String() string {
	switch m {
	case Hit:
		return "hit"
	case ColdMiss:
		return "cold"
	case SelfMiss:
		return "self"
	case CrossMiss:
		return "cross"
	default:
		return fmt.Sprintf("MissClass(%d)", uint8(m))
	}
}

// Stats accumulates per-domain reference and miss counts. Index by
// trace.Domain.
type Stats struct {
	Refs   [trace.NumDomains]uint64
	Misses [trace.NumDomains]uint64
	Cold   [trace.NumDomains]uint64
	Self   [trace.NumDomains]uint64
	Cross  [trace.NumDomains]uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	for d := 0; d < trace.NumDomains; d++ {
		s.Refs[d] += other.Refs[d]
		s.Misses[d] += other.Misses[d]
		s.Cold[d] += other.Cold[d]
		s.Self[d] += other.Self[d]
		s.Cross[d] += other.Cross[d]
	}
}

// TotalRefs returns references summed over domains.
func (s *Stats) TotalRefs() uint64 { return s.Refs[0] + s.Refs[1] }

// TotalMisses returns misses summed over domains.
func (s *Stats) TotalMisses() uint64 { return s.Misses[0] + s.Misses[1] }

// MissRate returns the total miss rate in [0,1].
func (s *Stats) MissRate() float64 {
	if s.TotalRefs() == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(s.TotalRefs())
}

// DomainMissRate returns the miss rate of one domain.
func (s *Stats) DomainMissRate(d trace.Domain) float64 {
	if s.Refs[d] == 0 {
		return 0
	}
	return float64(s.Misses[d]) / float64(s.Refs[d])
}

const (
	lineUnseen uint8 = iota
	lineEvictedByOS
	lineEvictedByApp
)

// emptyTag is the tag of an empty way. Line addresses are byte addresses
// divided by a line of at least one 4-byte word (Config.Validate), so they
// stay below 2^62 and never equal it: a tag compare alone decides a hit.
const emptyTag = ^uint64(0)

// histDenseMax bounds the dense history tables: line indices beyond it fall
// back to the overflow map. Both code images are a few MB, so in practice
// every line is dense.
const histDenseMax = 1 << 24

// Cache is one simulated instruction cache.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64 // sets-1 when the set count is a power of two
	numSets   uint64
	pow2      bool
	assoc     int
	// ways holds tags in LRU order per set: ways[set*assoc] is MRU. Empty
	// ways hold emptyTag and form the tail of each set (of each region,
	// when partitioned).
	ways []uint64
	// Eviction provenance for miss classification, dense per address
	// region: histLo covers kernel lines (low addresses), histHi covers
	// application lines (at trace.AppBase and above, re-based to 0), and
	// histOv is a lazily allocated overflow map for anything else. Both
	// images are bounded, so a map keyed by line address would be pure
	// overhead on every miss.
	histLo []uint8
	histHi []uint8
	histOv map[uint64]uint8
	// hiBase is the first line address of the application region.
	hiBase uint64
	// access is the geometry-specialised access implementation picked at
	// construction (direct-mapped vs set-associative, power-of-two vs
	// modulo set indexing), so the hot loop pays neither branch.
	access func(line uint64, d trace.Domain) MissClass
	// rng is the xorshift state for random replacement.
	rng uint64
	// onEvict, when set, observes every eviction. It sits on the miss path
	// only (never on the per-access hot path), so the nil default costs one
	// predictable branch per eviction and nothing per hit.
	onEvict func(victimLine uint64, set int, evictor trace.Domain)
	// Way-partitioning state (see partition.go): the active split, each
	// region's contiguous way sub-range, the owning region of each way
	// offset, the reserved line set, and repartitioning counters. All zero
	// on unpartitioned caches, which never read them.
	part     Partition
	regOff   [NumRegions]int
	regLen   [NumRegions]int
	regOfWay []Region
	resvLine []bool
	repart   RepartStats
	// Stats accumulates access outcomes.
	Stats Stats
}

// New returns an empty cache of the given organisation.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.NumSets()
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.Line))),
		setMask:   uint64(sets - 1),
		numSets:   uint64(sets),
		pow2:      bits.OnesCount(uint(sets)) == 1,
		assoc:     cfg.Assoc,
		ways:      make([]uint64, sets*cfg.Assoc),
		rng:       0x9E3779B97F4A7C15,
	}
	c.Flush()
	c.hiBase = uint64(trace.AppBase) >> c.lineShift
	switch {
	case cfg.Part.Enabled():
		c.installPartition(cfg.Part)
		if c.pow2 {
			c.access = c.accessPartPow2
		} else {
			c.access = c.accessPartMod
		}
	case cfg.Assoc == 1 && c.pow2:
		c.access = c.accessDMPow2
	case cfg.Assoc == 1:
		c.access = c.accessDMMod
	case c.pow2:
		c.access = c.accessAssocPow2
	default:
		c.access = c.accessAssocMod
	}
	return c, nil
}

// MustNew is New for configurations known valid at compile time.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache organisation.
func (c *Cache) Config() Config { return c.cfg }

// LineOf returns the line address containing byte address a.
func (c *Cache) LineOf(a uint64) uint64 { return a >> c.lineShift }

// AccessLine touches the line with the given line address (byte address
// divided by the line size) from the given domain, returning the outcome.
// Reference counting is the caller's concern (a block execution references
// each of its words once but touches each covered line once).
func (c *Cache) AccessLine(line uint64, d trace.Domain) MissClass {
	return c.access(line, d)
}

// AccessFunc returns the geometry-specialised access implementation, the
// same function AccessLine dispatches to. The batched replay engine
// (simulate.RunGroups) hoists it out of its inner loops to skip the method
// dispatch.
func (c *Cache) AccessFunc() func(line uint64, d trace.Domain) MissClass {
	return c.access
}

// Sets returns the number of cache sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// DMProbe is the read-only hit test of a direct-mapped power-of-two cache:
// the line's set holds it or not, and a hit changes no state, so a batch
// driver may test it inline and call the access function only on a miss.
// It aliases the cache's tag array, which Flush and Reset empty in place, so
// one probe stays valid for the cache's lifetime.
type DMProbe struct {
	tags []uint64
	mask uint64
}

// Hit reports whether the line is resident. The pointer receiver lets a
// driver test a probe held in a struct field without copying it, which
// would cost more than the compare.
func (p *DMProbe) Hit(line uint64) bool { return p.tags[line&p.mask] == line }

// Probe returns the cache's inline hit test; ok is false unless the cache
// is DirectMappedPow2.
func (c *Cache) Probe() (p DMProbe, ok bool) {
	if !c.DirectMappedPow2() {
		return DMProbe{}, false
	}
	return DMProbe{tags: c.ways, mask: c.setMask}, true
}

// MRUProbe is the read-only hit test of a cache's most-recently-used ways:
// a line in way 0 of its set hits without moving anything, under LRU,
// random replacement (a hit draws no random number) and any partition (way
// 0 heads the first region, so promoting within it is a no-op). A batch
// driver may therefore test it inline and call the access function only
// when it fails; a failed test says nothing, as the line may sit in a later
// way. Like DMProbe it aliases the tag array, which Flush, Reset and
// SetPartition rewrite in place, so one probe stays valid for the cache's
// lifetime.
type MRUProbe struct {
	tags  []uint64
	mask  uint64
	assoc uint64
}

// neverResident is the tag array of a probe that never hits: it holds only
// emptyTag, which no line address equals.
var neverResident = []uint64{emptyTag}

// Hit reports whether the line is resident in its set's way 0.
func (p *MRUProbe) Hit(line uint64) bool { return p.tags[(line&p.mask)*p.assoc] == line }

// MRUProbe returns the cache's inline MRU-way hit test. A cache whose set
// count is not a power of two gets a probe that never hits.
func (c *Cache) MRUProbe() MRUProbe {
	if !c.pow2 {
		return MRUProbe{tags: neverResident}
	}
	return MRUProbe{tags: c.ways, mask: c.setMask, assoc: uint64(c.assoc)}
}

// DirectMappedPow2 reports whether the cache is direct-mapped with a
// power-of-two set count. Two such caches with the same line size and
// nested set counts satisfy set-refinement inclusion: the bigger cache's
// sets partition the smaller one's, so the line most recently accessed in a
// small set is also the most recent in its refined set, and a hit in the
// smaller cache guarantees a hit in the bigger one. Since a direct-mapped
// hit changes no state and no statistics, batch drivers exploit this to
// skip the bigger caches outright.
func (c *Cache) DirectMappedPow2() bool { return c.assoc == 1 && c.pow2 }

// The four access specialisations: set-index computation (power-of-two mask
// vs modulo) is resolved at construction, and direct-mapped caches — the
// paper's headline configuration — skip the LRU way search and recency
// shifting entirely.

func (c *Cache) accessDMPow2(line uint64, d trace.Domain) MissClass {
	return c.accessDM(line, int(line&c.setMask), d)
}

func (c *Cache) accessDMMod(line uint64, d trace.Domain) MissClass {
	return c.accessDM(line, int(line%c.numSets), d)
}

func (c *Cache) accessAssocPow2(line uint64, d trace.Domain) MissClass {
	return c.accessAssoc(line, int(line&c.setMask), d)
}

func (c *Cache) accessAssocMod(line uint64, d trace.Domain) MissClass {
	return c.accessAssoc(line, int(line%c.numSets), d)
}

// accessDM is the direct-mapped fast path: one tag compare, no way shifting.
func (c *Cache) accessDM(line uint64, set int, d trace.Domain) MissClass {
	old := c.ways[set]
	if old == line {
		return Hit
	}
	class := c.classifyMiss(line, d)
	c.Stats.Misses[d]++
	if old != emptyTag {
		c.recordEviction(old, set, d)
	}
	c.ways[set] = line
	if class == ColdMiss {
		c.markSeenCold(line, d)
	}
	return class
}

// accessAssoc handles set-associative caches: ways are kept in LRU order
// per set, so a hit shifts the recency order and a miss victimises the last
// way (or a random one under random replacement).
func (c *Cache) accessAssoc(line uint64, set int, d trace.Domain) MissClass {
	base := set * c.assoc
	// Search ways in LRU-order slice.
	for i := 0; i < c.assoc; i++ {
		if c.ways[base+i] == line {
			// Move to front (MRU).
			for j := i; j > 0; j-- {
				c.ways[base+j] = c.ways[base+j-1]
			}
			c.ways[base] = line
			return Hit
		}
	}
	// Miss. Classify before filling.
	class := c.classifyMiss(line, d)
	c.Stats.Misses[d]++
	// Pick the victim way: LRU keeps ways in recency order so the last way
	// is the victim; random replacement picks any way (preferring empty
	// ones so warm-up matches LRU).
	victim := base + c.assoc - 1
	if c.cfg.Policy == RandomReplacement {
		victim = base
		for i := 0; i < c.assoc; i++ {
			if c.ways[base+i] == emptyTag {
				victim = base + i
				break
			}
			victim = base + int(c.nextRand()%uint64(c.assoc))
		}
	}
	if c.ways[victim] != emptyTag {
		c.recordEviction(c.ways[victim], victim, d)
	}
	// Shift the recency order down to the victim slot and install the new
	// line as MRU (harmless bookkeeping under random replacement).
	for j := victim - base; j > 0; j-- {
		c.ways[base+j] = c.ways[base+j-1]
	}
	c.ways[base] = line
	if class == ColdMiss {
		c.markSeenCold(line, d)
	}
	return class
}

// classifyMiss reads the line's eviction provenance and accumulates the
// matching per-class miss counter.
func (c *Cache) classifyMiss(line uint64, d trace.Domain) MissClass {
	switch c.histGet(line) {
	case lineUnseen:
		c.Stats.Cold[d]++
		return ColdMiss
	case lineEvictedByOS:
		if d == trace.DomainOS {
			c.Stats.Self[d]++
			return SelfMiss
		}
		c.Stats.Cross[d]++
		return CrossMiss
	default: // lineEvictedByApp
		if d == trace.DomainApp {
			c.Stats.Self[d]++
			return SelfMiss
		}
		c.Stats.Cross[d]++
		return CrossMiss
	}
}

// SetEvictionHook installs an observer invoked on every eviction with the
// displaced line, its set, and the domain whose fetch displaced it. Install
// before any access; pass nil to remove.
func (c *Cache) SetEvictionHook(h func(victimLine uint64, set int, evictor trace.Domain)) {
	c.onEvict = h
}

// recordEviction reports the displaced line in slot to the eviction hook and
// stores its evictor's domain.
func (c *Cache) recordEviction(victimLine uint64, slot int, d trace.Domain) {
	if c.onEvict != nil {
		c.onEvict(victimLine, slot/c.assoc, d)
	}
	ev := lineEvictedByOS
	if d == trace.DomainApp {
		ev = lineEvictedByApp
	}
	c.histSet(victimLine, ev)
}

// markSeenCold marks a freshly filled line as seen without fabricating an
// evictor: a line that is resident and later evicted gets its evictor
// recorded then. The accessing domain is a neutral placeholder — it is only
// read after an eviction overwrites it, except never. Callers invoke this
// only on cold misses: the classification already proved the entry is
// lineUnseen (the victim of the fill is a different line, so the entry
// cannot have changed in between), which spares a second history lookup on
// every conflict miss.
func (c *Cache) markSeenCold(line uint64, d trace.Domain) {
	ev := lineEvictedByOS
	if d == trace.DomainApp {
		ev = lineEvictedByApp
	}
	c.histSet(line, ev)
}

// histGet returns the eviction provenance of a line, lineUnseen by default.
func (c *Cache) histGet(line uint64) uint8 {
	if line < c.hiBase {
		if line < uint64(len(c.histLo)) {
			return c.histLo[line]
		}
		return lineUnseen
	}
	if idx := line - c.hiBase; idx < histDenseMax {
		if idx < uint64(len(c.histHi)) {
			return c.histHi[idx]
		}
		return lineUnseen
	}
	return c.histOv[line]
}

// histSet stores the eviction provenance of a line, growing the dense
// region tables on demand.
func (c *Cache) histSet(line uint64, v uint8) {
	if line < c.hiBase {
		if line >= uint64(len(c.histLo)) {
			c.histLo = growHist(c.histLo, line)
		}
		c.histLo[line] = v
		return
	}
	if idx := line - c.hiBase; idx < histDenseMax {
		if idx >= uint64(len(c.histHi)) {
			c.histHi = growHist(c.histHi, idx)
		}
		c.histHi[idx] = v
		return
	}
	if c.histOv == nil {
		c.histOv = make(map[uint64]uint8)
	}
	c.histOv[line] = v
}

// growHist doubles a dense history table until it covers idx.
func growHist(tab []uint8, idx uint64) []uint8 {
	n := uint64(1 << 12)
	for n <= idx {
		n *= 2
	}
	grown := make([]uint8, n)
	copy(grown, tab)
	return grown
}

// nextRand steps the xorshift64* stream.
func (c *Cache) nextRand() uint64 {
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Flush empties the cache but keeps history and statistics.
func (c *Cache) Flush() {
	for i := range c.ways {
		c.ways[i] = emptyTag
	}
}

// Reset empties the cache and clears history and statistics; a partitioned
// cache additionally returns to its construction-time split.
func (c *Cache) Reset() {
	c.Flush()
	clear(c.histLo)
	clear(c.histHi)
	c.histOv = nil
	c.Stats = Stats{}
	if c.part.Enabled() {
		c.installPartition(c.cfg.Part)
		c.repart = RepartStats{}
	}
}
