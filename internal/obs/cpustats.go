package obs

// CPUStats is the per-CPU extension of the conflict-attribution layer for
// shared-cache multiprocessor replay (simulate.RunShared, whose per-CPU
// books observer feeds it): it splits references and misses by fetching
// CPU, and attributes every eviction to the (installer CPU, evictor CPU)
// pair — the destructive-interference matrix — while counting
// constructive sharing: hits on lines a sibling CPU already fetched (the
// shared kernel image acting as a cross-CPU prefetcher).
//
// The installer tables are the per-CPU analogue of the cache's dense
// eviction-provenance history: one byte per line address recording which
// CPU last installed the line, in two tables split at the application
// image's first line (trace.AppBase / line size), so the 16 MiB gap
// between the kernel and the application image costs nothing. Lookups
// happen only for resident lines (on hits and on eviction victims), and
// every install goes through Install, so an attribution lookup always
// finds a valid entry — which is why the eviction matrix sums exactly to
// the eviction count, with no "unknown" bucket.

import "oslayout/internal/trace"

// noInstaller marks a line address never installed. It is never read for a
// resident line; it exists so a defensive lookup has a sentinel.
const noInstaller = 0xFF

// CPUStats accumulates the per-CPU split of one shared-cache replay.
type CPUStats struct {
	// NumCPUs is the CPU count of the merged trace.
	NumCPUs int
	// Refs[cpu][d] and Misses[cpu][d] split the replay by fetching CPU and
	// domain.
	Refs   [][trace.NumDomains]uint64
	Misses [][trace.NumDomains]uint64
	// Evictions[installer][evictor] counts lines installed by one CPU and
	// evicted by a fetch from another (or the same: the diagonal is
	// self-interference). Summed over all pairs it equals the replay's
	// total eviction count.
	Evictions [][]uint64
	// SharedHits[cpu][d] counts hits by cpu on lines installed by a
	// sibling CPU — cross-CPU constructive sharing. The OS column is the
	// paper-relevant one: kernel lines prefetched by sibling invocations.
	SharedHits [][trace.NumDomains]uint64

	// kernel holds the installers of the lines below appLine, app those of
	// the lines from appLine up, indexed from appLine.
	kernel, app []uint8
	appLine     uint64
}

// NewCPUStats returns stats for a cpus-CPU replay (1 <= cpus <= 255) of a
// cache whose lines are line bytes.
func NewCPUStats(cpus, line int) *CPUStats {
	s := &CPUStats{
		NumCPUs:    cpus,
		Refs:       make([][trace.NumDomains]uint64, cpus),
		Misses:     make([][trace.NumDomains]uint64, cpus),
		Evictions:  make([][]uint64, cpus),
		SharedHits: make([][trace.NumDomains]uint64, cpus),
		appLine:    uint64(trace.AppBase / line),
	}
	for i := range s.Evictions {
		s.Evictions[i] = make([]uint64, cpus)
	}
	return s
}

// Ref accounts one block event's references to the fetching CPU.
func (s *CPUStats) Ref(cpu int, d trace.Domain, refs uint64) {
	s.Refs[cpu][d] += refs
}

// Hit accounts one cache hit: when the line's installer is a different CPU,
// the hit is a cross-CPU constructive share. (Hits elided at compile time —
// same-line repeats — are never reported, as for any HitObserver; a repeat
// is a same-event re-reference, so the undercount is confined to the rare
// elided access that straddles a CPU switch.)
func (s *CPUStats) Hit(line uint64, cpu int, d trace.Domain) {
	if in := s.installerOf(line); in != noInstaller && int(in) != cpu {
		s.SharedHits[cpu][d]++
	}
}

// Miss accounts one classified miss to the fetching CPU.
func (s *CPUStats) Miss(cpu int, d trace.Domain) {
	s.Misses[cpu][d]++
}

// Install records cpu as the installer of line (called on every miss, after
// the fill).
func (s *CPUStats) Install(line uint64, cpu int) {
	tab, i := s.table(line)
	if i >= uint64(len(*tab)) {
		*tab = grown(*tab, i)
	}
	(*tab)[i] = uint8(cpu)
}

// Evicted attributes one eviction of victim to the fetching CPU that caused
// it. Victims are resident by definition, so their installer is always
// recorded; a sentinel hit would mean the driver skipped an Install and is
// attributed to the evictor to keep the matrix total exact.
func (s *CPUStats) Evicted(victim uint64, evictor int) {
	in := evictor
	if v := s.installerOf(victim); v != noInstaller {
		in = int(v)
	}
	s.Evictions[in][evictor]++
}

// table locates line's entry: its installer table and its index there.
func (s *CPUStats) table(line uint64) (*[]uint8, uint64) {
	if line >= s.appLine {
		return &s.app, line - s.appLine
	}
	return &s.kernel, line
}

// installerOf returns the CPU that last installed line, or noInstaller.
func (s *CPUStats) installerOf(line uint64) uint8 {
	tab, i := s.table(line)
	if i < uint64(len(*tab)) {
		return (*tab)[i]
	}
	return noInstaller
}

// grown returns tab widened to cover index i, new entries noInstaller.
func grown(tab []uint8, i uint64) []uint8 {
	n := uint64(len(tab))
	if n == 0 {
		n = 1 << 16
	}
	for n <= i {
		n *= 2
	}
	g := make([]uint8, n)
	for j := copy(g, tab); j < len(g); j++ {
		g[j] = noInstaller
	}
	return g
}

// MissRate returns one CPU's total miss rate in [0,1].
func (s *CPUStats) MissRate(cpu int) float64 {
	refs := s.Refs[cpu][0] + s.Refs[cpu][1]
	if refs == 0 {
		return 0
	}
	return float64(s.Misses[cpu][0]+s.Misses[cpu][1]) / float64(refs)
}

// EvictionTotal sums the attribution matrix.
func (s *CPUStats) EvictionTotal() uint64 {
	var t uint64
	for _, row := range s.Evictions {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// CrossEvictions sums the off-diagonal of the attribution matrix: lines one
// CPU installed that a different CPU's fetch displaced.
func (s *CPUStats) CrossEvictions() uint64 {
	var t uint64
	for i, row := range s.Evictions {
		for j, v := range row {
			if i != j {
				t += v
			}
		}
	}
	return t
}

// SharedHitTotal sums cross-CPU constructive hits in domain d over CPUs.
func (s *CPUStats) SharedHitTotal(d trace.Domain) uint64 {
	var t uint64
	for _, h := range s.SharedHits {
		t += h[d]
	}
	return t
}
