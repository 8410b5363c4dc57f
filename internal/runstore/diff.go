package runstore

import (
	"fmt"
	"sort"
	"strings"
)

// DiffOptions tunes the noise-band model. Digest drift is never subject to
// a band — identical inputs must render identical bytes, so any drift is a
// correctness regression and a hard failure.
type DiffOptions struct {
	// FloorMs is the absolute phase-timing band floor in milliseconds:
	// deltas inside it are never regressions, however small the baseline.
	FloorMs float64
	// RelBand is the relative phase-timing band: a phase regresses only
	// past max(FloorMs, RelBand * baseline) milliseconds of slowdown.
	RelBand float64
	// SpreadMult scales the recorded repetition spread (max-min) of a
	// benchmark sample into its band; RelFloor is the band's relative
	// floor so a suspiciously tight spread does not gate on noise.
	SpreadMult float64
	// RelFloor is the minimum benchmark band as a fraction of the baseline
	// median.
	RelFloor float64
}

// DefaultDiffOptions is the gate's noise model: generous enough not to
// flake on shared CI runners, tight enough to catch a real 2x slowdown.
var DefaultDiffOptions = DiffOptions{
	FloorMs:    250,
	RelBand:    0.5,
	SpreadMult: 3,
	RelFloor:   0.10,
}

func (o DiffOptions) withDefaults() DiffOptions {
	d := DefaultDiffOptions
	if o.FloorMs > 0 {
		d.FloorMs = o.FloorMs
	}
	if o.RelBand > 0 {
		d.RelBand = o.RelBand
	}
	if o.SpreadMult > 0 {
		d.SpreadMult = o.SpreadMult
	}
	if o.RelFloor > 0 {
		d.RelFloor = o.RelFloor
	}
	return d
}

// DigestDelta is one result whose digest differs between runs, or exists in
// only one of them.
type DigestDelta struct {
	Name   string `json:"name"`
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	Status string `json:"status"` // "changed", "only_a", "only_b"
}

// CellDelta is one grid cell's miss-rate movement. Informational: a real
// rate change surfaces as digest drift first, so cells explain rather than
// gate.
type CellDelta struct {
	Cell  Cell    `json:"cell"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
}

// PhaseDelta compares one phase's aggregate wall time against the band.
type PhaseDelta struct {
	Name    string  `json:"name"`
	AMillis float64 `json:"a_millis"`
	BMillis float64 `json:"b_millis"`
	// BandMillis is the allowed slowdown before the phase regresses.
	BandMillis float64 `json:"band_millis"`
	Regressed  bool    `json:"regressed"`
}

// BenchDelta compares one benchmark's medians, in the baseline sample's
// unit, against the spread-derived band.
type BenchDelta struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit,omitempty"`
	AMedian float64 `json:"a_median"`
	BMedian float64 `json:"b_median"`
	// Band is how far B's median may move the worse way before it regresses.
	Band      float64 `json:"band"`
	Regressed bool    `json:"regressed"`
}

// Diff is the full comparison of two archived runs, A being the baseline.
type Diff struct {
	A string `json:"a"`
	B string `json:"b"`
	// Comparable is false when provenance differs (cross-host, cross-
	// toolchain); timing deltas are then reported but never gated.
	Comparable     bool   `json:"comparable"`
	ProvenanceNote string `json:"provenance_note,omitempty"`
	// DigestDrift lists results whose rendered bytes changed — a hard
	// correctness failure regardless of provenance.
	DigestDrift []DigestDelta `json:"digest_drift,omitempty"`
	Cells       []CellDelta   `json:"cells,omitempty"`
	Phases      []PhaseDelta  `json:"phases,omitempty"`
	Bench       []BenchDelta  `json:"bench,omitempty"`
	Notes       []string      `json:"notes,omitempty"`
	// Regressed is the gate verdict: digest drift, or a timing/bench delta
	// beyond its band on comparable provenance.
	Regressed bool `json:"regressed"`
}

// Compare diffs run B against baseline run A under the given noise model.
func Compare(a, b *Record, opt DiffOptions) *Diff {
	opt = opt.withDefaults()
	d := &Diff{A: a.ID, B: b.ID}
	d.Comparable, d.ProvenanceNote = a.Manifest.Provenance.ComparableTo(b.Manifest.Provenance)
	if d.ProvenanceNote != "" && !d.Comparable {
		d.Notes = append(d.Notes, "timing deltas annotated only: "+d.ProvenanceNote)
	}
	if merged(a) || merged(b) {
		// Coordinator-merged runs gate digest drift like any other — the
		// merge is bit-identical to a single-process run — so incomparable
		// timings never silently weaken the correctness gate.
		d.Notes = append(d.Notes, "coordinator-merged run in the diff; digest drift still gates")
	}

	// Digest drift: the correctness axis. Changed digests for a result name
	// present in both runs always regress; one-sided results are noted (the
	// runs measured different things) but do not gate.
	names := map[string]bool{}
	for n := range a.Manifest.Results {
		names[n] = true
	}
	for n := range b.Manifest.Results {
		names[n] = true
	}
	for _, n := range sortedKeys(names) {
		da, inA := a.Manifest.Results[n]
		db, inB := b.Manifest.Results[n]
		switch {
		case inA && inB && da != db:
			d.DigestDrift = append(d.DigestDrift, DigestDelta{Name: n, A: da, B: db, Status: "changed"})
			d.Regressed = true
		case inA && !inB:
			d.DigestDrift = append(d.DigestDrift, DigestDelta{Name: n, A: da, Status: "only_a"})
		case inB && !inA:
			d.DigestDrift = append(d.DigestDrift, DigestDelta{Name: n, B: db, Status: "only_b"})
		}
	}

	// Miss-rate cells: match on (strategy, workload, size, cpu) and report
	// every moved cell.
	cellsA := map[string]Cell{}
	for _, c := range a.Cells {
		cellsA[c.Key()] = c
	}
	for _, c := range b.Cells {
		ca, ok := cellsA[c.Key()]
		if !ok {
			continue
		}
		if c.MissRate != ca.MissRate {
			d.Cells = append(d.Cells, CellDelta{Cell: c, A: ca.MissRate, B: c.MissRate, Delta: c.MissRate - ca.MissRate})
		}
	}
	sort.Slice(d.Cells, func(i, j int) bool { return d.Cells[i].Cell.Key() < d.Cells[j].Cell.Key() })

	// Phase timings: aggregate repeated spans by name, band per phase.
	pa := sumPhases(a)
	pb := sumPhases(b)
	for _, name := range sortedKeys(union(pa, pb)) {
		ams, inA := pa[name]
		bms, inB := pb[name]
		if !inA || !inB {
			continue
		}
		band := opt.RelBand * ams
		if band < opt.FloorMs {
			band = opt.FloorMs
		}
		pd := PhaseDelta{Name: name, AMillis: ams, BMillis: bms, BandMillis: band}
		if d.Comparable && bms > ams+band {
			pd.Regressed = true
			d.Regressed = true
		}
		d.Phases = append(d.Phases, pd)
	}

	// Benchmarks: band from the recorded repetition spread of both runs,
	// applied in the direction in which the baseline's metric gets worse.
	benchA := map[string]BenchSample{}
	for _, s := range a.Bench {
		benchA[s.Name] = s
	}
	for _, sb := range b.Bench {
		sa, ok := benchA[sb.Name]
		if !ok {
			continue
		}
		band := sa.Spread()
		if sp := sb.Spread(); sp > band {
			band = sp
		}
		band *= opt.SpreadMult
		if floor := opt.RelFloor * sa.Median; band < floor {
			band = floor
		}
		bd := BenchDelta{Name: sb.Name, Unit: sa.Unit, AMedian: sa.Median, BMedian: sb.Median, Band: band}
		worse := sb.Median > sa.Median+band
		if sa.Better == "higher" {
			worse = sb.Median < sa.Median-band
		}
		if d.Comparable && worse {
			bd.Regressed = true
			d.Regressed = true
		}
		d.Bench = append(d.Bench, bd)
	}
	sort.Slice(d.Bench, func(i, j int) bool { return d.Bench[i].Name < d.Bench[j].Name })

	return d
}

// merged reports whether a record came out of a coordinator merge.
func merged(r *Record) bool {
	return r.Manifest.Provenance != nil && r.Manifest.Provenance.Merged
}

func sumPhases(r *Record) map[string]float64 {
	out := map[string]float64{}
	for _, p := range r.Manifest.Phases {
		out[p.Name] += p.Millis
	}
	return out
}

func union(a, b map[string]float64) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render formats the diff as the CLI's human-readable report.
func (d *Diff) Render() string {
	var sb strings.Builder
	short := func(id string) string {
		if len(id) > 12 {
			return id[:12]
		}
		return id
	}
	fmt.Fprintf(&sb, "diff %s (baseline) .. %s\n", short(d.A), short(d.B))
	if d.ProvenanceNote != "" {
		fmt.Fprintf(&sb, "provenance: %s\n", d.ProvenanceNote)
	}
	if len(d.DigestDrift) == 0 {
		sb.WriteString("digests: identical\n")
	} else {
		fmt.Fprintf(&sb, "digests: %d differ\n", len(d.DigestDrift))
		for _, dd := range d.DigestDrift {
			switch dd.Status {
			case "changed":
				fmt.Fprintf(&sb, "  DRIFT %-12s %s -> %s\n", dd.Name, short(dd.A), short(dd.B))
			case "only_a":
				fmt.Fprintf(&sb, "  only in baseline: %s\n", dd.Name)
			case "only_b":
				fmt.Fprintf(&sb, "  only in candidate: %s\n", dd.Name)
			}
		}
	}
	if len(d.Cells) > 0 {
		fmt.Fprintf(&sb, "miss-rate cells moved: %d\n", len(d.Cells))
		for _, c := range d.Cells {
			cpu := ""
			if c.Cell.CPU >= 0 {
				cpu = fmt.Sprintf(" cpu%d", c.Cell.CPU)
			}
			fmt.Fprintf(&sb, "  %-10s %-12s %6dB%s  %.4f -> %.4f (%+.4f)\n",
				c.Cell.Strategy, c.Cell.Workload, c.Cell.SizeBytes, cpu, c.A, c.B, c.Delta)
		}
	}
	for _, p := range d.Phases {
		mark := "ok"
		if p.Regressed {
			mark = "REGRESSED"
		}
		fmt.Fprintf(&sb, "phase %-24s %8.1fms -> %8.1fms (band %.1fms) %s\n",
			p.Name, p.AMillis, p.BMillis, p.BandMillis, mark)
	}
	for _, b := range d.Bench {
		mark := "ok"
		if b.Regressed {
			mark = "REGRESSED"
		}
		fmt.Fprintf(&sb, "bench %-32s %12.4g -> %12.4g %s (band %.4g) %s\n",
			b.Name, b.AMedian, b.BMedian, b.Unit, b.Band, mark)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	if d.Regressed {
		sb.WriteString("verdict: REGRESSED\n")
	} else {
		sb.WriteString("verdict: pass\n")
	}
	return sb.String()
}
