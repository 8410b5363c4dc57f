package serve

import (
	"encoding/json"
	"math"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/expt"
	"oslayout/internal/partition"
)

// FuzzParseSizes feeds arbitrary comma-separated text to ParseSizes, as
// the CLI's -sizes flag does. Nothing may panic. An accepted list must
// hold, for every non-empty part, its digits times its suffix's multiplier,
// positive and computed here without wrapping; and a list of such parts
// that all fit an int must be accepted.
func FuzzParseSizes(f *testing.F) {
	for _, s := range []string{
		"4k", "8192,1M", "2M,,4k", "0", "-4k", "+8", "4q", "", ",", "1g",
		"99999999999999m", "9223372036854775807", "8796093022207m", "0008k",
	} {
		f.Add(s)
	}
	mults := map[byte]uint64{'k': 1 << 10, 'K': 1 << 10, 'm': 1 << 20, 'M': 1 << 20}
	f.Fuzz(func(t *testing.T, s string) {
		parts := strings.Split(s, ",")
		got, err := ParseSizes(parts)
		var want []*big.Int
		fits := true
		for _, p := range parts {
			if p == "" {
				continue
			}
			v := suffixedValue(p, mults)
			if v == nil {
				if err == nil {
					t.Fatalf("ParseSizes(%q) accepted malformed part %q as %v", parts, p, got)
				}
				return
			}
			fits = fits && v.Sign() > 0 && v.Cmp(big.NewInt(math.MaxInt)) <= 0
			want = append(want, v)
		}
		if err != nil {
			if fits && len(want) > 0 {
				t.Fatalf("ParseSizes(%q) refused sizes that fit: %v", parts, err)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("ParseSizes(%q) = %v, want %d sizes", parts, got, len(want))
		}
		for i, v := range got {
			if v <= 0 || big.NewInt(int64(v)).Cmp(want[i]) != 0 {
				t.Fatalf("ParseSizes(%q)[%d] = %d, want %v", parts, i, v, want[i])
			}
		}
	})
}

// FuzzParseRefs feeds arbitrary text to ParseRefs, as the CLI's -refs
// flag does. Nothing may panic. An accepted count must be positive and
// equal its digits times its suffix's multiplier, computed here without
// wrapping; and a well-formed count that fits a uint64 must be accepted.
func FuzzParseRefs(f *testing.F) {
	for _, s := range []string{
		"400000", "3m", "1g", "1G", "0", "", "-1", "+5", "1t", "k",
		"18446744073709551615", "18446744073709551616", "17179869183g", "17179869184g",
	} {
		f.Add(s)
	}
	mults := map[byte]uint64{'k': 1 << 10, 'K': 1 << 10, 'm': 1 << 20, 'M': 1 << 20, 'g': 1 << 30, 'G': 1 << 30}
	maxU64 := new(big.Int).SetUint64(math.MaxUint64)
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseRefs(s)
		want := suffixedValue(s, mults)
		switch {
		case err != nil:
			if want != nil && want.Sign() > 0 && want.Cmp(maxU64) <= 0 {
				t.Fatalf("ParseRefs(%q) refused a count that fits: %v", s, err)
			}
		case want == nil:
			t.Fatalf("ParseRefs(%q) accepted a malformed count as %d", s, got)
		case got == 0 || new(big.Int).SetUint64(got).Cmp(want) != 0:
			t.Fatalf("ParseRefs(%q) = %d, want %v", s, got, want)
		}
	})
}

// suffixedValue is the reference reading of a size or count: one or more
// ASCII digits, then at most one suffix from mults, whose multiplier scales
// the digits. It returns nil for any other text.
func suffixedValue(s string, mults map[byte]uint64) *big.Int {
	mult := uint64(1)
	if s != "" {
		if m, ok := mults[s[len(s)-1]]; ok {
			mult, s = m, s[:len(s)-1]
		}
	}
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return nil
	}
	v, _ := new(big.Int).SetString(s, 10)
	return v.Mul(v, new(big.Int).SetUint64(mult))
}

// FuzzJobSpec feeds arbitrary submissions to JobSpec.validate, decoded as
// the submit handler decodes them. validate must never panic. An accepted
// spec must validate a second time unchanged, so its defaults resolve once.
// Every cache of an accepted compare spec must build, at every parsed size,
// with the resolved line, associativity and partition, so an accepted spec
// never fails later on its geometry.
func FuzzJobSpec(f *testing.F) {
	for _, s := range badSpecs {
		f.Add(s)
	}
	for _, s := range []string{
		`{"experiments":["table2","fig15"],"refs":20000,"seed":7,"par":2}`,
		`{"experiments":["fig19"],"cpus":2,"stream":"on","chunk":4096}`,
		`{"compare":{"strategies":["base","opts"],"sizes":["4k","8k"],"detail":true},"refs":20000}`,
		`{"compare":{"strategies":["base","optl"],"sizes":["8192"],"line":64,"assoc":2},"cpus":3}`,
		`{"compare":{"strategies":["base"],"sizes":["8k"],"private":true},"cpus":2,"stream":"off","refs":20000}`,
		`{"compare":{"strategies":["base"],"sizes":["8k","16k"],"assoc":8,"partition":"static,os=6,app=2"}}`,
		`{"compare":{"strategies":["ch"],"sizes":["8k"],"assoc":4,"partition":"interval,every=4,grain=1"}}`,
	} {
		f.Add(s)
	}
	const budget = 1 << 30
	f.Fuzz(func(t *testing.T, body string) {
		var spec JobSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.validate(budget) != nil {
			return
		}
		resolved := cloneSpec(spec)
		if err := spec.validate(budget); err != nil {
			t.Fatalf("%s: accepted spec refused on revalidation: %v", body, err)
		}
		if !reflect.DeepEqual(spec, resolved) {
			t.Fatalf("%s: revalidation changed the spec from %+v to %+v", body, resolved, spec)
		}
		c := spec.Compare
		if c == nil {
			return
		}
		sizes, err := ParseSizes(c.Sizes)
		if err != nil {
			t.Fatalf("%s: accepted sizes do not parse: %v", body, err)
		}
		var part cache.Partition
		if c.Partition != "" {
			sp, err := partition.Parse(c.Partition)
			if err == nil {
				sp, err = sp.WithDefaults(c.Assoc)
			}
			if err != nil {
				t.Fatalf("%s: accepted partition does not resolve: %v", body, err)
			}
			part = sp.Initial()
		}
		for _, size := range sizes {
			if _, err := cache.New(cache.Config{Size: size, Line: c.Line, Assoc: c.Assoc, Part: part}); err != nil {
				t.Fatalf("%s: accepted cache of %d bytes does not build: %v", body, size, err)
			}
		}
	})
}

// cloneSpec returns a deep copy of spec.
func cloneSpec(spec JobSpec) JobSpec {
	spec.Experiments = slices.Clone(spec.Experiments)
	if spec.Compare != nil {
		c := *spec.Compare
		c.Strategies, c.Sizes = slices.Clone(c.Strategies), slices.Clone(c.Sizes)
		spec.Compare = &c
	}
	return spec
}

// FuzzShardSpec feeds arbitrary shard specs to a worker's admission checks,
// decoded as the /api/shard handler decodes them. Validation must never
// panic. An accepted shard sits inside its decomposition and names work
// its job carries: an experiment the job lists, or a compare mask the
// job's grid accepts, so an admitted shard never fails later on one.
func FuzzShardSpec(f *testing.F) {
	for _, s := range badShards {
		f.Add(s)
	}
	for _, s := range []string{
		`{"job":{"experiments":["table2","fig15"],"refs":20000},"index":1,"of":2,"experiment":"fig15"}`,
		`{"job":{"compare":{"strategies":["base","opts"],"sizes":["4k","8k"]},"refs":20000},"index":3,"of":4,"shard":{"workloads":[3],"strategies":[0,1]}}`,
		`{"job":{"compare":{"strategies":["base"],"sizes":["8k"],"private":true},"cpus":2,"refs":20000},"index":7,"of":8,"shard":{"workloads":[3],"strategies":[0],"cpus":[1]}}`,
		`{"job":{"compare":{"strategies":["base","ch"],"sizes":["8k"]},"cpus":3},"index":0,"of":1,"shard":{}}`,
	} {
		f.Add(s)
	}
	const budget = 1 << 30
	nw := len(oslayout.PaperWorkloads())
	f.Fuzz(func(t *testing.T, body string) {
		var sp ShardSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil || sp.Job.validate(budget) != nil || sp.validate() != nil {
			return
		}
		if sp.Index < 0 || sp.Index >= sp.Of {
			t.Fatalf("%s: accepted shard %d of %d", body, sp.Index, sp.Of)
		}
		c := sp.Job.Compare
		if c == nil {
			if !slices.Contains(sp.Job.Experiments, sp.Experiment) || !expt.Has(sp.Experiment) {
				t.Fatalf("%s: accepted experiment %q the job does not list", body, sp.Experiment)
			}
			return
		}
		if _, _, _, err := sp.Shard.Select(nw, len(c.Strategies), max(sp.Job.Cpus, 1), c.Private); err != nil {
			t.Fatalf("%s: accepted mask fails the grid check: %v", body, err)
		}
	})
}
