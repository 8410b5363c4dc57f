// tracestats: the Section 3 characterisation workflow on a single workload —
// what the operating system executes, how it is invoked, where its locality
// lives — using only the public API.
//
// Run with:
//
//	go run ./examples/tracestats [workload]
//
// where workload is one of TRFD_4, TRFD+Make, ARC2D+Fsck, Shell
// (default Shell).
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"oslayout"
	"oslayout/internal/program"
)

func main() {
	want := "Shell"
	if len(os.Args) > 1 {
		want = os.Args[1]
	}
	st, err := oslayout.NewStudy(oslayout.StudyOptions{
		Trace: oslayout.TraceOptions{OSRefs: 1_000_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	idx := -1
	for i, n := range st.WorkloadNames() {
		if n == want {
			idx = i
		}
	}
	if idx < 0 {
		log.Fatalf("unknown workload %q; have %v", want, st.WorkloadNames())
	}
	d := st.Data[idx]
	k := st.Kernel.Prog

	fmt.Printf("=== %s ===\n\n", d.Workload.Name)
	osRefs, appRefs := d.Trace.Refs()
	fmt.Printf("references: OS %d (%.0f%%), application %d\n",
		osRefs, 100*float64(osRefs)/float64(osRefs+appRefs), appRefs)

	// Executed code is read off the kernel with this workload's profile
	// applied to its weight fields.
	if err := st.WithProfile(d.OSProfile, func(k *oslayout.Program) error {
		fmt.Printf("executed OS code: %d bytes (%.1f%% of the kernel), %d of %d routines\n",
			k.ExecutedCodeSize(), 100*float64(k.ExecutedCodeSize())/float64(k.CodeSize()),
			k.ExecutedRoutines(), k.NumRoutines())
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	total := float64(d.OSProfile.TotalInvocations())
	fmt.Println("\nOS invocations by class (the paper's Table 1 row):")
	for c := 0; c < program.NumSeedClasses; c++ {
		fmt.Printf("  %-10s %6.1f%%\n", program.SeedClass(c),
			100*float64(d.OSProfile.ClassInv[c])/total)
	}

	// Most frequently invoked routines (the paper's Figure 6 skew).
	type ri struct {
		name string
		inv  uint64
	}
	var rs []ri
	var invTotal float64
	for r, inv := range d.OSProfile.RoutineInv {
		if inv > 0 {
			rs = append(rs, ri{k.Routines[r].Name, inv})
			invTotal += float64(inv)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].inv > rs[j].inv })
	fmt.Println("\nhottest routines (tiny leaves dominate, as in the paper):")
	for i := 0; i < 10 && i < len(rs); i++ {
		fmt.Printf("  %-16s %6.1f%% of invocations\n", rs[i].name, 100*float64(rs[i].inv)/invTotal)
	}

	// Where would the misses go? Evaluate Base vs OptS on the spot.
	cfg := oslayout.CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _, err := st.BuildStrategy("base", 0)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := st.Evaluate(idx, base, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	opts, _, err := st.BuildStrategy("opts", cfg.Size)
	if err != nil {
		log.Fatal(err)
	}
	ro, err := st.Evaluate(idx, opts, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n8KB direct-mapped cache: Base %.2f%% -> OptS %.2f%% miss rate\n",
		100*rb.Stats.MissRate(), 100*ro.Stats.MissRate())
}
