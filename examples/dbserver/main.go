// dbserver: defining a custom workload through the public API.
//
// The paper notes it could not trace a database workload but that its Shell
// load resembles one through heavy system-call activity (Section 2.3). This
// example builds the database-like workload the authors could not measure: a
// transaction-processing mix dominated by read/write/lseek system calls with
// fsync bursts, network send/recv, and the disk interrupts they cause —
// then checks how well the paper's layout (built from the four *paper*
// workloads' averaged profile) transfers to it.
//
// Run with:
//
//	go run ./examples/dbserver
package main

import (
	"fmt"
	"log"

	"oslayout"
)

func main() {
	// A study over the paper's four workloads PLUS the custom one: the
	// paper's conclusion that "different workloads generally exercise the
	// same popular routines" predicts that a layout built from the paper
	// mix transfers to the new load.
	ws := append(oslayout.PaperWorkloads(), oslayout.OLTPWorkload())
	st, err := oslayout.NewStudy(oslayout.StudyOptions{
		Workloads: ws,
		Trace:     oslayout.TraceOptions{OSRefs: 1_000_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	const oltpIdx = 4

	// Layout built from the PAPER workloads only (drop OLTP from the
	// average) — the transfer experiment.
	var paperProfiles []*oslayout.Profile
	for i := 0; i < 4; i++ {
		paperProfiles = append(paperProfiles, st.Data[i].OSProfile)
	}
	avg, err := oslayout.AverageProfiles(paperProfiles)
	if err != nil {
		log.Fatal(err)
	}
	params := oslayout.DefaultPlacementParams(8 << 10)
	params.Name = "OptS-paper-profile"
	plan, err := st.OptimizeFrom(avg, params)
	if err != nil {
		log.Fatal(err)
	}

	cfg := oslayout.CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _, err := st.BuildStrategy("base", 0)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := st.Evaluate(oltpIdx, base, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ro, err := st.Evaluate(oltpIdx, plan.Layout, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("OLTP workload (never profiled for the layout):")
	fmt.Printf("  Base miss rate:          %.2f%%\n", 100*rb.Stats.MissRate())
	fmt.Printf("  OptS (paper profiles):   %.2f%%  (-%.0f%% misses)\n",
		100*ro.Stats.MissRate(),
		100*(1-float64(ro.Stats.TotalMisses())/float64(rb.Stats.TotalMisses())))

	// And the upper bound: a layout that did see OLTP's own profile.
	params.Name = "OptS-own-profile"
	own, err := st.OptimizeFrom(st.Data[oltpIdx].OSProfile, params)
	if err != nil {
		log.Fatal(err)
	}
	rown, err := st.Evaluate(oltpIdx, own.Layout, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  OptS (own profile):      %.2f%%  (-%.0f%% misses)\n",
		100*rown.Stats.MissRate(),
		100*(1-float64(rown.Stats.TotalMisses())/float64(rb.Stats.TotalMisses())))
	fmt.Println("\nThe paper-profile layout captures most of the benefit: the popular")
	fmt.Println("OS routines are shared across workloads, as the paper observes.")
}
