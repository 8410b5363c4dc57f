// Quickstart: build the synthetic study, construct the Base, Chang-Hwu and
// OptS kernel layouts, and compare instruction miss rates on the paper's
// reference cache (8 KB direct-mapped, 32-byte lines).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"oslayout"
)

func main() {
	fmt.Println("building study (kernel + 4 workload traces + profiles)...")
	st, err := oslayout.NewStudy(oslayout.StudyOptions{
		Trace: oslayout.TraceOptions{OSRefs: 1_000_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	kp := st.Kernel.Prog
	fmt.Printf("kernel: %d routines, %d basic blocks, %d KB code\n\n",
		kp.NumRoutines(), kp.NumBlocks(), kp.CodeSize()>>10)

	cfg := oslayout.CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _, err := st.BuildStrategy("base", 0)
	if err != nil {
		log.Fatal(err)
	}
	ch, _, err := st.BuildStrategy("ch", 0)
	if err != nil {
		log.Fatal(err)
	}
	opts, plan, err := st.BuildStrategy("opts", cfg.Size)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OptS plan: %d sequences, SelfConfFree area %d blocks / %d bytes\n\n",
		len(plan.Sequences), len(plan.SelfConfFree), plan.SCFBytes)

	fmt.Printf("%-12s %8s %8s %8s   %s\n", "workload", "Base", "C-H", "OptS", "OptS vs Base")
	for i, name := range st.WorkloadNames() {
		rb, err := st.Evaluate(i, base, nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		rc, err := st.Evaluate(i, ch, nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		ro, err := st.Evaluate(i, opts, nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %7.2f%% %7.2f%% %7.2f%%   -%.0f%% misses\n",
			name,
			100*rb.Stats.MissRate(), 100*rc.Stats.MissRate(), 100*ro.Stats.MissRate(),
			100*(1-float64(ro.Stats.TotalMisses())/float64(rb.Stats.TotalMisses())))
	}
	fmt.Println("\n(paper: OptS removes 31-86% of the total misses across organisations)")
}
