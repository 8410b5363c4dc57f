package oslayout_test

// Runnable godoc examples for the public API. They use a reduced trace
// length so `go test` stays fast; outputs are deterministic.

import (
	"fmt"
	"log"

	"oslayout"
)

// smallOpts keeps examples fast while exercising the full pipeline.
func smallOpts() oslayout.StudyOptions {
	return oslayout.StudyOptions{
		Kernel: oslayout.KernelConfig{Seed: 1995, TotalCodeBytes: 300 << 10, PoolScale: 0.4},
		Trace:  oslayout.TraceOptions{OSRefs: 250_000},
	}
}

// ExampleNewStudy builds the full pipeline and reports what was captured.
func ExampleNewStudy() {
	st, err := oslayout.NewStudy(smallOpts())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workloads:", len(st.Data))
	fmt.Println("first:", st.WorkloadNames()[0])
	// Output:
	// workloads: 4
	// first: TRFD_4
}

// ExampleStudy_BuildStrategy optimises the kernel layout with the paper's
// OptS strategy and shows that it beats the original layout on the paper's
// reference cache.
func ExampleStudy_BuildStrategy() {
	st, err := oslayout.NewStudy(smallOpts())
	if err != nil {
		log.Fatal(err)
	}
	cfg := oslayout.CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _, err := st.BuildStrategy("base", 0)
	if err != nil {
		log.Fatal(err)
	}
	opts, _, err := st.BuildStrategy("opts", cfg.Size)
	if err != nil {
		log.Fatal(err)
	}
	for i := range st.Data {
		rb, err := st.Evaluate(i, base, nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		ro, err := st.Evaluate(i, opts, nil, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(st.WorkloadNames()[i], "improves:",
			ro.Stats.TotalMisses() < rb.Stats.TotalMisses())
	}
	// Output:
	// TRFD_4 improves: true
	// TRFD+Make improves: true
	// ARC2D+Fsck improves: true
	// Shell improves: true
}

// ExampleStudy_Optimize shows custom placement parameters: the OptL variant
// with loop extraction.
func ExampleStudy_Optimize() {
	st, err := oslayout.NewStudy(smallOpts())
	if err != nil {
		log.Fatal(err)
	}
	params := oslayout.DefaultPlacementParams(8 << 10)
	params.Name = "OptL"
	params.LoopExtract = true
	plan, err := st.Optimize(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layout:", plan.Layout.Name)
	fmt.Println("loop area populated:", len(plan.LoopArea) > 0)
	fmt.Println("valid:", plan.Layout.Validate() == nil)
	// Output:
	// layout: OptL
	// loop area populated: true
	// valid: true
}
