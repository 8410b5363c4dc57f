// visualize: export the paper's Figure 9 routines (the timer subsystem) as
// a Graphviz flow graph, and print how the OptS layout fragments and
// interleaves them — the cross-routine sequences that define the paper's
// algorithm, made visible.
//
// Run with:
//
//	go run ./examples/visualize > timer.dot
//	dot -Tsvg timer.dot -o timer.svg    # if graphviz is installed
//
// The layout map is printed to stderr so stdout stays a valid .dot file.
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
	st, err := oslayout.NewStudy(oslayout.StudyOptions{
		Trace: oslayout.TraceOptions{OSRefs: 1_000_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	k := st.Kernel

	// The paper's Figure 9 example routines.
	names := []string{"push_hrtime", "read_hrc", "check_curtimer", "update_hrtimer", "hardclock"}
	var routines []program.RoutineID
	for _, n := range names {
		r, ok := k.Routines[n]
		if !ok {
			log.Fatalf("routine %q missing from the kernel", n)
		}
		routines = append(routines, r)
	}

	opts, _, err := st.BuildStrategy("opts", 8<<10)
	if err != nil {
		log.Fatal(err)
	}
	// Everything printed reads the averaged profile's weights (which blocks
	// executed, how often), so it runs with that profile applied.
	if err := st.WithProfile(st.AvgOS, func(*oslayout.Program) error {
		return report(k, routines, names, opts)
	}); err != nil {
		log.Fatal(err)
	}
}

// report writes the flow graph to stdout and the OptS placement of the
// routines to stderr.
func report(k *oslayout.Kernel, routines []program.RoutineID, names []string, opts *oslayout.Layout) error {
	// stdout: the flow graph (executed blocks only, like the paper's chart).
	if err := k.Prog.WriteDot(os.Stdout, program.DotOptions{
		Routines:       routines,
		HideUnexecuted: true,
	}); err != nil {
		return err
	}

	// stderr: where OptS placed these routines' blocks.
	fmt.Fprintln(os.Stderr, "\nOptS placement of the timer subsystem (address order):")
	type placed struct {
		addr    uint64
		routine string
		block   program.BlockID
		weight  uint64
	}
	var rows []placed
	want := map[program.RoutineID]bool{}
	for _, r := range routines {
		want[r] = true
	}
	for b := range k.Prog.Blocks {
		blk := &k.Prog.Blocks[b]
		if want[blk.Routine] && blk.Weight > 0 {
			rows = append(rows, placed{
				addr:    opts.Addr[b],
				routine: k.Prog.Routine(blk.Routine).Name,
				block:   program.BlockID(b),
				weight:  blk.Weight,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].addr < rows[j].addr })
	prevRoutine := ""
	transitions := 0
	for _, r := range rows {
		marker := " "
		if r.routine != prevRoutine {
			marker = "*" // a routine boundary in the placed order
			transitions++
			prevRoutine = r.routine
		}
		fmt.Fprintf(os.Stderr, "  %s %#08x  %-16s blk%-6d w=%d\n",
			marker, r.addr, r.routine, r.block, r.weight)
	}
	frags := opts.Fragments(true)
	fmt.Fprintf(os.Stderr, "\n%d blocks, %d routine transitions in address order\n", len(rows), transitions)
	for i, r := range routines {
		fmt.Fprintf(os.Stderr, "  %-16s split into %d fragment(s)\n", names[i], frags[r])
	}
	fmt.Fprintln(os.Stderr, "\n(the interleaving IS the paper's cross-routine sequence: caller blocks,")
	fmt.Fprintln(os.Stderr, " inlined callee hot blocks, then the caller's continuation)")
	return nil
}
