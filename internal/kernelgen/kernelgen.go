// Package kernelgen synthesizes the operating-system kernel used throughout
// the reproduction. The paper measured Concentrix 3.0 (a BSD 4.2-derived
// symmetric multiprocessor Unix) on an Alliant FX/8 with a hardware monitor;
// neither the binary nor the traces are obtainable, so we generate a kernel
// control-flow graph with the same measured statistical structure:
//
//   - ~1 MB of code of which only a small fraction is ever executed
//     (Table 1: 3.4-13.1% per workload, 18% union), the rest being
//     rarely-or-never-executed special-case code;
//   - four entry seeds (interrupt, page fault, syscall, other) that dispatch
//     to per-class handler routines (Section 3.2.1);
//   - highly deterministic transitions: most arcs have probability near 1 or
//     near 0 (Figure 3: 73.6% of arcs ≥ 0.99, 6.9% ≤ 0.01);
//   - call-free loops that are small (≤ ~300 bytes) and short-running
//     (Figure 4), and loops-with-calls that are large (median ~2 KB with
//     callees) but iterate ≤ ~10 times (Figure 5);
//   - a handful of tiny leaf routines invoked from everywhere (locks,
//     timers, state save/restore, TLB invalidation, block zeroing) carrying
//     the temporal locality of Figures 6-8.
//
// The generator is fully deterministic given Config.Seed.
package kernelgen

import (
	"fmt"
	"math/rand"
	"strings"

	"oslayout/internal/program"
	"oslayout/internal/synth"
)

// Config parameterises kernel synthesis.
type Config struct {
	// Seed seeds the deterministic random source.
	Seed int64
	// TotalCodeBytes is the target static kernel size; cold routines are
	// appended until the image reaches it. Default 940 KB, matching the
	// paper (TRFD+Make executes 122,710 bytes = 13.1% of the kernel).
	TotalCodeBytes int64
	// PoolScale scales the per-subsystem service routine pools. 1.0 gives
	// roughly the paper's ~600 executed routines across workloads; smaller
	// values give faster tests.
	PoolScale float64
}

// DefaultConfig returns the configuration used by all paper experiments.
func DefaultConfig() Config {
	return Config{Seed: 1995, TotalCodeBytes: 940 << 10, PoolScale: 1.0}
}

// DispatchInfo describes one workload-selectable dispatch point.
type DispatchInfo struct {
	// Block is the dispatch basic block.
	Block program.BlockID
	// ID is the dispatch identifier carried by the block.
	ID program.DispatchID
	// Targets names the handler selected by each out-arc, in arc order.
	Targets []string
}

// ArcOf returns the out-arc index whose handler has the given name.
func (d *DispatchInfo) ArcOf(target string) (int, error) {
	for i, t := range d.Targets {
		if t == target {
			return i, nil
		}
	}
	return 0, fmt.Errorf("kernelgen: dispatch has no target %q", target)
}

// Kernel is a synthesized operating system: the program plus the metadata
// workloads need to drive it.
type Kernel struct {
	Prog *program.Program
	// Dispatches maps seed-class dispatch names ("interrupt", "pagefault",
	// "syscall", "other") to their dispatch points.
	Dispatches map[string]*DispatchInfo
	// Routines maps routine names to IDs.
	Routines map[string]program.RoutineID
}

// RoutineName returns the name of routine r.
func (k *Kernel) RoutineName(r program.RoutineID) string { return k.Prog.Routine(r).Name }

// Build synthesizes a kernel. The result always passes Program.Validate;
// Build panics on internal description errors (a bug in this package).
func Build(cfg Config) *Kernel {
	if cfg.TotalCodeBytes == 0 {
		cfg.TotalCodeBytes = 940 << 10
	}
	if cfg.PoolScale == 0 {
		cfg.PoolScale = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := program.New("kernel")
	b := synth.NewBuilder(p, rng)
	k := &Kernel{Prog: p, Dispatches: make(map[string]*DispatchInfo)}

	describeKernel(b, k, cfg)

	// Append cold mass until the image reaches the target size: whole
	// routines that no executed path can reach (unusual drivers, panic and
	// debugging code, configuration paths). The image size is kept as a
	// running total of the blocks each routine adds.
	for i, size := 0, p.CodeSize(); size < cfg.TotalCodeBytes; i++ {
		first := p.NumBlocks()
		id := b.Decl(fmt.Sprintf("cold_tail%d", i))
		b.FillCold(id, 3+rng.Intn(24))
		for j := first; j < p.NumBlocks(); j++ {
			size += int64(p.Blocks[j].Size)
		}
	}

	b.CheckAllFilled()
	k.Routines = b.Names()

	// Intersperse the cold tail throughout the image: a real kernel mixes
	// rarely-used drivers, protocol modules and configuration code among
	// the hot subsystems, so executed code is scattered across the whole
	// address space (the paper's Figure 2) rather than packed at the front.
	var hot, coldTail []program.RoutineID
	for i := range p.Routines {
		if strings.HasPrefix(p.Routines[i].Name, "cold_tail") {
			coldTail = append(coldTail, program.RoutineID(i))
		} else {
			hot = append(hot, program.RoutineID(i))
		}
	}
	order := make([]program.RoutineID, 0, len(p.Routines))
	ci := 0
	for i, r := range hot {
		order = append(order, r)
		for want := len(coldTail) * (i + 1) / len(hot); ci < want; ci++ {
			order = append(order, coldTail[ci])
		}
	}
	order = append(order, coldTail[ci:]...)
	p.LinkOrder = order

	if err := p.Validate(); err != nil {
		panic("kernelgen: generated invalid program: " + err.Error())
	}
	return k
}
