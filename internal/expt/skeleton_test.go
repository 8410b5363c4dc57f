package expt

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"oslayout"
	"oslayout/internal/cfa"
	"oslayout/internal/core"
)

// TestSkeletonMemoMatchesFreshBuilds pins the strategy cache's skeleton
// memo on the golden kernels. Every plan the experiments place from it (the
// registered optimisers at every size, Figure 16's cutoff sweep, Figure
// 18's Resv plan and every ablation row) must equal a fresh core.Optimize
// with the same parameters on the averaged profile, and its sequences must
// equal sequences built afresh, so no placement wrote to the shared ones.
// A workload profile is left applied before every build, so a skeleton or a
// placement that read whatever weights the last lock holder left would
// differ. The default-schedule plans share one skeleton's sequences; the
// other schedules and sequence caps each get their own.
func TestSkeletonMemoMatchesFreshBuilds(t *testing.T) {
	for _, seed := range []int64{oslayout.DefaultKernelConfig().Seed, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			e, err := NewEnv(Options{OSRefs: 60_000, KernelSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			type build struct {
				name       string
				params     core.Params
				singleSeed bool
				memo       func() (*oslayout.Plan, error)
			}
			var builds []build
			for _, v := range []struct {
				name, label    string
				loops, callOpt bool
			}{{"opts", "OptS", false, false}, {"optl", "OptL", true, false}, {"optcall", "Call", true, true}} {
				for _, size := range []int{4 << 10, 8 << 10, 16 << 10} {
					params := core.DefaultParams(size)
					params.Name, params.LoopExtract, params.CallOpt = v.label, v.loops, v.callOpt
					builds = append(builds, build{
						name:   fmt.Sprintf("%s/%dk", v.name, size>>10),
						params: params,
						memo:   func() (*oslayout.Plan, error) { return e.Plan(v.name, size) },
					})
				}
			}
			for _, size := range []int{4 << 10, 8 << 10, 16 << 10} {
				for _, cut := range Figure16Cutoffs {
					params := figure16Params(size, cut)
					builds = append(builds, build{
						name:   fmt.Sprintf("fig16/%dk/%g", size>>10, cut),
						params: params,
						memo:   func() (*oslayout.Plan, error) { return e.St.Optimize(params) },
					})
				}
			}
			builds = append(builds, build{
				name:   "fig18/resv",
				params: resvParams(),
				memo:   func() (*oslayout.Plan, error) { return e.St.Optimize(resvParams()) },
			})
			for _, v := range ablationVariants() {
				builds = append(builds, build{
					name:       "ablation/" + v.params.Name,
					params:     v.params,
					singleSeed: v.singleSeed,
					memo:       func() (*oslayout.Plan, error) { return e.ablationPlan(v) },
				})
			}

			// Builds sharing a skeleton share its Sequences backing array:
			// every default-schedule, uncapped build shares one; every other
			// build owns its own.
			shared := map[*core.Sequence]string{}
			for i, b := range builds {
				if err := e.St.WithProfile(e.St.Data[i%len(e.St.Data)].OSProfile, func(*oslayout.Program) error { return nil }); err != nil {
					t.Fatal(err)
				}
				got, err := b.memo()
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				var want *core.Plan
				var seqs []core.Sequence
				if err := e.St.WithProfile(e.St.AvgOS, func(k *oslayout.Program) error {
					entries := core.SeedEntries(k)
					if b.singleSeed {
						entries = interruptSeedOnly(k)
					}
					sched := b.params.Schedule
					if sched == nil {
						sched = core.DefaultSchedule()
					}
					seqs, _ = core.BuildSequencesCapped(k, entries, sched, b.params.MaxSeqBytes)
					want, err = core.Optimize(k, cfa.AllLoops(k), entries, 0, b.params)
					return err
				}); err != nil {
					t.Fatalf("%s: fresh build: %v", b.name, err)
				}
				switch {
				case !slices.Equal(got.Layout.Addr, want.Layout.Addr):
					t.Errorf("%s: placed blocks differ from a fresh build", b.name)
				case !reflect.DeepEqual(got.Sequences, want.Sequences) || !reflect.DeepEqual(got.Sequences, seqs):
					t.Errorf("%s: sequences differ from a fresh build", b.name)
				case !slices.Equal(got.SelfConfFree, want.SelfConfFree) || got.SCFBytes != want.SCFBytes:
					t.Errorf("%s: SelfConfFree area differs from a fresh build", b.name)
				case !slices.Equal(got.LoopArea, want.LoopArea):
					t.Errorf("%s: loop area differs from a fresh build", b.name)
				case !slices.Equal(got.Classes, want.Classes):
					t.Errorf("%s: block classes differ from a fresh build", b.name)
				}

				owner := b.name
				if b.params.Schedule == nil && b.params.MaxSeqBytes == 0 && !b.singleSeed {
					owner = "default"
				}
				first := &got.Sequences[0]
				if prev, ok := shared[first]; ok && prev != owner {
					t.Errorf("%s shares its sequences with %s", b.name, prev)
				}
				shared[first] = owner
			}
			owners := map[string]bool{}
			for _, owner := range shared {
				if owners[owner] {
					t.Errorf("%s plans do not share one skeleton's sequences", owner)
				}
				owners[owner] = true
			}
		})
	}
}
