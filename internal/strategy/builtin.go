package strategy

import (
	"math/rand"

	"oslayout/internal/chlayout"
	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/mcflayout"
	"oslayout/internal/phlayout"
	"oslayout/internal/program"
)

// ShuffleSeed fixes the permutation of the "shuffle" control strategy.
const ShuffleSeed = 97

// builtin implements Strategy over a build function.
type builtin struct {
	name     string
	describe string
	sized    bool
	// profiled strategies apply the averaged profile before building. The
	// paper's optimisers are not marked: their placement step applies it.
	profiled bool
	build    func(p *program.Program, params Params) (*layout.Layout, *core.Plan, error)
}

func (b *builtin) Name() string        { return b.name }
func (b *builtin) Describe() string    { return b.describe }
func (b *builtin) SizeDependent() bool { return b.sized }

func (b *builtin) Build(st Study, params Params) (*layout.Layout, *core.Plan, error) {
	if b.profiled {
		if err := st.ApplyProfile(AvgProfile); err != nil {
			return nil, nil, err
		}
	}
	return b.build(st.KernelProgram(), params)
}

// optimize runs the paper's placement algorithm with the given parameter
// mutation, mirroring Study.OptS/OptL/OptCall, from the cache's skeleton of
// the averaged profile.
func optimize(params Params, mutate func(*core.Params)) (*layout.Layout, *core.Plan, error) {
	cp := core.DefaultParams(params.CacheSize)
	if mutate != nil {
		mutate(&cp)
	}
	plan, err := params.place(cp)
	if err != nil {
		return nil, nil, err
	}
	return plan.Layout, plan, nil
}

// layoutOnly adapts profile-free or plan-free builders.
func layoutOnly(f func(p *program.Program) *layout.Layout) func(*program.Program, Params) (*layout.Layout, *core.Plan, error) {
	return func(p *program.Program, _ Params) (*layout.Layout, *core.Plan, error) {
		return f(p), nil, nil
	}
}

// Shuffle places routines in a seeded random permutation — the "blind
// reshuffle" control of the baselines ladder: conflict peaks move around
// but the expected conflict volume stays Base-like, showing that the
// profile-guided structure, not mere rearrangement, produces the gains.
func Shuffle(p *program.Program, seed int64) *layout.Layout {
	rng := rand.New(rand.NewSource(seed))
	order := p.Order()
	shuffled := make([]program.RoutineID, len(order))
	copy(shuffled, order)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	l := layout.New("Shuffle", p, 0)
	pb := layout.NewBuilder(l)
	for _, r := range shuffled {
		pb.AppendAll(p.Routines[r].Blocks)
	}
	return l
}

func init() {
	for _, s := range []*builtin{
		{
			name:     "base",
			describe: "original link-order placement (the paper's Base)",
			build: layoutOnly(func(p *program.Program) *layout.Layout {
				return layout.NewBase(p, 0)
			}),
		},
		{
			name:     "shuffle",
			describe: "seeded random routine permutation (control: rearrangement without structure)",
			build: layoutOnly(func(p *program.Program) *layout.Layout {
				return Shuffle(p, ShuffleSeed)
			}),
		},
		{
			name:     "mcf",
			describe: "McFarling-style weighted call-graph DFS with cold-code exclusion (ASPLOS 1989)",
			profiled: true,
			build: layoutOnly(func(p *program.Program) *layout.Layout {
				return mcflayout.New(p, 0)
			}),
		},
		{
			name:     "ph",
			describe: "Pettis-Hansen procedure ordering: greedy call-graph chain merging (PLDI 1990)",
			profiled: true,
			build: layoutOnly(func(p *program.Program) *layout.Layout {
				return phlayout.New(p, 0)
			}),
		},
		{
			name:     "ch",
			describe: "Chang-Hwu trace selection plus caller-callee routine chaining (ISCA 1989)",
			profiled: true,
			build: layoutOnly(func(p *program.Program) *layout.Layout {
				return chlayout.New(p, 0)
			}),
		},
		{
			name:     "opts",
			describe: "the paper's OptS: cross-routine sequences plus the SelfConfFree area",
			sized:    true,
			build: func(_ *program.Program, params Params) (*layout.Layout, *core.Plan, error) {
				return optimize(params, nil)
			},
		},
		{
			name:     "optl",
			describe: "OptS plus the Section 4.3 loop-area extraction",
			sized:    true,
			build: func(_ *program.Program, params Params) (*layout.Layout, *core.Plan, error) {
				return optimize(params, func(cp *core.Params) {
					cp.Name = "OptL"
					cp.LoopExtract = true
				})
			},
		},
		{
			name:     "optcall",
			describe: "OptL plus the Section 4.4 loops-with-callees private logical caches",
			sized:    true,
			build: func(_ *program.Program, params Params) (*layout.Layout, *core.Plan, error) {
				return optimize(params, func(cp *core.Params) {
					cp.Name = "Call"
					cp.LoopExtract = true
					cp.CallOpt = true
				})
			},
		},
	} {
		Register(s)
	}
}
