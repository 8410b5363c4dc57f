package expt

import (
	"fmt"
	"sort"
)

// Renderer is the common interface of experiment results.
type Renderer interface {
	Render() string
}

// Runner computes one experiment on an environment.
type Runner func(e *Env) (Renderer, error)

// entry binds an experiment name to its runner. Entries sharing a memo key
// share one computation per Env: fig4 and fig5 are one figure pair computed
// by one runner, so `oslayout all` executes it once.
type entry struct {
	run Runner
	// key is the per-Env memo key; empty means the experiment's own name.
	key string
}

// registry maps experiment names (as accepted by cmd/oslayout) to entries.
var registry = map[string]entry{
	"table1": {run: func(e *Env) (Renderer, error) { return e.RunTable1() }},
	"table2": {run: func(e *Env) (Renderer, error) { return e.RunTable2() }},
	"table3": {run: func(e *Env) (Renderer, error) { return e.RunTable3() }},
	"table4": {run: func(e *Env) (Renderer, error) { return e.RunTable4() }},
	"fig1":   {run: func(e *Env) (Renderer, error) { return e.RunFigure1() }},
	"fig2":   {run: func(e *Env) (Renderer, error) { return e.RunFigure2() }},
	"fig3":   {run: func(e *Env) (Renderer, error) { return e.RunFigure3() }},
	"fig4":   {run: func(e *Env) (Renderer, error) { return e.RunFigure45() }, key: "fig45"},
	"fig5":   {run: func(e *Env) (Renderer, error) { return e.RunFigure45() }, key: "fig45"},
	"fig6":   {run: func(e *Env) (Renderer, error) { return e.RunFigure6() }},
	"fig7":   {run: func(e *Env) (Renderer, error) { return e.RunFigure7() }},
	"fig8":   {run: func(e *Env) (Renderer, error) { return e.RunFigure8() }},
	"fig12":  {run: func(e *Env) (Renderer, error) { return e.RunFigure12() }},
	"fig13":  {run: func(e *Env) (Renderer, error) { return e.RunFigure13() }},
	"fig14":  {run: func(e *Env) (Renderer, error) { return e.RunFigure14() }},
	"fig15":  {run: func(e *Env) (Renderer, error) { return e.RunFigure15() }},
	"fig16":  {run: func(e *Env) (Renderer, error) { return e.RunFigure16() }},
	"fig17":  {run: func(e *Env) (Renderer, error) { return e.RunFigure17() }},
	"fig18":  {run: func(e *Env) (Renderer, error) { return e.RunFigure18() }},
	"fig18x": {run: func(e *Env) (Renderer, error) { return e.RunFigure18X() }},
	"fig19":  {run: func(e *Env) (Renderer, error) { return e.RunFigure19() }},

	// Extensions beyond the paper (see EXPERIMENTS.md):
	"xprofile":     {run: func(e *Env) (Renderer, error) { return e.RunCrossProfile() }},
	"baselines":    {run: func(e *Env) (Renderer, error) { return e.RunBaselines() }},
	"ablation":     {run: func(e *Env) (Renderer, error) { return e.RunAblation() }},
	"cpus":         {run: func(e *Env) (Renderer, error) { return e.RunMultiCPU() }},
	"policy":       {run: func(e *Env) (Renderer, error) { return e.RunReplacementPolicy() }},
	"overhead":     {run: func(e *Env) (Renderer, error) { return e.RunOverhead() }},
	"lineutil":     {run: func(e *Env) (Renderer, error) { return e.RunLineUtil() }},
	"noise":        {run: func(e *Env) (Renderer, error) { return e.RunNoise() }},
	"fragments":    {run: func(e *Env) (Renderer, error) { return e.RunFragmentation() }},
	"sizemismatch": {run: func(e *Env) (Renderer, error) { return e.RunSizeMismatch() }},
}

// Has reports whether an experiment name is registered.
func Has(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered experiment names in natural order: embedded
// numbers compare numerically, so fig2 precedes fig12 and `oslayout list`
// and `all` follow paper order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return naturalLess(names[i], names[j]) })
	return names
}

// naturalLess compares strings chunk-wise, treating maximal digit runs as
// numbers.
func naturalLess(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		an, aNum := chunk(&a)
		bn, bNum := chunk(&b)
		if aNum && bNum {
			av, bv := numVal(an), numVal(bn)
			if av != bv {
				return av < bv
			}
		} else if an != bn {
			return an < bn
		}
	}
	return len(a) < len(b)
}

// chunk removes and returns the leading all-digit or all-non-digit run.
func chunk(s *string) (run string, numeric bool) {
	str := *s
	isDigit := func(c byte) bool { return c >= '0' && c <= '9' }
	numeric = isDigit(str[0])
	i := 1
	for i < len(str) && isDigit(str[i]) == numeric {
		i++
	}
	run, *s = str[:i], str[i:]
	return run, numeric
}

// numVal parses a digit run; runs are short, so overflow is no concern.
func numVal(s string) int {
	v := 0
	for i := 0; i < len(s); i++ {
		v = v*10 + int(s[i]-'0')
	}
	return v
}

// Run executes one registered experiment by name, memoizing the result per
// Env so names sharing a runner compute once.
func Run(e *Env, name string) (Renderer, error) {
	ent, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (have %v)", name, Names())
	}
	key := ent.key
	if key == "" {
		key = name
	}
	if r, ok := e.results[key]; ok {
		return r, nil
	}
	r, err := ent.run(e)
	if err != nil {
		return nil, err
	}
	e.results[key] = r
	return r, nil
}
