// Package strategy turns the repo's core axis of variation — which
// code-placement algorithm laid out the kernel — into a first-class,
// extensible subsystem. The paper's whole evaluation compares placement
// strategies over cache configurations; here every strategy (the Base link
// order, the Chang-Hwu, McFarling and Pettis-Hansen baselines, the shuffle
// control, and the paper's OptS/OptL/Call optimisers) implements one
// interface and registers under a short name, so experiments, the public
// API and the CLI can request layouts uniformly and new placement
// algorithms (Codestitcher, ext-TSP, ...) are one-file additions.
//
// Every builtin strategy builds from the averaged profile, so builds are
// pure functions of (strategy, cache size) and the Cache memoizes them
// under exactly that key; it replaces the ad-hoc layout caches the
// experiment environment used to carry.
package strategy

import (
	"fmt"
	"sort"

	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/program"
)

// AvgProfile names the averaged-over-workloads profile, the one every
// builtin strategy builds from (the paper: "the layouts are created after
// taking the average of the profiles of all the workloads").
const AvgProfile = "avg"

// Study is the subset of *oslayout.Study a strategy builds from. It is an
// interface so this package does not import the root package (which imports
// this one to expose the registry publicly).
type Study interface {
	// KernelProgram returns the kernel's control-flow graph.
	KernelProgram() *program.Program
	// ApplyProfile applies the named profile to the kernel program's weight
	// fields. Strategies ask for AvgProfile ("" names it too), from inside
	// a Cache build, under the cache lock.
	ApplyProfile(name string) error
}

// Params configures one strategy build.
type Params struct {
	// CacheSize is the target cache size in bytes; strategies for which
	// SizeDependent() is false ignore it.
	CacheSize int
	// place, set by Cache for the build it runs under its lock, applies the
	// averaged profile and places core parameters from the cache's skeleton
	// of it (see Cache.Place). Strategy.Build is only called through Cache,
	// so it is always set.
	place func(core.Params) (*core.Plan, error)
}

// Strategy is one code-placement algorithm.
type Strategy interface {
	// Name is the registry key ("base", "ch", "opts", ...).
	Name() string
	// Describe summarises the algorithm in one line.
	Describe() string
	// SizeDependent reports whether the layout depends on Params.CacheSize.
	SizeDependent() bool
	// Build constructs the layout. The returned Plan is non-nil only for
	// strategies built on the paper's placement algorithm. Build is only
	// called through Cache.Build, which supplies the placement step.
	Build(st Study, p Params) (*layout.Layout, *core.Plan, error)
}

// registry maps strategy names to implementations. Registration happens in
// init functions; lookups never mutate.
var registry = map[string]Strategy{}

// Register adds a strategy; duplicate names panic (a programming error).
func Register(s Strategy) {
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("strategy: duplicate registration of %q", s.Name()))
	}
	registry[s.Name()] = s
}

// Get returns the named strategy.
func Get(name string) (Strategy, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (have %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
