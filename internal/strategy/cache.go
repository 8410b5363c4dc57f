package strategy

import (
	"fmt"
	"sync"

	"oslayout/internal/cfa"
	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
)

// Built is one memoized strategy product.
type Built struct {
	Layout *layout.Layout
	// Plan is non-nil only for strategies built on the paper's placement
	// algorithm.
	Plan *core.Plan
}

// cacheKey identifies one build: (strategy name, cache size).
// Size-independent strategies normalise the size to 0 so requests at
// different cache sizes share one entry.
type cacheKey struct {
	name string
	size int
}

// Cache memoizes strategy builds for one study, and it is the one owner of
// the study's weight fields. A profile is applied to a program only under
// the cache lock, by the caller about to read it: each builtin strategy
// applies the averaged profile at the start of its build (the paper's
// optimisers and Place through their placement step), and every other
// weight reader runs inside Exclusive and applies its own profile first.
// No reader therefore depends on what an earlier lock holder left applied,
// and the cache is the safe entry point for concurrent builds and weight
// reads (the serve daemon runs jobs in parallel over one study). Every
// field, including the recorder and the hit/miss statistics, is accessed
// under mu. Evaluation of the returned layouts is read-only and needs no
// coordination.
//
// The kernel program's natural loops depend on its control-flow graph
// alone, never on the applied profile, so the cache analyses them once, on
// first need, and every build shares that one read-only slice. As the
// weights' owner the cache also memoizes the averaged profile's skeletons
// (core.Skeleton: the sequences and loop-adjusted weights), which depend on
// the threshold schedule and the sequence cap but not on the cache size or
// the placement variant, so every opts/optl/optcall build and every Place
// with one schedule and cap shares one skeleton's read-only Sequences.
type Cache struct {
	st Study

	mu        sync.Mutex
	rec       *obs.Recorder
	built     map[cacheKey]*Built
	skeletons map[skeletonKey]*core.Skeleton
	hits      uint64
	miss      uint64
	loops     []cfa.Loop
	analysed  bool
}

// skeletonKey identifies a skeleton of the averaged profile: the threshold
// schedule, printed with %#v so that nil (the default schedule) differs
// from every explicit one, and the sequence cap.
type skeletonKey struct {
	schedule    string
	maxSeqBytes int64
}

// NewCache returns an empty cache over the study.
func NewCache(st Study) *Cache {
	return &Cache{st: st, built: make(map[cacheKey]*Built), skeletons: make(map[skeletonKey]*core.Skeleton)}
}

// SetRecorder attaches a recorder; cache-miss builds are then timed as
// "layout.<name>" spans. A nil recorder (the default) records nothing.
// Safe to call concurrently with builds.
func (c *Cache) SetRecorder(r *obs.Recorder) {
	c.mu.Lock()
	c.rec = r
	c.mu.Unlock()
}

// Stats returns how many Build/Place/Custom requests were served from the
// memo map versus built fresh — the layout-build cache-efficiency signal the
// serve daemon exports as Prometheus counters. Skeletons are not counted.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}

// Loops returns the kernel program's natural loops, analysed once per
// cache. The slice is shared with every plan built here: callers must not
// modify it. It must not be called from a Custom build or an Exclusive
// function, which receive the loops instead.
func (c *Cache) Loops() []cfa.Loop {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loopsLocked()
}

// loopsLocked is Loops for a caller holding mu.
func (c *Cache) loopsLocked() []cfa.Loop {
	if !c.analysed {
		c.loops, c.analysed = cfa.AllLoops(c.st.KernelProgram()), true
	}
	return c.loops
}

// Build returns the memoized product of the named strategy, building it on
// first use. Errors are not cached.
func (c *Cache) Build(name string, p Params) (*Built, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	key := cacheKey{name: name, size: p.CacheSize}
	if !s.SizeDependent() {
		key.size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memoLocked(key, func() (*layout.Layout, *core.Plan, error) {
		defer c.rec.Span("layout." + name)()
		p.place = c.placeLocked
		return s.Build(c.st, p)
	})
}

// Place returns the memoized plan of the paper's placement algorithm with
// the given parameters on the kernel's seeds, placed from the averaged
// profile's skeleton for their schedule and sequence cap — for parameter
// variants outside the registry (Study.Optimize keys its placements here).
// The memo key is the full parameter value, printed with %#v, which tells a
// nil Schedule from an empty one.
func (c *Cache) Place(params core.Params) (*Built, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memoLocked(cacheKey{name: fmt.Sprintf("place:%#v", params)}, func() (*layout.Layout, *core.Plan, error) {
		plan, err := c.placeLocked(params)
		if err != nil {
			return nil, nil, err
		}
		return plan.Layout, plan, nil
	})
}

// placeLocked applies the averaged profile to the kernel program and places
// params from the memoized skeleton of that profile, building the skeleton
// on first use; the caller holds mu. Applying first means neither the
// skeleton nor the placement can read weights another lock holder left.
func (c *Cache) placeLocked(params core.Params) (*core.Plan, error) {
	if err := c.st.ApplyProfile(AvgProfile); err != nil {
		return nil, err
	}
	p := c.st.KernelProgram()
	key := skeletonKey{schedule: fmt.Sprintf("%#v", params.Schedule), maxSeqBytes: params.MaxSeqBytes}
	sk := c.skeletons[key]
	if sk == nil {
		var err error
		if sk, err = core.NewSkeleton(p, c.loopsLocked(), core.SeedEntries(p), params.Schedule, params.MaxSeqBytes); err != nil {
			return nil, err
		}
		c.skeletons[key] = sk
	}
	return sk.Place(p, 0, params)
}

// memoLocked returns the product memoized under key, building it on first
// use; the caller holds mu. Errors are not cached.
func (c *Cache) memoLocked(key cacheKey, build func() (*layout.Layout, *core.Plan, error)) (*Built, error) {
	if b, ok := c.built[key]; ok {
		c.hits++
		return b, nil
	}
	c.miss++
	l, plan, err := build()
	if err != nil {
		return nil, err
	}
	b := &Built{Layout: l, Plan: plan}
	c.built[key] = b
	return b, nil
}

// Exclusive runs f under the cache lock, with the kernel program's shared,
// read-only loop analysis (see Loops): the one way to apply a profile to a
// program and read the weights it wrote without racing another build. f
// must apply the profile it reads before reading it, and must not call back
// into the cache (the lock is not reentrant). Nothing is memoized.
func (c *Cache) Exclusive(f func(st Study, loops []cfa.Loop) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f(c.st, c.loopsLocked())
}

// Custom memoizes a caller-supplied build under an opaque key, for builds
// Place cannot express (other programs, profiles or seed entries). Keys live
// in a separate namespace from registered strategy names and Place's
// parameters. build runs under the cache lock as Exclusive's f does, so it
// applies the profile it builds from itself and must not call back into the
// cache.
func (c *Cache) Custom(key string, build func(st Study, loops []cfa.Loop) (*layout.Layout, *core.Plan, error)) (*Built, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memoLocked(cacheKey{name: "custom:" + key}, func() (*layout.Layout, *core.Plan, error) {
		return build(c.st, c.loopsLocked())
	})
}
