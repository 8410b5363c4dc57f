package simulate

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// runner is one cache's hoisted access function and its inline hit test,
// which the drive loops try first, calling access only when it fails: a
// chain member's probe is its cache.DMProbe, a rest cache's its
// cache.MRUProbe. obs is non-nil only on an observed unit, and hit only
// when obs is also a HitObserver (never on a chain member); the unobserved
// compiled loop reads neither, and the walk loop finds both nil on an
// unobserved unit.
type runner[P any] struct {
	access func(uint64, trace.Domain) cache.MissClass
	probe  P
	obs    obs.Observer
	hit    obs.HitObserver
}

// chainRunner and restRunner are the runners of a unit's inclusion chain
// and of its other caches.
type (
	chainRunner = runner[cache.DMProbe]
	restRunner  = runner[cache.MRUProbe]
)

// runners hoists the access function, probe and observers of each cache
// in idx.
func runners[P any](idx []int, caches []*cache.Cache, obsAt func(int) obs.Observer, probe func(*cache.Cache) P) []runner[P] {
	rs := make([]runner[P], len(idx))
	for k, i := range idx {
		o := obsAt(i)
		h, _ := o.(obs.HitObserver)
		rs[k] = runner[P]{caches[i].AccessFunc(), probe(caches[i]), o, h}
	}
	return rs
}

// dmProbe returns a chain member's probe; buildUnits chains only caches
// that have one.
func dmProbe(c *cache.Cache) cache.DMProbe {
	p, _ := c.Probe()
	return p
}

// CacheSetup configures one freshly built cache before its replay starts —
// the hook way-partition controllers use to install reserved line sets and
// bind repartitioning policies (internal/partition).
type CacheSetup func(*cache.Cache) error

// Options tunes a RunGroups or RunManyOpt replay. The zero value selects
// no observers, no setups, a walk that compiles nothing and the sequential
// drive.
type Options struct {
	// Observers, when non-nil, must match the replay's configurations in
	// length (the groups' configs concatenated in order); Observers[i]
	// (which may be nil) watches config i's replay.
	Observers []obs.Observer
	// Setups, when non-nil, must match the configurations in length;
	// Setups[i] (which may be nil) runs on config i's cache after
	// construction and before any access. A partitioned cache is never
	// direct-mapped, so it never joins an inclusion chain, and the
	// repartitioning installed here touches only its own cache: it stays
	// bit-identical at any worker count.
	Setups []CacheSetup
	// Streams supplies the line streams of a materialised trace. A
	// memoizing source (internal/streamcache) compiles a stream on its
	// second request and shares the compilation across calls; a stream it
	// leaves uncompiled, a first request's, is walked over its decode. nil
	// walks the trace and compiles nothing: the drive units expand each
	// event's line span as they drive. A header-only trace always walks the
	// trace.
	Streams StreamSource
	// Workers bounds the drive worker pool. Values <= 1 select the
	// sequential path: one pass per stream driving every cache that reads
	// it. Higher values split each stream's caches into up to
	// ⌈Workers/streams⌉ units — a direct-mapped inclusion chain always
	// whole, the other caches dealt round-robin — and fan the units across
	// min(Workers, units) goroutines over the shared read-only streams.
	// Results are bit-identical either way: the units are independent (no
	// cache reads another's state), and each cache sees the exact access
	// sequence of the sequential interleaving.
	Workers int
}

// Group is one layout pair and the cache organisations replayed under it.
// App may be nil when the trace has no application.
type Group struct {
	OS, App *layout.Layout
	Configs []cache.Config
}

// RunManyOpt replays the trace under one layout pair through many cache
// organisations: the one-group call of RunGroups. appL may be nil when the
// trace has no application.
func RunManyOpt(t *trace.Trace, osL, appL *layout.Layout, cfgs []cache.Config, opt Options) ([]*Result, error) {
	return RunGroups(t, []Group{{OS: osL, App: appL, Configs: cfgs}}, opt)
}

// streamKey identifies one stream of a replay: caches of any group sharing
// a layout pair and a line size see the exact same line-access sequence, so
// they read one stream.
type streamKey struct {
	os, app *layout.Layout
	line    int
}

// RunGroups is the single-pass multi-configuration engine: where repeated
// Run calls replay the trace once per cache organisation — re-decoding every
// event and re-resolving every block address each time — RunGroups reads
// the trace once and drives every cache sharing a (layout pair, line size)
// from one line-access stream (in the spirit of Hill & Smith's
// all-associativity and the Cheetah-style single-pass simulators cited by
// the paper's successors). Given a stream source, a materialised trace is
// driven in one window, the source's decode: a stream the source compiled
// and keeps (see CompileEvents) drives its flat pre-elided accesses, and a
// stream it left uncompiled walks the decode, each of its drive units
// expanding the line spans as it goes. With no source, or a header-only
// trace, every stream walks the trace window by window and nothing is
// compiled, so a header-only trace is regenerated once per call, however
// many groups the call carries. It returns one Result per
// configuration, the groups' configs concatenated in order, each
// bit-identical to the one the equivalent Run call produces.
//
// Options add per-config observers and setups, a pluggable stream source
// and a bounded parallel drive. Observation is gated at unit-setup time — a
// compiled unit whose configurations carry no observer runs through the
// unobserved drive loop and pays nothing per access, and a walked one
// carries an empty watcher list — so the nil case stays bit-identical.
// Observed units keep the repeat-elision and inclusion-chain fast paths:
// both elide only hits, which change no state, so every miss-derived metric
// the observers see is exact.
func RunGroups(t *trace.Trace, groups []Group, opt Options) ([]*Result, error) {
	n, parts := 0, 0
	for _, g := range groups {
		if err := checkLayouts(t, g.OS, g.App); err != nil {
			return nil, err
		}
		n += len(g.Configs)
		if len(g.Configs) > 0 {
			parts++
		}
	}
	observers := opt.Observers
	if observers != nil && len(observers) != n {
		return nil, fmt.Errorf("simulate: %d observers for %d configs", len(observers), n)
	}
	if opt.Setups != nil && len(opt.Setups) != n {
		return nil, fmt.Errorf("simulate: %d setups for %d configs", len(opt.Setups), n)
	}
	obsAt := func(i int) obs.Observer {
		if observers == nil {
			return nil
		}
		return observers[i]
	}
	results := make([]*Result, n)
	caches := make([]*cache.Cache, n)
	// keys[s] is stream s; members[s] lists the configs that read it.
	var keys []streamKey
	var members [][]int
	streamOf := make(map[streamKey]int)
	i := 0
	for _, g := range groups {
		for _, cfg := range g.Configs {
			c, err := cache.New(cfg)
			if err != nil {
				return nil, err
			}
			caches[i] = c
			results[i] = &Result{LayoutName: g.OS.Name, Config: cfg}
			if opt.Setups != nil && opt.Setups[i] != nil {
				if err := opt.Setups[i](c); err != nil {
					return nil, err
				}
			}
			k := streamKey{g.OS, g.App, cfg.Line}
			s, ok := streamOf[k]
			if !ok {
				s = len(keys)
				streamOf[k] = s
				keys = append(keys, k)
				members = append(members, nil)
			}
			members[s] = append(members[s], i)
			i++
		}
	}
	if n == 0 {
		return results, nil
	}
	units := buildUnits(members, caches, obsAt, opt.Workers)

	// Only a stream source compiles, and it keeps what it compiles; it may
	// also leave a stream uncompiled. A stream that is not compiled is
	// walked: each of its units expands its spans from a table shared with
	// the stream's other units, carrying its own elision state across
	// windows. A header-only trace, or a call with no source, walks every
	// stream over the trace.
	var streams []*Stream
	if !t.Streaming() && opt.Streams != nil {
		streams = make([]*Stream, len(keys))
		for s, k := range keys {
			var err error
			if streams[s], err = opt.Streams.Stream(t, k.os, k.app, k.line); err != nil {
				return nil, err
			}
		}
	}
	walks := func(s int) bool { return streams == nil || !streams[s].compiled() }
	spans := make([][trace.NumDomains][]lineSpan, len(keys))
	for s, k := range keys {
		if walks(s) {
			var err error
			if spans[s], err = spanTables(t, k.os, k.app, k.line); err != nil {
				return nil, err
			}
		}
	}
	for k := range units {
		if u := &units[k]; walks(u.stream) {
			u.spans, u.prev = &spans[u.stream], noLine
		}
	}
	var blocks int
	var refs [trace.NumDomains]uint64
	if streams == nil {
		tot := t.Summarize()
		blocks, refs = tot.Blocks, tot.Refs
	} else {
		ev := streams[0].Events()
		blocks, refs = ev.NumEvents(), ev.Refs()
	}

	for i := range caches {
		if o := obsAt(i); o != nil {
			o.Begin(results[i].Config, blocks)
			caches[i].SetEvictionHook(o.Evict)
		}
	}
	if streams == nil {
		if err := walk(t, parts, units, opt.Workers); err != nil {
			return nil, err
		}
	} else {
		// The whole decode is one window: compiled units drive their
		// streams, and the others walk the decode.
		ev := streams[0].Events()
		driveUnits(units, &unitData{attrs: ev.attrs, refsTab: ev.refsTab, streams: streams}, opt.Workers)
	}

	for i := range results {
		// Per-domain references are a property of the trace alone, so they
		// are counted once and stamped on every cache.
		caches[i].Stats.Refs = refs
		results[i].Stats = caches[i].Stats
	}
	return results, nil
}

// buildUnits partitions each stream's caches into drive units. Among the
// caches reading one stream, direct-mapped power-of-two caches form an
// inclusion chain when ordered by ascending set count: a hit in a smaller
// member guarantees a hit in every larger one (set-refinement), and a
// direct-mapped hit is a no-op, so the larger members can be skipped
// outright. A cache watched by a HitObserver must see every hit, so it
// stays out of the chain. The chain is therefore one item that must stay
// whole; every other cache is an item of its own.
//
// Every unit walks every event and access of its stream's windows, so each
// unit costs a walk: a stream's items are dealt round-robin into
// min(items, ⌈workers/streams⌉) units, enough to occupy the workers and no
// more. With workers <= 1 each stream's caches are one unit, driven in a
// single pass.
func buildUnits(members [][]int, caches []*cache.Cache, obsAt func(int) obs.Observer, workers int) []driveUnit {
	perStream := 1
	if workers > 1 {
		perStream = (workers + len(members) - 1) / len(members)
	}
	var units []driveUnit
	for s, idx := range members {
		var chainIdx, restIdx []int
		for _, i := range idx {
			if _, hits := obsAt(i).(obs.HitObserver); caches[i].DirectMappedPow2() && !hits {
				chainIdx = append(chainIdx, i)
			} else {
				restIdx = append(restIdx, i)
			}
		}
		sort.SliceStable(chainIdx, func(a, b int) bool {
			return caches[chainIdx[a]].Sets() < caches[chainIdx[b]].Sets()
		})
		// The chain, when there is one, is item 0 and lands in unit 0. A
		// unit owns its caches and observers exclusively, so units touch
		// disjoint state and may drive concurrently over the shared
		// read-only stream.
		first := 0
		if len(chainIdx) > 0 {
			first = 1
		}
		k := min(first+len(restIdx), perStream)
		dealt := make([][]int, k)
		for j, i := range restIdx {
			u := (first + j) % k
			dealt[u] = append(dealt[u], i)
		}
		for u, rest := range dealt {
			var chain []int
			if u == 0 {
				chain = chainIdx
			}
			unit := driveUnit{
				stream: s,
				chain:  runners(chain, caches, obsAt, dmProbe),
				rest:   runners(rest, caches, obsAt, (*cache.Cache).MRUProbe),
			}
			for _, part := range [][]int{chain, rest} {
				for _, i := range part {
					if o := obsAt(i); o != nil {
						unit.ws = append(unit.ws, o)
					}
				}
			}
			units = append(units, unit)
		}
	}
	return units
}

// eventDomainShift packs a resolved block event as domain<<31 | block.
const eventDomainShift = 31

// unitData is one replay window handed to the drive units: the window's
// block events, the shared per-block reference tables and, when a stream
// source supplied the replay, its streams (indexed by driveUnit.stream),
// the whole decode then being the one window. A window of the trace walk
// carries no streams, and a unit whose stream is not compiled expands the
// events itself.
type unitData struct {
	attrs   []uint32
	refsTab [trace.NumDomains][]uint64
	streams []*Stream
}

// driveUnit is one independently drivable slice of a replay: a stream
// index plus the runners that consume it. chain holds direct-mapped
// power-of-two caches in ascending set order (inclusion semantics); rest
// caches always run. No two units share a cache, result or observer, so
// units drive concurrently — and a unit keeps its caches across windows, so
// windowed replay is a plain continuation of cache state.
type driveUnit struct {
	stream int
	chain  []chainRunner
	rest   []restRunner
	// ws caches the unit's non-nil observers, chain first; computed once
	// at build time so per-window dispatch allocates nothing.
	ws []obs.Observer
	// spans is the line-span table of the unit's stream when that stream
	// is walked, nil when it is compiled; it is shared read-only with the
	// stream's other units. prev is the last line of the last span this
	// unit walked, carried across windows for same-line elision. Each unit
	// keeps its own prev: units of one stream walk the same windows
	// independently.
	spans *[trace.NumDomains][]lineSpan
	prev  uint32
}

// drive replays one window through the unit's caches: a unit whose stream
// is not compiled through the walk loop, one whose stream is through the
// stream loops, observed only when the unit actually carries an observer.
func (u *driveUnit) drive(d *unitData) {
	switch {
	case u.spans != nil:
		u.prev = walkWindow(d.attrs, &d.refsTab, u.spans, u.prev, u.chain, u.rest, u.ws)
	case u.ws != nil:
		s := d.streams[u.stream]
		driveWindowObserved(d.attrs, s.counts, s.accs, d.refsTab, u.chain, u.rest, u.ws)
	default:
		driveWindow(d.streams[u.stream].accs, u.chain, u.rest)
	}
}

// driveUnits runs the units over one window, fanning them across
// min(workers, len(units)) goroutines claiming units off a shared counter.
// Unit order is irrelevant to the results — units are mutually independent —
// so the fan-out is deterministic by construction, not by scheduling. In a
// trace walk this is called once per window: the return is the barrier
// that keeps every unit's access order sequential across windows. A panic in
// a unit (a cache setup's hook, say) is re-raised here once every worker
// has returned, so it reaches the caller's goroutine as in a sequential
// drive.
func driveUnits(units []driveUnit, d *unitData, workers int) {
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for k := range units {
			units[k].drive(d)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(units) {
					return
				}
				units[k].drive(d)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// driveWindow replays one window of compiled accesses through the unit's
// caches. Span expansion and same-line elision already happened at compile
// time, so the loop touches only the flat pre-elided access array; the
// inclusion-chain skip (a direct-mapped power-of-two hit implies a hit in
// every larger chain member, with no state change either way) remains a
// drive-time rule because it depends on per-cache hit state. A chain hit
// costs one tag load and compare through the member's probe; a miss only
// calls the access function, whose cache counts it by domain and class. A
// rest cache's hit in its most-recently-used way changes nothing either,
// so its MRU probe spares the call there.
func driveWindow(accs []uint32, chain []chainRunner, rest []restRunner) {
	for _, v := range accs {
		line := uint64(v & streamLineMask)
		d := trace.Domain(v >> eventDomainShift)
		for k := range chain {
			r := &chain[k]
			if r.probe.Hit(line) {
				break
			}
			r.access(line, d)
		}
		for k := range rest {
			r := &rest[k]
			if !r.probe.Hit(line) {
				r.access(line, d)
			}
		}
	}
}

// driveWindowObserved is driveWindow plus observer notification: the walk
// follows the window's per-event access counts so every trace event —
// including ones whose accesses were all elided at compile time — is
// announced to every watcher of the unit in exact replay order, and each
// miss is forwarded to its runner's observer with the block of the event
// that caused it (evictions reach observers through the cache-side hook
// installed at setup). A rest runner's HitObserver also hears of each of
// its hits, MRU probe hits included; chain members never carry one. The
// cache-visible access sequence is exactly driveWindow's, so results stay
// bit-identical to the unobserved path; and because every observer belongs
// to exactly one unit, the per-observer event/miss sequence is identical
// whether units run sequentially or in parallel.
func driveWindowObserved(attrs []uint32, counts []uint8, accs []uint32,
	refsTab [trace.NumDomains][]uint64, chain []chainRunner, rest []restRunner, watchers []obs.Observer) {

	j := 0
	for i, a := range attrs {
		d := trace.Domain(a >> eventDomainShift)
		b := a & (1<<eventDomainShift - 1)
		refs := refsTab[d][b]
		for _, w := range watchers {
			w.Event(d, b, refs)
		}
		for end := j + int(counts[i]); j < end; j++ {
			line := uint64(accs[j] & streamLineMask)
			for k := range chain {
				r := &chain[k]
				if r.probe.Hit(line) {
					break
				}
				cl := r.access(line, d)
				if r.obs != nil {
					r.obs.Miss(line, d, cl, b)
				}
			}
			for k := range rest {
				r := &rest[k]
				cl := cache.Hit
				if !r.probe.Hit(line) {
					cl = r.access(line, d)
				}
				switch {
				case cl == cache.Hit:
					if r.hit != nil {
						r.hit.Hit(line, d)
					}
				case r.obs != nil:
					r.obs.Miss(line, d, cl, b)
				}
			}
		}
	}
}

// walkWindow drives one window of block events through the unit's caches,
// observed or not. It expands each event's line span as it goes, its lines
// in order less the first when that repeats the previous span's last
// (lineSpan.from), which is exactly the compiled stream's access sequence,
// so the caches see a walked replay and a compiled one alike. Each event is
// announced to every watcher of the unit before its lines are driven, each
// miss is forwarded to its runner's observer with the event's block, and a
// rest runner's HitObserver hears of each of its hits, so the per-observer
// call sequence is driveWindowObserved's over the compiled stream, at any
// worker count and any windowing. An unobserved unit has no watchers and
// runners without observers; a loop of its own measured level with this
// one. prev is the last line of the span before the window; walkWindow
// returns the window's.
func walkWindow(attrs []uint32, refsTab *[trace.NumDomains][]uint64, spans *[trace.NumDomains][]lineSpan,
	prev uint32, chain []chainRunner, rest []restRunner, watchers []obs.Observer) uint32 {

	for _, a := range attrs {
		d := trace.Domain(a >> eventDomainShift)
		b := a & (1<<eventDomainShift - 1)
		for _, w := range watchers {
			w.Event(d, b, refsTab[d][b])
		}
		sp := spans[d][b]
		line := sp.from(prev)
		prev = sp.Last
		for ; line <= sp.Last; line++ {
			l := uint64(line)
			for k := range chain {
				r := &chain[k]
				if r.probe.Hit(l) {
					break
				}
				cl := r.access(l, d)
				if r.obs != nil {
					r.obs.Miss(l, d, cl, b)
				}
			}
			for k := range rest {
				r := &rest[k]
				cl := cache.Hit
				if !r.probe.Hit(l) {
					cl = r.access(l, d)
				}
				switch {
				case cl == cache.Hit:
					if r.hit != nil {
						r.hit.Hit(l, d)
					}
				case r.obs != nil:
					r.obs.Miss(l, d, cl, b)
				}
			}
		}
	}
	return prev
}
