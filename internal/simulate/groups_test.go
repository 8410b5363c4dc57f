package simulate

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// reversed lays l's program out in reverse block order from l's base: a
// second layout under which every block maps to different lines.
func reversed(l *layout.Layout) *layout.Layout {
	r := layout.New(l.Name+"-rev", l.Prog, l.Base)
	b := layout.NewBuilder(r)
	for i := l.Prog.NumBlocks() - 1; i >= 0; i-- {
		b.Append(program.BlockID(i))
	}
	return r
}

// teeObserver forwards every call to each of its observers in order.
type teeObserver []obs.Observer

func (t teeObserver) Begin(cfg cache.Config, totalEvents int) {
	for _, o := range t {
		o.Begin(cfg, totalEvents)
	}
}
func (t teeObserver) Event(d trace.Domain, block uint32, refs uint64) {
	for _, o := range t {
		o.Event(d, block, refs)
	}
}
func (t teeObserver) Miss(line uint64, d trace.Domain, class cache.MissClass, block uint32) {
	for _, o := range t {
		o.Miss(line, d, class, block)
	}
}
func (t teeObserver) Evict(victimLine uint64, set int, evictor trace.Domain) {
	for _, o := range t {
		o.Evict(victimLine, set, evictor)
	}
}

// groupRun is one replay's outputs: results plus every config's observer
// digest and, for dynamically partitioned configs, its controller.
type groupRun struct {
	res   []*Result
	seqs  []*seqObserver
	ctrls []*partition.Controller
}

// layoutGroups returns the grouped-replay tests' groups over the mixed
// trace's layouts: the equivalence grid under the trace's own layout pair
// and under the reversed pair, then static and dynamic way partitions
// under a third pair. sp is the dynamic partitions' spec.
func layoutGroups(t *testing.T, osL, appL *layout.Layout) ([]Group, partition.Spec) {
	t.Helper()
	osR, appR := reversed(osL), reversed(appL)
	sp, err := partition.Parse("interval,every=2,grain=1")
	if err != nil {
		t.Fatal(err)
	}
	if sp, err = sp.WithDefaults(8); err != nil {
		t.Fatal(err)
	}
	return []Group{
		{OS: osL, App: appL, Configs: equivalenceGrid},
		{OS: osR, App: appR, Configs: equivalenceGrid},
		{OS: osR, App: appL, Configs: []cache.Config{
			{Size: 8 << 10, Line: 32, Assoc: 8, Part: sp.Initial()},
			{Size: 2 << 10, Line: 32, Assoc: 2, Part: cache.Partition{OSWays: 1, AppWays: 1}},
			{Size: 1 << 10, Line: 32, Assoc: 1},
		}},
	}, sp
}

// attachObservers gives every config with lines of at most 32 B a
// digesting observer, so the wider-line streams run unobserved, and every
// config partitioned by sp's initial split a repartitioning controller as
// well, bound as its setup.
func attachObservers(sp partition.Spec, cfgs []cache.Config) ([]obs.Observer, []CacheSetup, groupRun) {
	observers := make([]obs.Observer, len(cfgs))
	setups := make([]CacheSetup, len(cfgs))
	run := groupRun{seqs: make([]*seqObserver, len(cfgs)), ctrls: make([]*partition.Controller, len(cfgs))}
	for i, cfg := range cfgs {
		if cfg.Line > 32 {
			continue
		}
		run.seqs[i] = &seqObserver{}
		observers[i] = run.seqs[i]
		if cfg.Part == sp.Initial() {
			k := partition.NewController(sp, 16, nil)
			run.ctrls[i] = k
			observers[i] = teeObserver{k, run.seqs[i]}
			setups[i] = k.Bind
		}
	}
	return observers, setups, run
}

// checkObserved compares one config's observer digest and controller state
// against the reference run's.
func checkObserved(t *testing.T, i int, cfg cache.Config, want, got groupRun) {
	t.Helper()
	if w, g := want.seqs[i], got.seqs[i]; w != nil && (w.n != g.n || w.digest != g.digest || w.n == 0) {
		t.Errorf("config %d %v: observer saw %d calls (digest %#x), want %d (%#x)",
			i, cfg, g.n, g.digest, w.n, w.digest)
	}
	if w, g := want.ctrls[i], got.ctrls[i]; w != nil &&
		(g.Err() != nil || w.Final() != g.Final() || w.Events() != g.Events() || !reflect.DeepEqual(w.Windows, g.Windows)) {
		t.Errorf("config %d %v: controller state differs (final %v vs %v, events %+v vs %+v, err %v)",
			i, cfg, g.Final(), w.Final(), g.Events(), w.Events(), g.Err())
	}
}

// repartitioned reports whether any controller of the run moved a way.
func repartitioned(run groupRun) bool {
	for _, k := range run.ctrls {
		if k != nil && k.Events().Events > 0 {
			return true
		}
	}
	return false
}

// TestRunGroupsMatchesPerGroupRuns is the grouped engine's contract: one
// replay under several layout pairs equals one RunManyOpt per group — the
// same Results and, for every observed configuration, the same Begin/
// Event/Miss/Evict sequence. The groups are layoutGroups' (controllers
// bound as setups); the grouped replay runs materialised and streamed at
// chunk sizes that split unevenly across the three groups (and one smaller
// than the group count), at workers 1 and 8.
func TestRunGroupsMatchesPerGroupRuns(t *testing.T) {
	tr, osL, appL := mixedTrace(12_000, 42)
	groups, sp := layoutGroups(t, osL, appL)

	var want groupRun
	for _, g := range groups {
		observers, setups, run := attachObservers(sp, g.Configs)
		res, err := RunManyOpt(tr, g.OS, g.App, g.Configs, Options{Observers: observers, Setups: setups})
		if err != nil {
			t.Fatal(err)
		}
		want.res = append(want.res, res...)
		want.seqs = append(want.seqs, run.seqs...)
		want.ctrls = append(want.ctrls, run.ctrls...)
	}
	var all []cache.Config
	for _, g := range groups {
		all = append(all, g.Configs...)
	}
	if !repartitioned(want) {
		t.Fatal("no controller repartitioned; the dynamic group exercises nothing")
	}

	for _, chunk := range []int{0, 2, 100, 333, 1 << 10} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("chunk=%d/workers=%d", chunk, workers), func(t *testing.T) {
				src := tr
				if chunk > 0 {
					src = tr.ChunkView(chunk)
				}
				observers, setups, got := attachObservers(sp, all)
				res, err := RunGroups(src, groups, Options{Observers: observers, Setups: setups, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i, cfg := range all {
					if !reflect.DeepEqual(want.res[i], res[i]) {
						t.Errorf("config %d %v: grouped result differs from its group's RunManyOpt\n  want: %+v\n  got:  %+v",
							i, cfg, want.res[i], res[i])
					}
					checkObserved(t, i, cfg, want, got)
				}
			})
		}
	}
}

// TestRunGroupsValidation: observers and setups are sized against the
// groups' configs concatenated, every group's layouts are checked, empty
// groups are allowed, and results come back in concatenated order under
// each group's OS layout name.
func TestRunGroupsValidation(t *testing.T) {
	tr, osL, appL := mixedTrace(2_000, 5)
	osR := reversed(osL)
	cfg := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	groups := []Group{{OS: osL, App: appL, Configs: []cache.Config{cfg}}, {OS: osR, App: appL}, {OS: osR, App: appL, Configs: []cache.Config{cfg, cfg}}}
	if _, err := RunGroups(tr, groups, Options{Observers: make([]obs.Observer, 1)}); err == nil {
		t.Error("observers sized to one group accepted")
	}
	if _, err := RunGroups(tr, groups, Options{Setups: make([]CacheSetup, 4)}); err == nil {
		t.Error("setups longer than the configs accepted")
	}
	if _, err := RunGroups(tr, []Group{groups[0], {OS: osR, Configs: []cache.Config{cfg}}}, Options{}); err == nil {
		t.Error("group without the application layout accepted")
	}
	other, _, _ := mixedTrace(10, 1)
	if _, err := RunGroups(tr, []Group{groups[0], {OS: layout.NewBase(other.OS, 0), App: appL}}, Options{}); err == nil {
		t.Error("empty group with a foreign layout accepted")
	}
	res, err := RunGroups(tr, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{osL.Name, osR.Name, osR.Name}
	if len(res) != len(names) {
		t.Fatalf("%d results for 3 configs", len(res))
	}
	for i, r := range res {
		if r.LayoutName != names[i] {
			t.Errorf("result %d under layout %q, want %q", i, r.LayoutName, names[i])
		}
	}
	if !reflect.DeepEqual(res[1], res[2]) {
		t.Error("two identical configs of one group replayed differently")
	}
}

// heapSampler is an observer that collects garbage every `every` events
// and records the largest live heap it saw.
type heapSampler struct {
	every, n int
	peak     uint64
}

func (h *heapSampler) Begin(cache.Config, int) {}
func (h *heapSampler) Event(trace.Domain, uint32, uint64) {
	h.n++
	if h.n%h.every == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.peak = max(h.peak, ms.HeapAlloc)
	}
}
func (h *heapSampler) Miss(uint64, trace.Domain, cache.MissClass, uint32) {}
func (h *heapSampler) Evict(uint64, int, trace.Domain)                    {}

// TestStreamedGroupsWindowBytes checks the walk's memory bound: a window
// holds only its decoded events, whatever the group count. A replay under
// four layout pairs, whose windows carry no per-group arrays and which
// splits each reader batch into four windows, must grow the live heap by
// no more than half as much again as a one-group replay. And a
// materialised trace given no stream source walks too: its replay must
// grow the live heap by less than the one compiled stream it used to
// build, beside that stream's decoded events.
func TestStreamedGroupsWindowBytes(t *testing.T) {
	tr, osL, appL := mixedTrace(100_000, 3)
	view := tr.ChunkView(32 << 10)
	cfgs := []cache.Config{{Size: 1 << 10, Line: 32, Assoc: 1}}
	var groups []Group
	for k := 0; k < 4; k++ {
		l := layout.NewBase(osL.Prog, uint64(k)*96)
		groups = append(groups, Group{OS: l, App: appL, Configs: cfgs})
	}
	// growth is the live heap a replay adds at its peak, sampled from an
	// observer on the first configuration while the windows are in flight.
	growth := func(src *trace.Trace, gs []Group) uint64 {
		h := &heapSampler{every: 2_000}
		observers := make([]obs.Observer, len(gs))
		observers[0] = h
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if _, err := RunGroups(src, gs, Options{Observers: observers}); err != nil {
			t.Fatal(err)
		}
		// The caller keeps its trace: a materialised one must not count as
		// freed once the walk has read it.
		runtime.KeepAlive(src)
		if h.peak < ms.HeapAlloc {
			return 0
		}
		return h.peak - ms.HeapAlloc
	}
	one, four := growth(view, groups[:1]), growth(view, groups)
	if one == 0 || four > one*3/2 {
		t.Errorf("live heap grew by %d B replaying four groups, %d B replaying one: window buffers grow with the group count", four, one)
	}
	s, err := CompileEvents(Decode(tr), tr, osL, appL, 32)
	if err != nil {
		t.Fatal(err)
	}
	compiled := uint64(s.Bytes())
	if mat := growth(tr, groups[:1]); mat == 0 || mat >= compiled {
		t.Errorf("live heap grew by %d B replaying the materialised trace with no stream source, want 0 < growth < its compiled stream's %d B", mat, compiled)
	}
}

// panicReader yields its first window and panics on the next Read, a fault
// inside the streamed replay's producer goroutine.
type panicReader struct {
	r     trace.Reader
	reads int
}

func (p *panicReader) Read() ([]trace.Event, error) {
	if p.reads++; p.reads > 1 {
		panic("source fault")
	}
	return p.r.Read()
}

// TestRunGroupsHandsPanicToCaller: a panic inside a replay goroutine — a
// cache setup's eviction hook in a parallel drive unit, or the streamed
// producer's trace source — must reach the RunGroups caller as a panic in
// its own goroutine, where a recover can catch it, instead of ending the
// process.
func TestRunGroupsHandsPanicToCaller(t *testing.T) {
	tr, osL, appL := mixedTrace(12_000, 42)
	cfgs := []cache.Config{
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 512, Line: 32, Assoc: 2},
		{Size: 16 << 10, Line: 32, Assoc: 4},
	}
	hookFault := make([]CacheSetup, len(cfgs))
	hookFault[2] = func(c *cache.Cache) error {
		c.SetEvictionHook(func(uint64, int, trace.Domain) { panic("hook fault") })
		return nil
	}
	sourceFault := tr.ChunkView(333)
	source := sourceFault.Source
	sourceFault.Source = func() trace.Reader { return &panicReader{r: source()} }

	for _, tc := range []struct {
		name   string
		src    *trace.Trace
		setups []CacheSetup
		want   string
	}{
		{"materialised/hook", tr, hookFault, "hook fault"},
		{"chunked/hook", tr.ChunkView(333), hookFault, "hook fault"},
		{"chunked/source", sourceFault, nil, "source fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != tc.want {
					t.Errorf("recovered %v, want %q", p, tc.want)
				}
			}()
			RunGroups(tc.src, []Group{{OS: osL, App: appL, Configs: cfgs}}, Options{Setups: tc.setups, Workers: 4})
			t.Error("RunGroups returned instead of panicking")
		})
	}
}
