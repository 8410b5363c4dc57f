package oslayout

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/program"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// smallStudy builds a fast study for API tests.
func smallStudy(t *testing.T) *Study {
	t.Helper()
	st, err := NewStudy(StudyOptions{
		Kernel: KernelConfig{Seed: 11, TotalCodeBytes: 250 << 10, PoolScale: 0.3},
		Trace:  TraceOptions{OSRefs: 300_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewStudyDefaults(t *testing.T) {
	st := smallStudy(t)
	if len(st.Data) != 4 {
		t.Fatalf("%d workloads, want 4 (paper defaults)", len(st.Data))
	}
	names := st.WorkloadNames()
	if names[0] != "TRFD_4" || names[3] != "Shell" {
		t.Fatalf("workload names = %v", names)
	}
	for _, d := range st.Data {
		if d.OSProfile.Total() == 0 {
			t.Fatalf("%s: empty OS profile", d.Workload.Name)
		}
		if d.Workload.HasApp() != (d.App != nil) {
			t.Fatalf("%s: app presence mismatch", d.Workload.Name)
		}
		if d.Workload.HasApp() && d.AppProfile == nil {
			t.Fatalf("%s: missing app profile", d.Workload.Name)
		}
	}
	if st.AvgOS == nil || st.AvgOS.Total() == 0 {
		t.Fatal("averaged profile missing")
	}
}

func TestProfileSwitching(t *testing.T) {
	st := smallStudy(t)
	weight := func(prof *Profile) uint64 {
		t.Helper()
		var w uint64
		if err := st.WithProfile(prof, func(k *Program) error {
			w = k.TotalWeight()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w0, w3 := weight(st.Data[0].OSProfile), weight(st.Data[3].OSProfile)
	if w0 == w3 {
		t.Fatal("switching profiles did not change kernel weights")
	}
	if w0 != st.Data[0].OSProfile.Total() || w3 != st.Data[3].OSProfile.Total() {
		t.Fatal("WithProfile did not read the profile it applied")
	}
	// A build in between applies the averaged profile; the next reader
	// still sees its own.
	mustBuild(t, st, "opts", 8<<10)
	if weight(st.Data[0].OSProfile) != w0 {
		t.Fatal("a build's averaged weights leaked into a later reader")
	}
}

// TestOptimizeFrom checks the unmemoized per-profile build: a workload's
// own profile places differently from the averaged one, equal calls place
// identically but return fresh plans, and the memoized averaged build is
// untouched by either.
func TestOptimizeFrom(t *testing.T) {
	st := smallStudy(t)
	params := DefaultPlacementParams(8 << 10)
	avg, err := st.Optimize(params)
	if err != nil {
		t.Fatal(err)
	}
	own, err := st.OptimizeFrom(st.Data[0].OSProfile, params)
	if err != nil {
		t.Fatal(err)
	}
	again, err := st.OptimizeFrom(st.Data[0].OSProfile, params)
	if err != nil {
		t.Fatal(err)
	}
	if own == again {
		t.Error("OptimizeFrom memoized its plan")
	}
	same := func(a, b *Plan) bool {
		for i := range a.Layout.Addr {
			if a.Layout.Addr[i] != b.Layout.Addr[i] {
				return false
			}
		}
		return true
	}
	if !same(own, again) {
		t.Error("equal OptimizeFrom calls placed differently")
	}
	if same(own, avg) {
		t.Error("a workload profile placed exactly like the averaged profile")
	}
	fromAvg, err := st.OptimizeFrom(st.AvgOS, params)
	if err != nil {
		t.Fatal(err)
	}
	if !same(fromAvg, avg) {
		t.Error("OptimizeFrom(AvgOS) differs from Optimize")
	}
	if again, _ := st.Optimize(params); again != avg {
		t.Error("Optimize lost its memoized plan")
	}
}

func TestLayoutFamilyOnStudy(t *testing.T) {
	st := smallStudy(t)
	for _, name := range []string{"base", "ch", "opts", "optl", "optcall"} {
		l, _ := mustBuild(t, st, name, 8<<10)
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// mustBuild builds a registered strategy's kernel layout, failing the test
// on error.
func mustBuild(t testing.TB, st *Study, name string, cacheSize int) (*Layout, *Plan) {
	t.Helper()
	l, plan, err := st.BuildStrategy(name, cacheSize)
	if err != nil {
		t.Fatal(err)
	}
	return l, plan
}

func TestEvaluateAgainstEachLayout(t *testing.T) {
	st := smallStudy(t)
	cfg := CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _ := mustBuild(t, st, "base", 0)
	_, plan := mustBuild(t, st, "opts", cfg.Size)
	for i := range st.Data {
		rb, err := st.Evaluate(i, base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := st.Evaluate(i, plan.Layout, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Stats.TotalRefs() != ro.Stats.TotalRefs() {
			t.Fatalf("%s: reference counts differ across layouts (%d vs %d)",
				st.Data[i].Workload.Name, rb.Stats.TotalRefs(), ro.Stats.TotalRefs())
		}
		if ro.Stats.TotalMisses() >= rb.Stats.TotalMisses() {
			t.Errorf("%s: OptS (%d) did not beat Base (%d)",
				st.Data[i].Workload.Name, ro.Stats.TotalMisses(), rb.Stats.TotalMisses())
		}
	}
}

func TestAppOptLayout(t *testing.T) {
	st := smallStudy(t)
	_, plan := mustBuild(t, st, "opts", 8<<10)
	hot := OSHotBytes(plan, 8<<10)
	if hot <= 0 || hot > 8<<10 {
		t.Fatalf("OSHotBytes = %d", hot)
	}
	for i, d := range st.Data {
		appPlan, err := st.AppOptLayout(i, 8<<10, hot)
		if err != nil {
			t.Fatal(err)
		}
		if d.App == nil {
			if appPlan != nil {
				t.Fatalf("%s: app plan for OS-only workload", d.Workload.Name)
			}
			continue
		}
		if appPlan == nil {
			t.Fatalf("%s: no app plan", d.Workload.Name)
		}
		if err := appPlan.Layout.Validate(); err != nil {
			t.Fatal(err)
		}
		// The app image lives in the application address region and starts
		// at the cache offset where the OS hot area ends.
		if appPlan.Layout.Base>>24 == 0 {
			t.Fatalf("%s: app layout at kernel addresses", d.Workload.Name)
		}
		if got := appPlan.Layout.Base % (8 << 10); got != uint64(hot)%(8<<10) {
			t.Fatalf("%s: app base cache offset %d, want %d", d.Workload.Name, got, hot)
		}
	}
}

func TestEvaluateSplitAndReserved(t *testing.T) {
	st := smallStudy(t)
	half := CacheConfig{Size: 4 << 10, Line: 32, Assoc: 1}
	_, plan := mustBuild(t, st, "opts", 4<<10)
	evalOne := func(cfg CacheConfig, setup CacheSetup) *Result {
		t.Helper()
		ress, err := st.EvaluateMany(1, []Group{{OS: plan.Layout, Configs: []CacheConfig{cfg}}}, nil, []CacheSetup{setup})
		if err != nil {
			t.Fatal(err)
		}
		return ress[0]
	}
	split, err := CombineSplit(half, half)
	if err != nil {
		t.Fatal(err)
	}
	res := evalOne(split, nil)
	if res.Stats.TotalRefs() == 0 {
		t.Fatal("split run produced no references")
	}
	// Both regions of a way-partitioned cache share one set index, so the
	// reserved and main configs must agree on set count: 1KB DM beside a
	// 7KB 7-way, 32 sets each.
	small := CacheConfig{Size: 1 << 10, Line: 32, Assoc: 1}
	main := CacheConfig{Size: 7 << 10, Line: 32, Assoc: 7}
	resvCfg, err := CombineReserved(small, main)
	if err != nil {
		t.Fatal(err)
	}
	lines := ReservedLines(plan.Layout, plan.SelfConfFree, resvCfg.Line)
	if len(lines) == 0 {
		t.Fatal("the SelfConfFree area occupies no lines")
	}
	resv := evalOne(resvCfg, func(c *cache.Cache) error { return c.SetReservedLines(lines) })
	// The legacy direct-mapped main config maps to 224 sets and is rejected.
	if _, err := CombineReserved(small, CacheConfig{Size: 7 << 10, Line: 32, Assoc: 1}); err == nil {
		t.Fatal("mismatched set counts accepted")
	}
	if resv.Stats.TotalRefs() != res.Stats.TotalRefs() {
		t.Fatal("reserved run saw a different reference stream")
	}
}

// TestCrossProfileRobustness mirrors the paper's observation that a layout
// built from the averaged profile works for each individual workload: the
// averaged-profile OptS layout must beat Base under every workload's trace,
// even though no single workload's profile was used alone.
func TestCrossProfileRobustness(t *testing.T) {
	st := smallStudy(t)
	cfg := CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _ := mustBuild(t, st, "base", 0)
	_, avgPlan := mustBuild(t, st, "opts", cfg.Size)
	for i := range st.Data {
		rb, err := st.Evaluate(i, base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := st.Evaluate(i, avgPlan.Layout, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Stats.Misses[trace.DomainOS] >= rb.Stats.Misses[trace.DomainOS] {
			t.Errorf("%s: averaged-profile layout did not reduce OS misses", st.Data[i].Workload.Name)
		}
	}
}

// TestStreamedStudyMatchesMaterialised checks the streamed set-up, which
// counts and profiles each header-only trace in the one walk that generates
// it: on kernels 1995 and 7 its per-workload profiles and Totals deep-equal
// a materialised study's, and it starts exactly one generator per workload.
func TestStreamedStudyMatchesMaterialised(t *testing.T) {
	for _, seed := range []int64{1995, 7} {
		build := func(mode StreamMode) *Study {
			t.Helper()
			kcfg := DefaultKernelConfig()
			kcfg.Seed = seed
			st, err := NewStudy(StudyOptions{
				Kernel: kcfg,
				Trace:  TraceOptions{OSRefs: 60_000, ChunkEvents: 4 << 10},
				Stream: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		mat := build(StreamOff)
		before := workload.Opens()
		str := build(StreamOn)
		if n := workload.Opens() - before; n != int64(len(str.Data)) {
			t.Errorf("kernel %d: streamed set-up started %d generators for %d workloads, want one each", seed, n, len(str.Data))
		}
		for i, d := range str.Data {
			m := mat.Data[i]
			if !d.Trace.Streaming() || m.Trace.Streaming() {
				t.Fatalf("kernel %d, %s: wrong trace forms", seed, d.Workload.Name)
			}
			if !reflect.DeepEqual(d.OSProfile, m.OSProfile) || !reflect.DeepEqual(d.AppProfile, m.AppProfile) {
				t.Errorf("kernel %d, %s: streamed profiles differ from materialised", seed, d.Workload.Name)
			}
			if got, want := *d.Trace.Summarize(), *m.Trace.Summarize(); got != want {
				t.Errorf("kernel %d, %s: streamed Totals %+v, want %+v", seed, d.Workload.Name, got, want)
			}
		}
		if !reflect.DeepEqual(str.AvgOS, mat.AvgOS) {
			t.Errorf("kernel %d: streamed averaged profile differs", seed)
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	a := smallStudy(t)
	b := smallStudy(t)
	for i := range a.Data {
		if len(a.Data[i].Trace.Events) != len(b.Data[i].Trace.Events) {
			t.Fatalf("%s: studies differ", a.Data[i].Workload.Name)
		}
	}
	_, pa := mustBuild(t, a, "opts", 8<<10)
	_, pb := mustBuild(t, b, "opts", 8<<10)
	for i := range pa.Layout.Addr {
		if pa.Layout.Addr[i] != pb.Layout.Addr[i] {
			t.Fatal("OptS layouts differ between identical studies")
		}
	}
}

// TestWarmReplayAllocation guards the warm replay path against per-block
// allocation: a single-worker EvaluateMany whose streams come from the
// study's stream cache must allocate less than 8 bytes per OS block per
// configuration. Per-block miss arrays on every Result cost 24.
func TestWarmReplayAllocation(t *testing.T) {
	st := smallStudy(t).WithDrivePar(1)
	osL, _, err := st.BuildStrategy("base", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []CacheConfig{
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 16 << 10, Line: 32, Assoc: 1},
	}
	const reps = 5
	for i := range st.Data {
		groups := []Group{{OS: osL, Configs: cfgs}}
		for w := 0; w < 2; w++ { // the first call walks, the second compiles
			if _, err := st.EvaluateMany(i, groups, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < reps; r++ {
			if _, err := st.EvaluateMany(i, groups, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCfg := float64(after.TotalAlloc-before.TotalAlloc) / reps / float64(len(cfgs))
		if limit := 8 * float64(st.Kernel.Prog.NumBlocks()); perCfg >= limit {
			t.Errorf("%s: warm replay allocates %.0f B per config, limit %.0f (8 B x %d OS blocks)",
				st.Data[i].Workload.Name, perCfg, limit, st.Kernel.Prog.NumBlocks())
		}
	}
	if hits, _ := st.StreamCacheStats(); hits == 0 {
		t.Error("warm replays never hit the stream cache")
	}
}

func TestReExportedHelpers(t *testing.T) {
	if DefaultKernelConfig().TotalCodeBytes != 940<<10 {
		t.Error("DefaultKernelConfig changed")
	}
	if len(PaperWorkloads()) != 4 {
		t.Error("PaperWorkloads should return the four paper workloads")
	}
	p := DefaultPlacementParams(8 << 10)
	if p.CacheSize != 8<<10 || p.SelfConfFreeCutoff <= 0 {
		t.Error("DefaultPlacementParams wrong")
	}
	var _ CacheStats = cache.Stats{}
	var _ Observer = (*BlockMisses)(nil)
	var _ = program.NumSeedClasses
}

// TestShapesHoldAcrossKernelSeeds rebuilds the entire study on a different
// kernel instance (different seed) and checks the headline orderings: the
// paper's conclusions must not be an artefact of one particular synthetic
// kernel.
func TestShapesHoldAcrossKernelSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed study is slow")
	}
	for _, seed := range []int64{2025, 31415} {
		st, err := NewStudy(StudyOptions{
			Kernel: KernelConfig{Seed: seed, TotalCodeBytes: 400 << 10, PoolScale: 0.5},
			Trace:  TraceOptions{OSRefs: 600_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
		base, _ := mustBuild(t, st, "base", 0)
		ch, _ := mustBuild(t, st, "ch", 0)
		_, plan := mustBuild(t, st, "opts", cfg.Size)
		var mb, mc, mo uint64
		for i := range st.Data {
			rb, err := st.Evaluate(i, base, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := st.Evaluate(i, ch, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := st.Evaluate(i, plan.Layout, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mb += rb.Stats.TotalMisses()
			mc += rc.Stats.TotalMisses()
			mo += ro.Stats.TotalMisses()
			if rc.Stats.TotalMisses() >= rb.Stats.TotalMisses() {
				t.Errorf("seed %d, %s: C-H did not beat Base", seed, st.WorkloadNames()[i])
			}
		}
		if !(mo < mc && mc < mb) {
			t.Errorf("seed %d: ordering broken: Base %d, C-H %d, OptS %d", seed, mb, mc, mo)
		}
	}
}

// TestStudyTraceRoundTripSimulation writes a study trace through the binary
// codec and checks that the reloaded trace simulates to identical results —
// the end-to-end guarantee behind `oslayout -dumptraces`.
func TestStudyTraceRoundTripSimulation(t *testing.T) {
	st := smallStudy(t)
	d := st.Data[3] // Shell: OS-only
	var buf bytes.Buffer
	if _, err := d.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := trace.ReadTrace(&buf, st.Kernel.Prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CacheConfig{Size: 8 << 10, Line: 32, Assoc: 1}
	base, _ := mustBuild(t, st, "base", 0)
	orig, err := st.Evaluate(3, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulate.Run(reloaded, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != orig.Stats {
		t.Fatalf("stats differ after round trip: %+v vs %+v", got.Stats, orig.Stats)
	}
}

func TestStrategiesAPI(t *testing.T) {
	infos := Strategies()
	byName := map[string]StrategyInfo{}
	for _, s := range infos {
		if s.Description == "" {
			t.Errorf("strategy %q has no description", s.Name)
		}
		byName[s.Name] = s
	}
	for _, want := range []string{"base", "shuffle", "mcf", "ph", "ch", "opts", "optl", "optcall"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("Strategies() missing %q", want)
		}
	}
	if byName["base"].SizeDependent || byName["ph"].SizeDependent {
		t.Error("base/ph must be size-independent")
	}
	if !byName["opts"].SizeDependent {
		t.Error("opts must be size-dependent")
	}
}

func TestBuildStrategyOnStudy(t *testing.T) {
	st := smallStudy(t)
	// Size-independent: no plan, valid layout.
	l, plan, err := st.BuildStrategy("ph", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Error("ph returned a plan; only core-algorithm strategies have one")
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("ph layout invalid: %v", err)
	}
	// Size-dependent: plan present, and the layout beats Base on the average
	// profile (the strategy is the paper's own optimiser).
	lo, plan2, err := st.BuildStrategy("opts", 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if plan2 == nil {
		t.Error("opts returned no plan")
	}
	if err := lo.Validate(); err != nil {
		t.Fatalf("opts layout invalid: %v", err)
	}
	if _, _, err := st.BuildStrategy("nonesuch", 8<<10); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestApplyProfileNames: the strategy-facing ApplyProfile names only the
// averaged profile; per-workload profiles are read through WithProfile.
func TestApplyProfileNames(t *testing.T) {
	st := smallStudy(t)
	for _, name := range []string{"avg", ""} {
		if err := st.ApplyProfile(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if w := st.Kernel.Prog.TotalWeight(); w != st.AvgOS.Total() {
			t.Errorf("%q applied total weight %d, want the averaged %d", name, w, st.AvgOS.Total())
		}
	}
	for _, bad := range []string{"w0", "w99", "w-1", "wx", "bogus"} {
		if err := st.ApplyProfile(bad); err == nil {
			t.Errorf("profile name %q accepted", bad)
		}
	}
}
