package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"oslayout/internal/promtest"
	"strings"
	"testing"
	"time"

	"oslayout/internal/expt"
	"oslayout/internal/obs"
)

// testRefs keeps job studies fast; large enough for stable digests.
const testRefs = 50_000

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, MaxJobs: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit posts a job spec and returns the decoded status.
func submit(t *testing.T, ts *httptest.Server, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: decoding %s: %v", body, err)
	}
	return st
}

// await polls a job until it reaches a terminal state.
func await(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

// scrape fetches /metrics and parses it with the shared strict exposition
// parser (promtest), which this test file's hand-rolled parser grew into.
func scrape(t *testing.T, ts *httptest.Server) map[string]*promtest.Family {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return promtest.Parse(t, string(body))
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	fams := scrape(t, ts)
	for name, typ := range map[string]string{
		"oslayout_jobs_started_total":  "counter",
		"oslayout_jobs_finished_total": "counter",
		"oslayout_jobs_failed_total":   "counter",
		"oslayout_jobs_running":        "gauge",
		"oslayout_uptime_seconds":      "gauge",
	} {
		f, ok := fams[name]
		if !ok {
			t.Errorf("metrics missing %s", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("%s type %q, want %q", name, f.Type, typ)
		}
	}
	if up := fams["oslayout_uptime_seconds"].Samples["oslayout_uptime_seconds"]; up < 0 {
		t.Errorf("uptime %v < 0", up)
	}
}

// TestJobLifecycle is the end-to-end digest-equality check: an experiment
// run through the HTTP job surface must render bit-identically to the same
// experiment run directly in-process (which is what the CLI does).
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	st := submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs))
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit returned %+v", st)
	}

	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	res, ok := final.Results["table2"]
	if !ok {
		t.Fatalf("no table2 result in %+v", final.Results)
	}
	if res.Rendered == "" {
		t.Fatal("done status carries no rendered output")
	}
	if obs.Digest(res.Rendered) != res.Digest {
		t.Error("result digest does not match its rendered text")
	}

	// The same experiment, run directly (the CLI path: no observers).
	env, err := expt.NewEnv(expt.Options{OSRefs: testRefs})
	if err != nil {
		t.Fatal(err)
	}
	r, err := expt.Run(env, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if want := obs.Digest(r.Render()); res.Digest != want {
		t.Errorf("HTTP job digest %s != direct run digest %s — serve path is not bit-identical", res.Digest, want)
	}

	if len(final.Phases) == 0 {
		t.Error("finished job has no recorded phases")
	}

	// Metrics reflect the completed job.
	fams := scrape(t, ts)
	if v := fams["oslayout_jobs_finished_total"].Samples["oslayout_jobs_finished_total"]; v < 1 {
		t.Errorf("jobs_finished_total = %v, want >= 1", v)
	}
	if v := fams["oslayout_refs_replayed_total"].Samples["oslayout_refs_replayed_total"]; v <= 0 {
		t.Errorf("refs_replayed_total = %v, want > 0", v)
	}
	if f, ok := fams["oslayout_phase_duration_seconds"]; !ok || f.Type != "histogram" {
		t.Error("phase duration histogram missing")
	}
}

func TestCompareJobSetsMissRateGauges(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, fmt.Sprintf(
		`{"compare":{"strategies":["base","ch"],"sizes":["8k"]},"refs":%d}`, testRefs))
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("compare job ended %s: %s", final.State, final.Error)
	}
	if _, ok := final.Results["compare"]; !ok {
		t.Fatalf("no compare result in %+v", final.Results)
	}
	fams := scrape(t, ts)
	f, ok := fams["oslayout_strategy_miss_rate"]
	if !ok {
		t.Fatal("strategy miss-rate gauge missing")
	}
	var sawBase bool
	for sample, v := range f.Samples {
		if strings.Contains(sample, `strategy="base"`) && strings.Contains(sample, `size_bytes="8192"`) {
			sawBase = true
			if v <= 0 || v >= 1 {
				t.Errorf("miss rate %s = %v, want in (0,1)", sample, v)
			}
		}
	}
	if !sawBase {
		t.Errorf("no base@8192 gauge in %v", f.Samples)
	}
}

// TestMultiCPUCompareJob runs a shared-cache multiprocessor compare grid
// and checks the daemon's per-CPU observability: one miss-rate gauge per
// (cpu, strategy) cell and the cross-CPU eviction counter, plus the
// rendered per-CPU section.
func TestMultiCPUCompareJob(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, fmt.Sprintf(
		`{"compare":{"strategies":["base"],"sizes":["8k"]},"refs":%d,"cpus":2}`, testRefs))
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("multi-CPU compare ended %s: %s", final.State, final.Error)
	}
	res, ok := final.Results["compare"]
	if !ok {
		t.Fatalf("no compare result in %+v", final.Results)
	}
	if !strings.Contains(res.Rendered, "2 CPUs sharing each cache") ||
		!strings.Contains(res.Rendered, "Per-CPU miss rates") {
		t.Errorf("rendered grid missing the multi-CPU sections:\n%s", res.Rendered)
	}
	fams := scrape(t, ts)
	f, ok := fams["oslayout_cpu_miss_rate"]
	if !ok {
		t.Fatal("per-CPU miss-rate gauge missing")
	}
	seen := map[string]bool{}
	for sample, v := range f.Samples {
		for cpu := 0; cpu < 2; cpu++ {
			label := fmt.Sprintf(`cpu="%d"`, cpu)
			if strings.Contains(sample, label) && strings.Contains(sample, `strategy="base"`) {
				seen[label] = true
				if v <= 0 || v >= 1 {
					t.Errorf("per-CPU miss rate %s = %v, want in (0,1)", sample, v)
				}
			}
		}
	}
	if len(seen) != 2 {
		t.Errorf("per-CPU gauges for %d of 2 CPUs: %v", len(seen), f.Samples)
	}
	cc, ok := fams["oslayout_crosscpu_evictions_total"]
	if !ok {
		t.Fatal("cross-CPU eviction counter missing")
	}
	var crossEvicts float64
	for _, v := range cc.Samples {
		crossEvicts += v
	}
	if crossEvicts == 0 {
		t.Error("shared-cache compare job recorded no cross-CPU evictions")
	}
}

// TestPartitionedCompareJob runs a compare grid under a dynamic way
// partition and checks the daemon's partition observability: per-region
// final-split gauges and the repartition-event counter.
func TestPartitionedCompareJob(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, fmt.Sprintf(
		`{"compare":{"strategies":["base"],"sizes":["8k"],"assoc":8,"partition":"interval,every=4,grain=1"},"refs":%d}`, testRefs))
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("partitioned compare ended %s: %s", final.State, final.Error)
	}
	res, ok := final.Results["compare"]
	if !ok {
		t.Fatalf("no compare result in %+v", final.Results)
	}
	if !strings.Contains(res.Rendered, "partition interval,os=4,app=4,every=4,grain=1") {
		t.Errorf("rendered grid missing partition header:\n%s", res.Rendered)
	}
	fams := scrape(t, ts)
	f, ok := fams["oslayout_partition_ways"]
	if !ok {
		t.Fatal("partition ways gauge missing")
	}
	var osWays, appWays float64
	for sample, v := range f.Samples {
		if !strings.Contains(sample, `strategy="base"`) || !strings.Contains(sample, `size_bytes="8192"`) {
			continue
		}
		switch {
		case strings.Contains(sample, `region="os"`):
			osWays += v
		case strings.Contains(sample, `region="app"`):
			appWays += v
		}
	}
	if osWays == 0 || appWays == 0 {
		t.Fatalf("no per-region way gauges for base@8192: %v", f.Samples)
	}
	rc, ok := fams["oslayout_repartitions_total"]
	if !ok {
		t.Fatal("repartition counter missing")
	}
	var repartitions float64
	for _, v := range rc.Samples {
		repartitions += v
	}
	if repartitions == 0 {
		t.Error("dynamic compare job recorded no repartition events")
	}
}

// TestSSEProgressWindows attaches to a job's event stream and checks live
// progress: at least two miss-rate windows arrive, and for any one
// (workload, config) replay the window indexes advance strictly
// monotonically.
func TestSSEProgressWindows(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs))

	resp, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, e)
		if e.Type == "done" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var windows, phases int
	lastIdx := map[string]int{}
	lastSeq := -1
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("event seq %d after %d — stream not ordered", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case "window":
			windows++
			key := e.Window.Workload + "|" + e.Window.Config
			if prev, ok := lastIdx[key]; ok && e.Window.Index <= prev {
				t.Fatalf("%s: window index %d after %d — not monotone", key, e.Window.Index, prev)
			}
			lastIdx[key] = e.Window.Index
		case "phase":
			phases++
		}
	}
	if windows < 2 {
		t.Errorf("saw %d progress windows, want >= 2", windows)
	}
	if phases == 0 {
		t.Error("saw no phase events")
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != string(StateDone) {
		t.Errorf("stream ended with %+v, want done/done", last)
	}

	// A late subscriber replays the history, including the terminal event.
	resp2, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	late, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(late), `"type":"done"`) {
		t.Error("late subscriber did not receive the terminal event")
	}
}

// badSpecs are job specs the submit handler must refuse with a 400.
var badSpecs = []string{
	`{}`,
	`{"experiments":["fig99"]}`,
	`{"experiments":["table2"],"compare":{"strategies":["base"],"sizes":["8k"]}}`,
	`{"compare":{"strategies":["nonesuch"],"sizes":["8k"]}}`,
	`{"compare":{"strategies":["base"],"sizes":["zero"]}}`,
	`{"compare":{"strategies":["base"]}}`,
	`{"unknown_field":1}`,
	`not json`,
	// Partition specs are checked at admission: unknown policy, the
	// reserved policy (needs SelfConfFree; compare has none), a split
	// the default direct-mapped cache cannot hold, an over-commit, and
	// way counts whose int sum wraps negative.
	`{"compare":{"strategies":["base"],"sizes":["8k"],"assoc":8,"partition":"bogus"}}`,
	`{"compare":{"strategies":["base"],"sizes":["8k"],"assoc":8,"partition":"reserved"}}`,
	`{"compare":{"strategies":["base"],"sizes":["8k"],"partition":"static"}}`,
	`{"compare":{"strategies":["base"],"sizes":["8k"],"assoc":4,"partition":"static,os=9"}}`,
	`{"compare":{"strategies":["base"],"sizes":["8k"],"assoc":4,"partition":"static,os=4611686018427387904,app=4611686018427387904,resv=4611686018427387904"}}`,
	// Cache geometry is checked at admission: an associativity whose
	// ways overflow the cache size cannot be built.
	`{"compare":{"strategies":["base"],"sizes":["8k"],"assoc":4611686018427387904},"refs":20000}`,
	`{"compare":{"strategies":["base"],"sizes":["8k"],"line":24}}`,
	// CPU counts outside 0..16 are refused at admission.
	`{"compare":{"strategies":["base"],"sizes":["8k"]},"cpus":99}`,
	`{"experiments":["cpus"],"cpus":-1}`,
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t)
	for _, spec := range badSpecs {
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, resp.StatusCode)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/api/jobs/job-999", "/api/jobs/job-999/events", "/api/jobs/job-999/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestTraceExport(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs))
	await(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []obs.TraceEvent
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("trace is not a trace_event JSON array: %v", err)
	}
	var spans int
	for _, e := range evs {
		switch e.Phase {
		case "X":
			spans++
			if e.Dur < 0 || e.Ts < 0 {
				t.Errorf("span %q has negative timing (%v, %v)", e.Name, e.Ts, e.Dur)
			}
		case "M":
		default:
			t.Errorf("unexpected event phase %q", e.Phase)
		}
	}
	if spans < 3 {
		t.Errorf("trace has %d spans, want at least study build + trace gen + experiment", spans)
	}
}

func TestJobListAndEviction(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, fmt.Sprintf(`{"experiments":["table3"],"refs":%d}`, testRefs))
		ids = append(ids, st.ID)
		await(t, ts, st.ID)
	}
	resp, err := http.Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2 (maxJobs)", len(list))
	}
	for _, st := range list {
		if st.ID == ids[0] {
			t.Error("oldest job not evicted")
		}
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes([]string{"4k", "8192", "1M"})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4096, 8192, 1 << 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ParseSizes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	for _, bad := range [][]string{{"0"}, {"-4k"}, {"x"}, {}, {"999999999999999999999k"}} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%v) accepted", bad)
		}
	}
}

func TestParseRefs(t *testing.T) {
	for in, want := range map[string]uint64{
		"400000": 400_000,
		"3m":     3 << 20,
		"400k":   400 << 10,
		"1g":     1 << 30,
		"2G":     2 << 30,
		"1K":     1 << 10,
	} {
		got, err := ParseRefs(in)
		if err != nil {
			t.Errorf("ParseRefs(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseRefs(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "0", "-3m", "x", "3mm", "17000000000000000000g", "18446744073709551616"} {
		if _, err := ParseRefs(bad); err == nil {
			t.Errorf("ParseRefs(%q) accepted", bad)
		}
	}
}

// TestSubmitRejectsOverBudgetMaterialisation is the daemon's memory-safety
// check: a spec that forces materialisation (stream=off) of a trace
// projected past the retained-memory budget must be refused with a 400 at
// submission — not accepted and OOM-killed mid-job. The same refs stream
// fine, and modest refs still materialise.
func TestSubmitRejectsOverBudgetMaterialisation(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 4, StreamBudgetBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(spec string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// 200k refs project a multi-MiB materialised footprint — modest, but
	// past this server's deliberately tiny 1 MiB budget, and still quick to
	// actually run for the admitted variants below (Close drains the queue).
	if code := post(`{"experiments":["table2"],"refs":200000,"stream":"off"}`); code != http.StatusBadRequest {
		t.Errorf("over-budget stream=off spec: status %d, want 400", code)
	}
	if code := post(`{"experiments":["table2"],"refs":200000,"stream":"bogus"}`); code != http.StatusBadRequest {
		t.Errorf("bad stream mode: status %d, want 400", code)
	}
	if code := post(`{"experiments":["table2"],"refs":200000,"chunk":-1}`); code != http.StatusBadRequest {
		t.Errorf("negative chunk: status %d, want 400", code)
	}
	// The same refs are accepted when the job may stream (auto or on).
	for _, spec := range []string{
		`{"experiments":["table2"],"refs":200000}`,
		`{"experiments":["table2"],"refs":200000,"stream":"on"}`,
	} {
		if code := post(spec); code != http.StatusAccepted {
			t.Errorf("streamable spec %s: status %d, want 202", spec, code)
		}
	}
}

// TestStreamedJobMatchesMaterialised submits the same experiment twice —
// once forcing the streaming pipeline, once with the default materialised
// path — and requires digest equality: the HTTP surface preserves the
// pipeline's bit-identity guarantee.
func TestStreamedJobMatchesMaterialised(t *testing.T) {
	_, ts := newTestServer(t)
	mat := await(t, ts, submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs)).ID)
	if mat.State != StateDone {
		t.Fatalf("materialised job ended %s: %s", mat.State, mat.Error)
	}
	str := await(t, ts, submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d,"stream":"on","chunk":4096}`, testRefs)).ID)
	if str.State != StateDone {
		t.Fatalf("streamed job ended %s: %s", str.State, str.Error)
	}
	if mat.Results["table2"].Digest != str.Results["table2"].Digest {
		t.Errorf("streamed job digest %s != materialised %s",
			str.Results["table2"].Digest, mat.Results["table2"].Digest)
	}
}

// TestExperimentJobSharesPooledStudy: experiment jobs take pooled studies
// like compare jobs. A table2 job after a compare job with the same (refs,
// seed) runs on the compare job's study — one pool entry — and builds no
// layout: its Base and 8 KB OptS come from the study's strategy cache. Its
// rendering matches table2 on an environment of its own.
func TestExperimentJobSharesPooledStudy(t *testing.T) {
	s, ts := newTestServer(t)
	cmp := await(t, ts, submit(t, ts, fmt.Sprintf(`{"compare":{"strategies":["base","opts"],"sizes":["8k"]},"refs":%d}`, testRefs)).ID)
	if cmp.State != StateDone {
		t.Fatalf("compare job ended %s: %s", cmp.State, cmp.Error)
	}
	builds := func() float64 {
		return scrape(t, ts)["oslayout_layout_cache_misses_total"].Samples["oslayout_layout_cache_misses_total"]
	}
	build0 := builds()
	tab := await(t, ts, submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs)).ID)
	if tab.State != StateDone {
		t.Fatalf("table2 job ended %s: %s", tab.State, tab.Error)
	}
	if build1 := builds(); build1 != build0 {
		t.Errorf("table2 job built %v layouts, want none on the pooled study", build1-build0)
	}
	s.studies.mu.Lock()
	pooled := len(s.studies.entries)
	s.studies.mu.Unlock()
	if pooled != 1 {
		t.Errorf("%d pooled studies, want the compare job's one", pooled)
	}

	env, err := expt.NewEnv(expt.Options{OSRefs: testRefs})
	if err != nil {
		t.Fatal(err)
	}
	r, err := expt.Run(env, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if want := obs.Digest(r.Render()); tab.Results["table2"].Digest != want {
		t.Errorf("pooled table2 digest %s, own environment %s", tab.Results["table2"].Digest, want)
	}
}

// TestManagerSurvivesPanickingJob: a job whose run panics ends failed with
// the panic message, and the worker goes on to run the next job.
func TestManagerSurvivesPanickingJob(t *testing.T) {
	m := newManager(1, 8, 0, func(j *Job) {
		if j.Spec.Refs == 1 {
			panic("run fault")
		}
		j.finish(map[string]JobResult{"table1": {Digest: "d"}}, nil)
	})
	defer m.Close()
	var jobs []*Job
	for _, refs := range []uint64{1, 2} {
		j, err := m.Submit(JobSpec{Experiments: []string{"table1"}, Refs: refs})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, j := range jobs {
		for {
			state, _, _, _, _ := j.snapshot()
			if state == StateDone || state == StateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck in %s", j.ID, state)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if state, _, _, errMsg, _ := jobs[0].snapshot(); state != StateFailed || !strings.Contains(errMsg, "run fault") {
		t.Errorf("panicking job ended %s (%q), want failed with the panic message", state, errMsg)
	}
	if state, _, _, errMsg, _ := jobs[1].snapshot(); state != StateDone {
		t.Errorf("the job after the panic ended %s (%q), want done", state, errMsg)
	}
}

// TestCompareJobsShareStudyAndStreams is the cross-job memoization check:
// three identical compare jobs must render identically on one pooled
// study. The first sights each stream for the first time and compiles
// none, the second compiles them, and the third replays entirely from the
// compiled streams — new stream hits, zero new stream misses or layout
// builds.
func TestCompareJobsShareStudyAndStreams(t *testing.T) {
	_, ts := newTestServer(t)
	spec := fmt.Sprintf(`{"compare":{"strategies":["base","opts"],"sizes":["4k","8k"]},"refs":%d}`, testRefs)
	counters := func() (hits, misses, builds float64) {
		fams := scrape(t, ts)
		return fams["oslayout_streamcache_hits_total"].Samples["oslayout_streamcache_hits_total"],
			fams["oslayout_streamcache_misses_total"].Samples["oslayout_streamcache_misses_total"],
			fams["oslayout_layout_cache_misses_total"].Samples["oslayout_layout_cache_misses_total"]
	}
	job := func(n int) JobStatus {
		t.Helper()
		st := await(t, ts, submit(t, ts, spec).ID)
		if st.State != StateDone {
			t.Fatalf("job %d ended %s: %s", n, st.State, st.Error)
		}
		return st
	}

	first := job(1)
	hits1, miss1, _ := counters()
	if miss1 != 0 || hits1 != 0 {
		t.Fatalf("first compare job compiled %v streams and hit %v, want neither", miss1, hits1)
	}
	second := job(2)
	_, miss2, build2 := counters()
	if miss2 == 0 {
		t.Fatal("second compare job compiled no streams")
	}
	third := job(3)
	hits3, miss3, build3 := counters()
	for n, st := range []JobStatus{second, third} {
		if st.Results["compare"].Digest != first.Results["compare"].Digest {
			t.Errorf("repeat compare job %d rendered differently: %s vs %s",
				n+2, st.Results["compare"].Digest, first.Results["compare"].Digest)
		}
	}
	if hits3 <= hits1 {
		t.Errorf("third job hit no compiled streams (hits %v -> %v)", hits1, hits3)
	}
	if miss3 != miss2 {
		t.Errorf("third job compiled %v fresh streams, want full reuse", miss3-miss2)
	}
	if build3 != build2 {
		t.Errorf("third job built %v fresh layouts, want full reuse", build3-build2)
	}

	// A different seed must not share the pooled study.
	other := await(t, ts, submit(t, ts, fmt.Sprintf(
		`{"compare":{"strategies":["base"],"sizes":["8k"]},"refs":%d,"seed":7}`, testRefs)).ID)
	if other.State != StateDone {
		t.Fatalf("seeded job ended %s: %s", other.State, other.Error)
	}
	if d := await(t, ts, submit(t, ts, spec).ID); d.Results["compare"].Digest != first.Results["compare"].Digest {
		t.Error("original compare job no longer reproduces after a seeded job ran")
	}
}
