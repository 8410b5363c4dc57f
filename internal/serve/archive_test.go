package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"oslayout/internal/expt"
	"oslayout/internal/obs"
	"oslayout/internal/runstore"
)

// newArchiveServer builds a server wired to a fresh archive store.
func newArchiveServer(t *testing.T) (*Server, *httptest.Server, *runstore.Store) {
	t.Helper()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, MaxJobs: 8, Archive: store})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, store
}

// syntheticRecord puts a hand-built record so archive endpoints can be
// tested without running jobs.
func syntheticRecord(t *testing.T, store *runstore.Store, created int64, digest string) string {
	t.Helper()
	id, err := store.Put(&runstore.Record{
		Kind:        "report",
		CreatedUnix: created,
		Manifest: obs.Manifest{
			Command:    "oslayout table1",
			Phases:     []obs.Phase{{Name: "replay", Millis: 500}},
			Results:    map[string]string{"table1": digest},
			Provenance: obs.CollectProvenance(),
		},
		Cells: []runstore.Cell{{Strategy: "base", Workload: "Shell", SizeBytes: 8192, CPU: -1, MissRate: 0.03}},
		Windows: []obs.WindowFlush{
			{Workload: "Shell", Config: "8KB", Index: 0, Total: 2, Window: obs.Window{Refs: 100, Misses: 5}},
			{Workload: "Shell", Config: "8KB", Index: 1, Total: 2, Window: obs.Window{Refs: 100, Misses: 3}},
		},
		Bench: []runstore.BenchSample{{Name: "grid/pass_cpu_s", Unit: "s", Better: "lower", Values: []float64{0.09, 0.1, 0.11}, Median: 0.1, Min: 0.09, Max: 0.11, N: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRunsEndpointsWithoutArchive(t *testing.T) {
	_, ts := newTestServer(t) // no Archive configured
	for _, path := range []string{"/api/runs", "/api/runs/latest", "/api/diff?a=latest&b=latest", "/dash"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without archive: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestRunsEndpointsEmptyArchive(t *testing.T) {
	_, ts, _ := newArchiveServer(t)
	resp, err := http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []runstore.IndexEntry
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || len(list) != 0 {
		t.Errorf("empty archive list = %d, %v", resp.StatusCode, list)
	}
	resp2, _ := http.Get(ts.URL + "/api/runs/latest")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("latest on empty archive: status %d, want 404", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	body, _ := io.ReadAll(resp3.Body)
	if resp3.StatusCode != 200 || !strings.Contains(string(body), "0 archived runs") {
		t.Errorf("empty dash = %d:\n%s", resp3.StatusCode, body)
	}
}

// TestJobAutoArchives runs a real job and checks the record lands in the
// archive with digests matching the job's results and the archive gauges
// reflecting it.
func TestJobAutoArchives(t *testing.T) {
	_, ts, store := newArchiveServer(t)
	st := submit(t, ts, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs))
	final := await(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	var rec *runstore.Record
	for time.Now().Before(deadline) {
		var err error
		if rec, err = store.Get("latest"); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rec == nil {
		t.Fatal("job completed but no record reached the archive")
	}
	if rec.Kind != "serve" {
		t.Errorf("record kind %q, want serve", rec.Kind)
	}
	if rec.Manifest.Results["table2"] != final.Results["table2"].Digest {
		t.Errorf("archived digest %s != job digest %s",
			rec.Manifest.Results["table2"], final.Results["table2"].Digest)
	}
	if !strings.Contains(rec.Manifest.Command, `"experiments":["table2"]`) {
		t.Errorf("record command %q does not carry the canonical spec", rec.Manifest.Command)
	}
	if rec.Manifest.Provenance == nil {
		t.Error("archived record has no provenance")
	}
	if len(rec.Windows) == 0 {
		t.Error("archived record has no windowed series")
	}
	fams := scrape(t, ts)
	if v := fams["oslayout_archive_runs"].Samples["oslayout_archive_runs"]; v != 1 {
		t.Errorf("oslayout_archive_runs = %v, want 1", v)
	}
	if v := fams["oslayout_archive_bytes"].Samples["oslayout_archive_bytes"]; v <= 0 {
		t.Errorf("oslayout_archive_bytes = %v, want > 0", v)
	}

	// /api/runs lists it newest-first; /api/runs/{ref} round-trips it.
	resp, err := http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []runstore.IndexEntry
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != rec.ID {
		t.Fatalf("/api/runs = %+v", list)
	}
	resp2, err := http.Get(ts.URL + "/api/runs/" + rec.ID[:10])
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got runstore.Record
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID {
		t.Errorf("prefix fetch returned %s, want %s", got.ID, rec.ID)
	}
}

// TestDiffEndpointGate exercises /api/diff against synthetic records:
// identical digests pass, drifted digests regress, and gate=1 turns the
// regression into a 409 while the regressions counter advances.
func TestDiffEndpointGate(t *testing.T) {
	_, ts, store := newArchiveServer(t)
	syntheticRecord(t, store, 100, "aaa")
	syntheticRecord(t, store, 200, "aaa")
	syntheticRecord(t, store, 300, "bbb") // drifted digest

	getDiff := func(query string) (int, *runstore.Diff) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/diff?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d runstore.Diff
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &d
	}

	code, d := getDiff("a=latest~2&b=latest~1")
	if code != 200 || d.Regressed || len(d.DigestDrift) != 0 {
		t.Errorf("identical diff = %d regressed=%v drift=%v", code, d.Regressed, d.DigestDrift)
	}
	code, d = getDiff("a=latest~1&b=latest")
	if code != 200 || !d.Regressed {
		t.Errorf("drifted diff without gate = %d regressed=%v", code, d.Regressed)
	}
	code, d = getDiff("a=latest~1&b=latest&gate=1")
	if code != http.StatusConflict || !d.Regressed {
		t.Errorf("gated drifted diff = %d regressed=%v, want 409", code, d.Regressed)
	}
	fams := scrape(t, ts)
	if v := fams["oslayout_regressions_detected_total"].Samples["oslayout_regressions_detected_total"]; v != 2 {
		t.Errorf("regressions counter = %v, want 2", v)
	}

	resp, _ := http.Get(ts.URL + "/api/diff?a=latest")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("diff missing b: status %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/api/diff?a=latest&b=zzzz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("diff unknown ref: status %d, want 404", resp.StatusCode)
	}
}

// TestDashRendersAndSurvivesGC is the dashboard's happy path plus the
// GC-eviction case: after evicting old records the dashboard still renders
// and evicted records 404.
func TestDashRendersAndSurvivesGC(t *testing.T) {
	_, ts, store := newArchiveServer(t)
	oldID := syntheticRecord(t, store, 100, "aaa")
	syntheticRecord(t, store, 200, "aaa")
	newID := syntheticRecord(t, store, 300, "bbb")

	getDash := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/dash")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("/dash status %d:\n%s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
			t.Errorf("/dash content type %q", ct)
		}
		return string(body)
	}

	body := getDash()
	for _, want := range []string{
		"3 archived runs",
		oldID[:12], newID[:12],
		"perf trajectory",
		"grid/pass_cpu_s",    // bench sparkline
		"0.1 s",              // its last median, in its unit
		"Shell 8KB",          // windowed miss-rate sparkline
		"<polyline",          // SVG actually rendered
		"/api/runs/" + newID, // record links
		"oslayout table1",    // command column
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dash missing %q", want)
		}
	}

	// Evict everything but the newest and re-render.
	store.SetMaxBytes(1)
	if _, err := store.GC(); err != nil {
		t.Fatal(err)
	}
	body = getDash()
	if !strings.Contains(body, "1 archived runs") || strings.Contains(body, oldID[:12]) {
		t.Errorf("dash after GC still shows evicted runs:\n%s", body)
	}
	resp, _ := http.Get(ts.URL + "/api/runs/" + oldID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted record fetch: status %d, want 404", resp.StatusCode)
	}
}

// TestSSEDropAndEvictionCounters covers the backpressure satellite: events
// dropped on a stalled subscriber and jobs evicted from the retained table
// both surface at /metrics.
func TestSSEDropAndEvictionCounters(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Stall a subscriber on a hub wired to the server's counter — the same
	// hook Submit seeds into every job hub — and publish past its buffer.
	hub := newEventHub()
	hub.onDrop = s.sseDropped.Inc
	_, stalled, _ := hub.subscribe()
	defer hub.unsubscribe(stalled)
	for i := 0; i < subBuffer+100; i++ {
		hub.publish(Event{Type: "window"})
	}

	// Evict: three finished jobs in a 2-slot table push the oldest out.
	for i := 0; i < 3; i++ {
		await(t, ts, submit(t, ts, fmt.Sprintf(`{"experiments":["table3"],"refs":%d}`, testRefs)).ID)
	}

	fams := scrape(t, ts)
	if v := fams["oslayout_sse_dropped_events_total"].Samples["oslayout_sse_dropped_events_total"]; v < 100 {
		t.Errorf("sse dropped counter = %v, want >= 100", v)
	}
	if v := fams["oslayout_jobs_evicted_total"].Samples["oslayout_jobs_evicted_total"]; v < 1 {
		t.Errorf("jobs evicted counter = %v, want >= 1", v)
	}
}

// TestCompareCells pins the order in which the CLI and the daemon archive
// a compare grid: size, then workload, then strategy, each aggregate cell
// followed by its per-CPU cells in shared-cache grids.
func TestCompareCells(t *testing.T) {
	grid := &expt.Compare{
		Strategies: []string{"base", "opts"},
		Sizes:      []int{4096},
		Workloads:  []string{"Shell", "Make"},
		Rates:      [][][]float64{{{0.1, 0.2}, {0.3, 0.4}}},
	}
	cell := func(s, w string, cpu int, rate float64) runstore.Cell {
		return runstore.Cell{Strategy: s, Workload: w, SizeBytes: 4096, CPU: cpu, MissRate: rate}
	}
	want := []runstore.Cell{
		cell("base", "Shell", -1, 0.1), cell("opts", "Shell", -1, 0.2),
		cell("base", "Make", -1, 0.3), cell("opts", "Make", -1, 0.4),
	}
	if got := CompareCells(grid); !slices.Equal(got, want) {
		t.Errorf("private grid cells:\n got %v\nwant %v", got, want)
	}
	grid.CPURates = [][][][]float64{{{{0.11, 0.12}, {0.21, 0.22}}, {{0.31, 0.32}, {0.41, 0.42}}}}
	want = []runstore.Cell{
		cell("base", "Shell", -1, 0.1), cell("base", "Shell", 0, 0.11), cell("base", "Shell", 1, 0.12),
		cell("opts", "Shell", -1, 0.2), cell("opts", "Shell", 0, 0.21), cell("opts", "Shell", 1, 0.22),
		cell("base", "Make", -1, 0.3), cell("base", "Make", 0, 0.31), cell("base", "Make", 1, 0.32),
		cell("opts", "Make", -1, 0.4), cell("opts", "Make", 0, 0.41), cell("opts", "Make", 1, 0.42),
	}
	if got := CompareCells(grid); !slices.Equal(got, want) {
		t.Errorf("shared grid cells:\n got %v\nwant %v", got, want)
	}
}
