package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newWorker starts one ordinary daemon (a shard worker) on httptest.
func newWorker(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, MaxJobs: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// newCoordinator starts a coordinator over the given peer URLs with a fast
// retry policy suitable for tests.
func newCoordinator(t *testing.T, peers ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Workers: 2, MaxJobs: 8,
		Coordinator:   true,
		Peers:         peers,
		ShardAttempts: 10,
		ShardBackoff:  10 * time.Millisecond,
		ShardTimeout:  time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// singleProcessDigests runs the spec on a plain daemon and returns its
// result digests — the bit-identity baseline for every coordinator test.
func singleProcessDigests(t *testing.T, spec string) map[string]JobResult {
	t.Helper()
	_, ts := newWorker(t)
	st := await(t, ts, submit(t, ts, spec).ID)
	if st.State != StateDone {
		t.Fatalf("single-process run failed: %s", st.Error)
	}
	return st.Results
}

// The tentpole invariant: a compare grid fanned out over two workers must
// merge to the same digest (and the same rendered bytes) as a
// single-process run of the identical spec.
func TestCoordinatorCompareMatchesSingleProcess(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	cs, coord := newCoordinator(t, w1.URL, w2.URL)

	spec := fmt.Sprintf(`{"compare":{"strategies":["base","opts"],"sizes":["4k","8k"]},"refs":%d}`, testRefs)
	st := await(t, coord, submit(t, coord, spec).ID)
	if st.State != StateDone {
		t.Fatalf("distributed job failed: %s", st.Error)
	}
	want := singleProcessDigests(t, spec)
	got := st.Results["compare"]
	if got.Digest != want["compare"].Digest {
		t.Fatalf("merged digest %s != single-process digest %s", got.Digest, want["compare"].Digest)
	}
	if got.Rendered != want["compare"].Rendered {
		t.Fatalf("merged render differs from single-process render:\n--- merged ---\n%s\n--- single ---\n%s",
			got.Rendered, want["compare"].Rendered)
	}

	// Both workers actually executed shards (8 shards over 2 idle workers
	// cannot land on one) and the fleet metrics saw them.
	fams := scrape(t, coord)
	if f := fams["oslayout_shards_completed_total"]; f == nil || len(f.Samples) < 2 {
		t.Fatalf("expected per-worker completion samples for both workers, got %+v", f)
	}
	if f := fams["oslayout_fleet_workers"]; f == nil || f.Samples["oslayout_fleet_workers"] != 2 {
		t.Fatalf("fleet gauge = %+v, want 2", f)
	}
	if cs.fleet.size() != 2 {
		t.Fatalf("fleet size %d, want 2", cs.fleet.size())
	}
}

// Worker-loss recovery: one "worker" of the fleet answers every shard with
// a 500 (a daemon that died mid-grid behaves the same from the
// coordinator's side: its shards fail and are reassigned). The job must
// still complete with the single-process digest, and the reassignment
// counter must show the recovery happened.
func TestCoordinatorWorkerLossRecovery(t *testing.T) {
	_, live := newWorker(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker lost mid-grid", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	_, coord := newCoordinator(t, live.URL, dead.URL)
	spec := fmt.Sprintf(`{"compare":{"strategies":["base","opts"],"sizes":["4k"]},"refs":%d}`, testRefs)
	st := await(t, coord, submit(t, coord, spec).ID)
	if st.State != StateDone {
		t.Fatalf("job did not survive the lost worker: %s", st.Error)
	}
	want := singleProcessDigests(t, spec)
	if got := st.Results["compare"].Digest; got != want["compare"].Digest {
		t.Fatalf("post-recovery digest %s != single-process digest %s", got, want["compare"].Digest)
	}
	fams := scrape(t, coord)
	if f := fams["oslayout_shard_reassignments_total"]; f == nil ||
		f.Samples["oslayout_shard_reassignments_total"] < 1 {
		t.Fatalf("oslayout_shard_reassignments_total = %+v, want >= 1", f)
	}
}

// Experiment jobs shard one experiment per worker round trip and the union
// of the results must match a single-process multi-experiment job.
func TestCoordinatorExperimentsMatchSingleProcess(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	_, coord := newCoordinator(t, w1.URL, w2.URL)

	spec := fmt.Sprintf(`{"experiments":["table2","table3"],"refs":%d}`, testRefs)
	st := await(t, coord, submit(t, coord, spec).ID)
	if st.State != StateDone {
		t.Fatalf("distributed experiments failed: %s", st.Error)
	}
	want := singleProcessDigests(t, spec)
	if len(st.Results) != len(want) {
		t.Fatalf("merged %d results, want %d", len(st.Results), len(want))
	}
	for name, r := range want {
		if st.Results[name].Digest != r.Digest {
			t.Errorf("%s: merged digest %s != single-process %s", name, st.Results[name].Digest, r.Digest)
		}
	}
}

// Private multiprocessor grids shard along the per-CPU-trace axis; the
// merged aggregates must still come out bit-identical.
func TestCoordinatorPrivateCpusMatchesSingleProcess(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	_, coord := newCoordinator(t, w1.URL, w2.URL)

	spec := fmt.Sprintf(`{"compare":{"strategies":["base","opts"],"sizes":["8k"],"private":true},"cpus":2,"refs":%d}`, testRefs)
	st := await(t, coord, submit(t, coord, spec).ID)
	if st.State != StateDone {
		t.Fatalf("distributed private grid failed: %s", st.Error)
	}
	want := singleProcessDigests(t, spec)
	if got := st.Results["compare"].Digest; got != want["compare"].Digest {
		t.Fatalf("merged private digest %s != single-process %s", got, want["compare"].Digest)
	}
	if !strings.Contains(st.Results["compare"].Rendered, "private caches") {
		t.Fatalf("merged private render missing its label:\n%s", st.Results["compare"].Rendered)
	}
}

// A coordinator with no registered workers fails jobs fast with a clear
// message instead of hanging.
func TestCoordinatorNoWorkers(t *testing.T) {
	_, coord := newCoordinator(t)
	st := await(t, coord, submit(t, coord, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs)).ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "no workers") {
		t.Fatalf("state %s error %q, want failure mentioning no workers", st.State, st.Error)
	}
}

// Workers self-register over POST /api/workers (the -join path), and the
// fleet listing reflects them.
func TestWorkerRegistration(t *testing.T) {
	_, worker := newWorker(t)
	_, coord := newCoordinator(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := RegisterWithCoordinator(ctx, coord.URL, worker.URL, 2, t.Logf); err != nil {
		t.Fatalf("RegisterWithCoordinator: %v", err)
	}
	resp, err := http.Get(coord.URL + "/api/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet []WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 || fleet[0].URL != worker.URL || fleet[0].Slots != 2 {
		t.Fatalf("fleet = %+v, want the one registered worker with 2 slots", fleet)
	}

	// A registered fleet executes jobs end to end.
	st := await(t, coord, submit(t, coord, fmt.Sprintf(`{"experiments":["table2"],"refs":%d}`, testRefs)).ID)
	if st.State != StateDone {
		t.Fatalf("job over self-registered worker failed: %s", st.Error)
	}

	// Bad registrations are rejected.
	resp2, err := http.Post(coord.URL+"/api/workers", "application/json",
		strings.NewReader(`{"url":"not a url"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad registration answered %d, want 400", resp2.StatusCode)
	}
}

// Mode separation: a coordinator serves no /api/shard and a worker serves
// no /api/workers.
func TestCoordinatorWorkerRouteSeparation(t *testing.T) {
	_, worker := newWorker(t)
	_, coord := newCoordinator(t)
	if resp, err := http.Post(coord.URL+"/api/shard", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("coordinator /api/shard = %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Post(worker.URL+"/api/workers", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("worker /api/workers = %d, want 404", resp.StatusCode)
		}
	}
}

// badShards are shard specs a worker must refuse with a 400 before it
// leases a study: a coordinator retries anything else on other workers.
var badShards = []string{
	`{"job":{"compare":{"strategies":["base"],"sizes":["8k"]},"refs":20000},"index":0,"of":1,"shard":{"workloads":[9]}}`,
	`{"job":{"compare":{"strategies":["base"],"sizes":["8k"]},"refs":20000},"index":0,"of":1,"shard":{"strategies":[]}}`,
	`{"job":{"experiments":["table1"],"refs":20000},"index":0,"of":1,"experiment":"nope"}`,
	`{"job":{"experiments":["table1"],"refs":20000},"index":5,"of":1,"experiment":"table2"}`,
	`{"job":{"experiments":["table1"],"refs":20000},"index":0,"of":1,"experiment":"table2"}`,
	`{"job":{"experiments":["table1"],"refs":20000},"index":-1,"of":1,"experiment":"table1"}`,
	`{"job":{"compare":{"strategies":["base"],"sizes":["8k"]},"refs":20000},"index":0,"of":0,"shard":{"workloads":[0]}}`,
	`{"job":{"compare":{"strategies":["base"],"sizes":["8k"]},"cpus":2,"refs":20000},"index":0,"of":1,"shard":{"cpus":[0]}}`,
	`{"job":{"compare":{"strategies":["base"],"sizes":["8k"],"private":true},"cpus":2,"refs":20000},"index":0,"of":1,"shard":{"cpus":[2]}}`,
}

func TestWorkerRejectsBadShards(t *testing.T) {
	s, worker := newWorker(t)
	for _, spec := range badShards {
		resp, err := http.Post(worker.URL+"/api/shard", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("shard %s: status %d, want 400", spec, resp.StatusCode)
		}
	}
	if n := s.shardsExecuted.Value(); n != 0 {
		t.Errorf("worker executed %v bad shards", n)
	}
}

// decompose packing: shardRefs 0 is one cell per shard; a large target
// packs a workload's whole strategy row into one shard; experiments shard
// one per name. Every compare shard must carry a mask.
func TestDecompose(t *testing.T) {
	spec := JobSpec{
		Compare: &CompareSpec{Strategies: []string{"base", "opts"}, Sizes: []string{"4k", "8k"}},
		Refs:    testRefs,
	}
	if err := spec.validate(1 << 30); err != nil {
		t.Fatal(err)
	}
	fine, err := decompose(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 paper workloads x 2 strategies at the finest grain.
	if len(fine) != 8 {
		t.Fatalf("finest-grain shards = %d, want 8", len(fine))
	}
	for i, sh := range fine {
		if sh.Shard == nil || len(sh.Shard.Workloads) != 1 || len(sh.Shard.Strategies) != 1 {
			t.Fatalf("shard %d mask = %+v, want one (workload, strategy) cell", i, sh.Shard)
		}
		if sh.Index != i || sh.Of != len(fine) {
			t.Fatalf("shard %d stamped %d/%d", i, sh.Index, sh.Of)
		}
	}
	packed, err := decompose(spec, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	// A huge target packs each workload's full strategy row: one shard per
	// workload.
	if len(packed) != 4 {
		t.Fatalf("packed shards = %d, want 4", len(packed))
	}

	espec := JobSpec{Experiments: []string{"table2", "table3"}, Refs: testRefs}
	if err := espec.validate(1 << 30); err != nil {
		t.Fatal(err)
	}
	eshards, err := decompose(espec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(eshards) != 2 || eshards[0].Experiment != "table2" || eshards[1].Experiment != "table3" {
		t.Fatalf("experiment shards = %+v", eshards)
	}

	pspec := JobSpec{
		Compare: &CompareSpec{Strategies: []string{"base"}, Sizes: []string{"4k"}, Private: true},
		Cpus:    2, Refs: testRefs,
	}
	if err := pspec.validate(1 << 30); err != nil {
		t.Fatal(err)
	}
	pshards, err := decompose(pspec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Private grids shard down to (cell, cpu): 4 workloads x 1 strategy x 2 CPUs.
	if len(pshards) != 8 {
		t.Fatalf("private shards = %d, want 8", len(pshards))
	}
	for _, sh := range pshards {
		if len(sh.Shard.CPUs) != 1 {
			t.Fatalf("private shard mask %+v, want a single-CPU group", sh.Shard)
		}
	}
}
