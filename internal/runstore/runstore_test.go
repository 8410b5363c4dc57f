package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"oslayout/internal/obs"
)

func testRecord(command string, created int64, digest string) *Record {
	return &Record{
		Kind:        "report",
		CreatedUnix: created,
		Manifest: obs.Manifest{
			Command: command,
			Seed:    1995,
			Refs:    400_000,
			Phases: []obs.Phase{
				{Name: "trace-gen", Millis: 120},
				{Name: "replay", Millis: 800},
			},
			Results:    map[string]string{"table1": digest},
			Provenance: obs.CollectProvenance(),
		},
		Cells: []Cell{{Strategy: "base", Workload: "Shell", SizeBytes: 8192, CPU: -1, MissRate: 0.031}},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("table1", 100, "aaa")
	id, err := s.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(id) != 64 || rec.ID != id {
		t.Fatalf("Put returned id %q, record carries %q", id, rec.ID)
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Command != "table1" || got.Cells[0].MissRate != 0.031 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.Manifest.Provenance == nil || got.Manifest.Provenance.GoVersion == "" {
		t.Error("provenance not persisted")
	}
}

func TestContentAddressing(t *testing.T) {
	s, _ := Open(t.TempDir())
	// Identical content hashes identically; any field change moves the ID.
	id1, _ := s.Put(testRecord("table1", 100, "aaa"))
	id2, _ := s.Put(testRecord("table1", 100, "aaa"))
	if id1 != id2 {
		t.Errorf("identical records got distinct ids %s %s", id1, id2)
	}
	id3, _ := s.Put(testRecord("table1", 101, "aaa"))
	if id3 == id1 {
		t.Error("different created time, same id")
	}
	id4, _ := s.Put(testRecord("table1", 100, "bbb"))
	if id4 == id1 {
		t.Error("different digest, same id")
	}
}

// TestPutSameRecordIndexesOnce checks that runs identical down to
// CreatedUnix are one record: a second Put of it appends no index line, so
// Stats counts its object once and latest~1 names the previous distinct
// record. A Put whose object has gone missing writes it again.
func TestPutSameRecordIndexesOnce(t *testing.T) {
	s, _ := Open(t.TempDir())
	prev, err := s.Put(testRecord("table1", 100, "aaa"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Put(testRecord("table1", 101, "aaa"))
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Put(testRecord("table1", 101, "aaa"))
	if err != nil || again != id {
		t.Fatalf("second Put = %s, %v; want %s", again, err, id)
	}
	entries, _ := s.List()
	if len(entries) != 2 || entries[0].ID != prev || entries[1].ID != id {
		t.Fatalf("index = %+v, want one entry per distinct record", entries)
	}
	runs, bytes, _ := s.Stats()
	if runs != 2 || bytes != entries[0].Bytes+entries[1].Bytes {
		t.Errorf("Stats = %d runs, %d bytes; want 2 runs, %d bytes", runs, bytes, entries[0].Bytes+entries[1].Bytes)
	}
	if got, _ := s.Resolve("latest~1"); got != prev {
		t.Errorf("latest~1 = %s, want the previous distinct record %s", got, prev)
	}
	if err := os.Remove(s.objectPath(id)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testRecord("table1", 101, "aaa")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); err != nil {
		t.Errorf("Put did not restore the missing object: %v", err)
	}
	if entries, _ := s.List(); len(entries) != 2 {
		t.Errorf("restoring the object appended an index line: %d entries", len(entries))
	}
}

func TestGetDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	id, err := s.Put(testRecord("table1", 100, "aaa"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", id+".json")
	data, _ := os.ReadFile(path)
	tampered := strings.Replace(string(data), "0.031", "0.001", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	os.WriteFile(path, []byte(tampered), 0o644)
	if _, err := s.Get(id); err == nil || !strings.Contains(err.Error(), "verification") {
		t.Errorf("Get(tampered) = %v, want verification failure", err)
	}

	// The id field is not hashed, so a record whose own id was edited
	// still hashes to its name; it must fail all the same.
	relabelled := strings.Replace(string(data), `"id": "`+id+`"`, `"id": "short"`, 1)
	if relabelled == string(data) {
		t.Fatal("id field not found")
	}
	os.WriteFile(path, []byte(relabelled), 0o644)
	if rec, err := s.Get(id); err == nil || !strings.Contains(err.Error(), "verification") {
		t.Errorf("Get(relabelled) = %+v, %v, want verification failure", rec, err)
	}
}

// TestListRefusesMalformedIDs: an index line whose id is not 64 hex digits
// is corrupt, like an unparsable one, so no caller slices a short ID or
// opens a path outside the objects directory.
func TestListRefusesMalformedIDs(t *testing.T) {
	for _, id := range []string{"abc", strings.Repeat("A", 64), "../" + strings.Repeat("0", 61), ""} {
		dir := t.TempDir()
		s, _ := Open(dir)
		line := `{"id":"` + id + `","kind":"report","command":"table1","created_unix":1,"bytes":10}` + "\n"
		os.WriteFile(filepath.Join(dir, "index.jsonl"), []byte(line), 0o644)
		if entries, err := s.List(); err == nil {
			t.Errorf("List accepted id %q: %+v", id, entries)
		}
		if _, err := s.Get("latest"); err == nil {
			t.Errorf("Get(latest) accepted id %q", id)
		}
	}
}

func TestResolveRefs(t *testing.T) {
	s, _ := Open(t.TempDir())
	var ids []string
	for i := int64(0); i < 3; i++ {
		id, err := s.Put(testRecord("table1", i, "aaa"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for ref, want := range map[string]string{
		"latest":    ids[2],
		"latest~0":  ids[2],
		"latest~1":  ids[1],
		"latest~2":  ids[0],
		ids[0]:      ids[0],
		ids[1][:10]: ids[1],
	} {
		got, err := s.Resolve(ref)
		if err != nil {
			t.Errorf("Resolve(%q): %v", ref, err)
		} else if got != want {
			t.Errorf("Resolve(%q) = %s, want %s", ref, got, want)
		}
	}
	for _, bad := range []string{"latest~3", "latest~-1", "", "zzzz", "deadbeef"} {
		if _, err := s.Resolve(bad); err == nil {
			t.Errorf("Resolve(%q) accepted", bad)
		}
	}
}

func TestListOrderAndStats(t *testing.T) {
	s, _ := Open(t.TempDir())
	for i := int64(0); i < 4; i++ {
		if _, err := s.Put(testRecord("table1", i, "aaa")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("listed %d entries, want 4", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].CreatedUnix < entries[i-1].CreatedUnix {
			t.Error("index not oldest-first")
		}
	}
	runs, bytes, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if runs != 4 || bytes <= 0 {
		t.Errorf("Stats = %d runs %d bytes", runs, bytes)
	}
}

func TestGCEvictsOldestKeepsNewest(t *testing.T) {
	s, _ := Open(t.TempDir())
	var ids []string
	for i := int64(0); i < 5; i++ {
		id, err := s.Put(testRecord("table1", i, "aaa"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	entries, _ := s.List()
	perRecord := entries[0].Bytes
	// Budget for roughly two records: the three oldest must go.
	s.SetMaxBytes(2*perRecord + perRecord/2)
	evicted, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 3 {
		t.Errorf("evicted %d, want 3", evicted)
	}
	if _, err := s.Get(ids[0]); err == nil {
		t.Error("oldest record still readable after GC")
	}
	if _, err := s.Get(ids[4]); err != nil {
		t.Errorf("newest record lost to GC: %v", err)
	}
	entries, _ = s.List()
	if len(entries) != 2 {
		t.Errorf("index holds %d entries after GC, want 2", len(entries))
	}
	// A budget smaller than one record still keeps the newest.
	s.SetMaxBytes(1)
	s.GC()
	if _, err := s.Get("latest"); err != nil {
		t.Errorf("GC under tiny budget dropped the newest record: %v", err)
	}
}

func TestPutGCsAutomatically(t *testing.T) {
	s, _ := Open(t.TempDir())
	id0, _ := s.Put(testRecord("table1", 0, "aaa"))
	entries, _ := s.List()
	s.SetMaxBytes(entries[0].Bytes + entries[0].Bytes/2)
	for i := int64(1); i < 4; i++ {
		if _, err := s.Put(testRecord("table1", i, "aaa")); err != nil {
			t.Fatal(err)
		}
	}
	runs, bytes, _ := s.Stats()
	if runs != 1 {
		t.Errorf("auto-GC retained %d runs (%d bytes), want 1", runs, bytes)
	}
	if _, err := s.Get(id0); err == nil {
		t.Error("first record survived auto-GC")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Put(testRecord("table1", int64(i), "aaa")); err != nil {
				t.Errorf("concurrent Put: %v", err)
			}
		}(i)
	}
	wg.Wait()
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Errorf("archive holds %d records after 16 concurrent Puts", len(entries))
	}
	for _, e := range entries {
		if _, err := s.Get(e.ID); err != nil {
			t.Errorf("Get(%s): %v", e.ID[:12], err)
		}
	}
}

func TestEmptyStore(t *testing.T) {
	s, _ := Open(t.TempDir())
	entries, err := s.List()
	if err != nil || len(entries) != 0 {
		t.Errorf("empty List = %v, %v", entries, err)
	}
	if _, err := s.Get("latest"); err == nil {
		t.Error("Get(latest) on empty store succeeded")
	}
	runs, bytes, err := s.Stats()
	if err != nil || runs != 0 || bytes != 0 {
		t.Errorf("empty Stats = %d, %d, %v", runs, bytes, err)
	}
}

func TestBenchSampleSummarize(t *testing.T) {
	b := BenchSample{Name: "x", Values: []float64{5, 1, 3}}
	b.Summarize()
	if b.Median != 3 || b.Min != 1 || b.Max != 5 || b.N != 3 || b.Spread() != 4 {
		t.Errorf("odd summarize: %+v", b)
	}
	b = BenchSample{Name: "x", Values: []float64{4, 2}}
	b.Summarize()
	if b.Median != 3 {
		t.Errorf("even median = %v, want 3", b.Median)
	}
}
