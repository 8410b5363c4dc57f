package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// FuzzArchive writes arbitrary bytes as an archive's index, and as the
// object of every ID that index lists, then reads the archive back through
// List, Resolve, Get and Compare. None may panic, and Get returns a record
// only if its canonical bytes hash to the ID it resolved and the record
// carries that ID.
func FuzzArchive(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	rec := testRecord("table1", 100, "aaa")
	rec.Bench = []BenchSample{{Name: "grid/pass_cpu_s", Unit: "s", Better: "lower", Values: []float64{1, 2}}}
	rec.Bench[0].Summarize()
	id, err := s.Put(rec)
	if err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	object, err := os.ReadFile(s.objectPath(id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index, object, "latest")
	f.Add(append(index, index...), object, id[:8])
	f.Add(index, bytes.Replace(object, []byte(`"id": "`+id), []byte(`"id": "short`), 1), "latest")
	f.Add(index, bytes.Replace(object, []byte("0.031"), []byte("0.001"), 1), id)
	f.Add(index, object[:len(object)/2], "latest")
	f.Add([]byte(`{"id":"abc","kind":"bench"}`+"\n"), object, "abc")
	f.Add([]byte("not json\n"), object, "latest~1")

	f.Fuzz(func(t *testing.T, index, object []byte, ref string) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		if entries, err := s.List(); err == nil {
			for _, e := range entries {
				if !validID(e.ID) {
					t.Fatalf("List returned id %q", e.ID)
				}
				if err := os.WriteFile(s.objectPath(e.ID), object, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		var got []*Record
		for _, r := range []string{ref, "latest", "latest~1"} {
			rec, err := s.Get(r)
			if err != nil {
				continue
			}
			id, err := s.Resolve(r)
			if err != nil {
				t.Fatalf("Get(%q) succeeded, Resolve failed: %v", r, err)
			}
			hashed, err := encode(rec, "")
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(hashed)
			if hex.EncodeToString(sum[:]) != id || rec.ID != id {
				t.Fatalf("Get(%q) returned record %q that does not verify as %s", r, rec.ID, id)
			}
			got = append(got, rec)
		}
		for _, a := range got {
			for _, b := range got {
				Compare(a, b, DiffOptions{}).Render()
			}
		}
		s.SetMaxBytes(1)
		s.GC()
		s.Stats()
	})
}
