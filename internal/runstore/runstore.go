// Package runstore is the persistent run archive: a concurrency-safe,
// content-addressed, on-disk store of run records. Every CLI -report run,
// serve job, and recorded benchmark appends a Record here, turning one-shot
// instrumentation (digests, phase timings, per-cell miss rates) into a
// longitudinal series that the diff machinery (diff.go) can gate on.
//
// Layout under the store directory:
//
//	index.jsonl        append-only index, one IndexEntry per line, oldest first
//	objects/<id>.json  one Record per file, id = SHA-256 of its canonical JSON
//
// Writes are atomic (temp file + rename) and the index is append-only under
// a process-wide mutex, so concurrent archivers — the serve daemon's worker
// pool, a CLI run against the same directory — never corrupt the store. GC
// is byte-bounded: oldest records are evicted until the store fits, and the
// newest record is always kept.
package runstore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"oslayout/internal/obs"
)

// DefaultMaxBytes bounds a store's object payload before GC evicts old runs.
const DefaultMaxBytes = 256 << 20

// Record is one archived run: the manifest the CLI already writes (command,
// flags, seed, digests, phases, conflicts, provenance) plus the tables a
// longitudinal observatory needs — per-cell miss rates, windowed miss-rate
// series, and benchmark samples.
type Record struct {
	// ID is the content address: the SHA-256 hex of the record's canonical
	// JSON with this field cleared. Assigned by Put, verified by Get.
	ID string `json:"id"`
	// Kind classifies the producer: "report" (CLI -report run), "serve"
	// (daemon job), or "bench" (recorded benchmark sweep).
	Kind string `json:"kind"`
	// CreatedUnix is the archival time. It is hashed with the rest of the
	// record, so re-running the same study yields a distinct record — the
	// point of an archive is the trajectory, not deduplication.
	CreatedUnix int64 `json:"created_unix"`
	// Manifest is the run's full manifest, including result digests and
	// provenance.
	Manifest obs.Manifest `json:"manifest"`
	// Cells are per-(strategy, workload, size[, cpu]) miss rates, when the
	// run produced a compare grid or conflict reports.
	Cells []Cell `json:"cells,omitempty"`
	// Windows are windowed miss-rate series captured outside the manifest's
	// conflict reports (serve jobs stream these as SSE events).
	Windows []obs.WindowFlush `json:"windows,omitempty"`
	// Bench holds benchmark samples for kind "bench" records.
	Bench []BenchSample `json:"bench,omitempty"`
}

// Cell is one grid cell: the miss rate of a workload under a strategy at a
// cache size. CPU is -1 for the aggregate cache, >= 0 for a per-CPU rate in
// shared-cache multiprocessor runs.
type Cell struct {
	Strategy  string  `json:"strategy"`
	Workload  string  `json:"workload"`
	SizeBytes int     `json:"size_bytes"`
	CPU       int     `json:"cpu"`
	MissRate  float64 `json:"miss_rate"`
}

// Key identifies the cell independent of its rate, for cross-run matching.
func (c Cell) Key() string {
	return fmt.Sprintf("%s|%s|%d|%d", c.Strategy, c.Workload, c.SizeBytes, c.CPU)
}

// BenchSample is one metric's repeated measurements, in its own unit,
// plus the derived median and spread the noise model uses.
type BenchSample struct {
	Name string `json:"name"`
	// Unit names what Values measure; Better is "lower" or "higher", the
	// direction in which the metric improves. An empty Better reads as
	// "lower".
	Unit   string `json:"unit,omitempty"`
	Better string `json:"better,omitempty"`
	// N is the repetition count; Values holds one value per repetition.
	N      int       `json:"n"`
	Values []float64 `json:"values"`
	// Median, Min and Max summarise Values.
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize fills N, Median, Min and Max from Values.
func (b *BenchSample) Summarize() {
	if len(b.Values) == 0 {
		return
	}
	sorted := append([]float64(nil), b.Values...)
	sort.Float64s(sorted)
	b.N = len(sorted)
	b.Min = sorted[0]
	b.Max = sorted[len(sorted)-1]
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		b.Median = sorted[mid]
	} else {
		b.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
}

// Spread is the max-min range of the sample's repetitions — the raw noise
// estimate the diff band model scales.
func (b *BenchSample) Spread() float64 { return b.Max - b.Min }

// IndexEntry is one line of index.jsonl: enough to list and GC the store
// without opening every object.
type IndexEntry struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Command     string `json:"command"`
	CreatedUnix int64  `json:"created_unix"`
	Bytes       int64  `json:"bytes"`
}

// Store is an open archive directory. The zero value is not usable; call
// Open. All methods are safe for concurrent use.
type Store struct {
	dir      string
	mu       sync.Mutex
	maxBytes int64
}

// Open creates (if needed) and opens an archive rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: opening %s: %w", dir, err)
	}
	return &Store{dir: dir, maxBytes: DefaultMaxBytes}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMaxBytes adjusts the GC budget. n <= 0 disables eviction.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	s.maxBytes = n
	s.mu.Unlock()
}

// encode renders the record's canonical JSON with ID forced to the given
// value. Struct-field order plus encoding/json's sorted map keys make the
// bytes deterministic for a given record value.
func encode(rec *Record, id string) ([]byte, error) {
	clone := *rec
	clone.ID = id
	data, err := json.MarshalIndent(&clone, "", " ")
	if err != nil {
		return nil, fmt.Errorf("runstore: marshalling record: %w", err)
	}
	return append(data, '\n'), nil
}

// Put archives a record: assigns its content address, writes the object
// atomically, appends the index line, and runs GC. The record's ID field is
// set on return. Putting a record the index already lists appends nothing;
// its object is rewritten only if it is missing.
func (s *Store) Put(rec *Record) (string, error) {
	hashed, err := encode(rec, "")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(hashed)
	id := hex.EncodeToString(sum[:])
	rec.ID = id
	data, err := encode(rec, id)
	if err != nil {
		return "", err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	obj := s.objectPath(id)
	if _, err := os.Stat(obj); err != nil {
		if err := writeAtomic(filepath.Join(s.dir, "objects"), obj, data); err != nil {
			return "", err
		}
	}
	// A record identical down to CreatedUnix is the one already listed.
	entries, err := s.listLocked()
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if e.ID == id {
			return id, nil
		}
	}
	entry := IndexEntry{
		ID:          id,
		Kind:        rec.Kind,
		Command:     rec.Manifest.Command,
		CreatedUnix: rec.CreatedUnix,
		Bytes:       int64(len(data)),
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return "", err
	}
	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", err
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("runstore: appending index: %w", werr)
	}
	if _, err := s.gcLocked(); err != nil {
		return "", err
	}
	return id, nil
}

func (s *Store) objectPath(id string) string {
	return filepath.Join(s.dir, "objects", id+".json")
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }

// List returns the index, oldest first. A missing index is an empty store.
func (s *Store) List() ([]IndexEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listLocked()
}

func (s *Store) listLocked() ([]IndexEntry, error) {
	f, err := os.Open(s.indexPath())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var entries []IndexEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e IndexEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("runstore: corrupt index line %q: %w", line, err)
		}
		if !validID(e.ID) {
			return nil, fmt.Errorf("runstore: corrupt index line %q: id is not 64 hex digits", line)
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

// validID reports whether id has the form Put gives IDs: 64 lower-case hex
// digits. An index entry with any other ID is corrupt; it could also name
// a path outside the objects directory.
func validID(id string) bool {
	if len(id) != 2*sha256.Size {
		return false
	}
	for _, c := range id {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// ErrNotFound reports a ref that resolves to no archived record.
var ErrNotFound = errors.New("runstore: no such run")

// Resolve maps a user-supplied ref to a full record ID. Accepted forms:
// a full 64-hex ID, a unique ID prefix, "latest", and "latest~N" (the N-th
// record before the newest).
func (s *Store) Resolve(ref string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(ref)
}

func (s *Store) resolveLocked(ref string) (string, error) {
	entries, err := s.listLocked()
	if err != nil {
		return "", err
	}
	if ref == "latest" || strings.HasPrefix(ref, "latest~") {
		back := 0
		if rest := strings.TrimPrefix(ref, "latest~"); rest != ref {
			back, err = strconv.Atoi(rest)
			if err != nil || back < 0 {
				return "", fmt.Errorf("runstore: bad ref %q", ref)
			}
		}
		i := len(entries) - 1 - back
		if i < 0 {
			return "", fmt.Errorf("%w: %s (archive holds %d runs)", ErrNotFound, ref, len(entries))
		}
		return entries[i].ID, nil
	}
	if ref == "" {
		return "", fmt.Errorf("runstore: empty ref")
	}
	var matches []string
	for _, e := range entries {
		if e.ID == ref {
			return e.ID, nil
		}
		if strings.HasPrefix(e.ID, ref) {
			matches = append(matches, e.ID)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("%w: %s", ErrNotFound, ref)
	case 1:
		return matches[0], nil
	default:
		return "", fmt.Errorf("runstore: ambiguous ref %s (%d matches)", ref, len(matches))
	}
}

// Get resolves a ref, loads its record, and verifies the content address —
// a record whose bytes no longer hash to its ID, or that carries another
// ID, is reported as corrupt.
func (s *Store) Get(ref string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.resolveLocked(ref)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.objectPath(id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s (object evicted or missing)", ErrNotFound, id)
		}
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("runstore: corrupt record %s: %w", id, err)
	}
	hashed, err := encode(&rec, "")
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(hashed)
	if got := hex.EncodeToString(sum[:]); got != id {
		return nil, fmt.Errorf("runstore: record %s fails verification (content hashes to %s)", id, got)
	}
	if rec.ID != id {
		return nil, fmt.Errorf("runstore: record %s fails verification (it carries id %q)", id, rec.ID)
	}
	return &rec, nil
}

// Stats reports the archived run count and total object bytes, for the
// daemon's gauges.
func (s *Store) Stats() (runs int, bytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.listLocked()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		bytes += e.Bytes
	}
	return len(entries), bytes, nil
}

// GC evicts oldest records while the store exceeds its byte budget, always
// keeping the newest record. It returns the number of evicted records.
func (s *Store) GC() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

func (s *Store) gcLocked() (int, error) {
	if s.maxBytes <= 0 {
		return 0, nil
	}
	entries, err := s.listLocked()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	evict := 0
	for evict < len(entries)-1 && total > s.maxBytes {
		total -= entries[evict].Bytes
		evict++
	}
	if evict == 0 {
		return 0, nil
	}
	// Rewrite the index first (atomic), then unlink the objects: a crash
	// between the two leaves unreferenced objects, not dangling index lines.
	var buf strings.Builder
	for _, e := range entries[evict:] {
		line, err := json.Marshal(e)
		if err != nil {
			return 0, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := writeAtomic(s.dir, s.indexPath(), []byte(buf.String())); err != nil {
		return 0, err
	}
	kept := make(map[string]bool, len(entries)-evict)
	for _, e := range entries[evict:] {
		kept[e.ID] = true
	}
	for _, e := range entries[:evict] {
		if !kept[e.ID] {
			os.Remove(s.objectPath(e.ID))
		}
	}
	return evict, nil
}

// writeAtomic writes data to path via a temp file in tmpDir plus rename.
func writeAtomic(tmpDir, path string, data []byte) error {
	f, err := os.CreateTemp(tmpDir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstore: writing %s: %w", path, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
