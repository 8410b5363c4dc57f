// Package streamcache memoizes compiled line streams across replays: one
// compare grid, sweep or serve job after another asks the engine to replay
// the same (trace, layout, line size) tuple, and without a cache each such
// cell re-decodes the trace and re-expands every block event into line
// accesses. The cache implements simulate.StreamSource with a shared
// per-trace event decode and compiles a stream on its second request, not
// its first: compiling a stream and driving it once costs more than
// walking the decode, and most streams of a study are requested once. A
// key's first request (a first sighting) records the key and returns the
// decode uncompiled, which the engine walks; the second compiles the
// stream single-flight (concurrent requests for one key share a single
// compile), and later requests hit it. Decodes, compiled streams and
// sighting records share one byte-bounded LRU, so grid evaluation cost
// converges to one walk per distinct stream, one compilation per stream
// requested again, and the irreducible cache-drive work.
//
// Keys are identity-based: the trace and layout *pointers* identify the
// stream. That is the right key here — and cheap, no digesting — because
// every layout the engine replays comes out of a memoizing build cache
// (strategy.Cache, Study's app-base memo), so equal layouts are the same
// pointer; a caller constructing fresh layouts per call simply gets no
// reuse, never a wrong stream.
package streamcache

import (
	"container/list"
	"sync"

	"oslayout/internal/layout"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
)

// DefaultMaxBytes bounds the cache's estimated memory when New is given a
// non-positive limit. An 8-strategy × 3-size compare grid at the default
// 3M references per workload compiles ~312 MiB of streams; 1 GiB holds
// that whole working set (the repeat-job fast path depends on it — an LRU
// one notch smaller than a repeating scan evicts every entry just before
// its reuse), while still capping serve daemons that chew through many
// large ad-hoc jobs.
const DefaultMaxBytes = 1 << 30

// streamKey identifies one compiled stream.
type streamKey struct {
	tr   *trace.Trace
	osL  *layout.Layout
	appL *layout.Layout
	line int
}

// streamEntry is one memoized (possibly in-flight) compilation. ready is
// closed when s/err are final; elem is the entry's LRU position, nil while
// the compile is in flight (in-flight entries are never evicted).
type streamEntry struct {
	s     *simulate.Stream
	err   error
	bytes int64
	ready chan struct{}
	elem  *list.Element
}

// eventsEntry is the memoized layout-independent decode of one trace,
// shared by every stream compiled from it.
type eventsEntry struct {
	ev    *simulate.Events
	bytes int64
	ready chan struct{}
	elem  *list.Element
}

// sighting is the LRU value of a sighting record: a key requested once
// and not compiled.
type sighting streamKey

// pinned is a sighting record's byte charge. The record keeps its trace
// and layouts reachable; the decode is charged on its own, and the charge
// is the layouts' address tables, 8 B per block.
func (k streamKey) pinned() int64 {
	n := len(k.osL.Addr)
	if k.appL != nil {
		n += len(k.appL.Addr)
	}
	return 8 * int64(n)
}

// Cache is a bounded, concurrency-safe stream memo. The zero value is not
// usable; construct with New. All mutable state lives under mu; decoding and
// compilation run outside the lock so independent keys compile
// concurrently.
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	streams map[streamKey]*streamEntry
	// seen holds the sighting records, each at its LRU position.
	seen      map[streamKey]*list.Element
	events    map[*trace.Trace]*eventsEntry
	lru       *list.List // front = most recently used; values: streamKey, sighting or *trace.Trace
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns an empty cache bounded to approximately maxBytes of compiled
// stream data; non-positive means DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		streams:  make(map[streamKey]*streamEntry),
		seen:     make(map[streamKey]*list.Element),
		events:   make(map[*trace.Trace]*eventsEntry),
		lru:      list.New(),
	}
}

// Stats returns how many Stream requests were served a compiled stream
// from the memo (hits) versus compiled one (misses) — exported by the serve
// daemon as the oslayout_streamcache_{hits,misses}_total Prometheus
// counters. A request that joins an in-flight compile counts as a hit: it
// caused no work. A first sighting counts as neither: it compiles nothing
// and is served no compiled stream.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many completed entries and sighting records the
// byte bound has pushed out.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Bytes returns the estimated footprint of the completed entries and the
// sighting records.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stream implements simulate.StreamSource. A key's first request records
// the key and returns the trace's decode uncompiled (simulate.Uncompiled);
// the second compiles the stream, at most once no matter how many
// goroutines ask concurrently, and later requests are served the memoized
// stream. Errors are not cached: a key refused at its first request is
// not recorded, and one whose compile fails is forgotten, so the next
// request starts over.
func (c *Cache) Stream(t *trace.Trace, osL, appL *layout.Layout, lineSize int) (*simulate.Stream, error) {
	k := streamKey{tr: t, osL: osL, appL: appL, line: lineSize}
	c.mu.Lock()
	if e, ok := c.streams[k]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.s, e.err
	}
	el, seen := c.seen[k]
	if !seen {
		c.seen[k] = c.lru.PushFront(sighting(k))
		c.bytes += k.pinned()
		c.evictLocked()
		c.mu.Unlock()
		s, err := simulate.Uncompiled(c.eventsFor(t), t, osL, appL, lineSize)
		if err != nil {
			c.mu.Lock()
			if el, ok := c.seen[k]; ok {
				c.dropSightingLocked(k, el)
			}
			c.mu.Unlock()
		}
		return s, err
	}
	c.dropSightingLocked(k, el)
	c.misses++
	e := &streamEntry{ready: make(chan struct{})}
	c.streams[k] = e
	c.mu.Unlock()

	ev := c.eventsFor(t)
	s, err := simulate.CompileEvents(ev, t, osL, appL, lineSize)

	c.mu.Lock()
	if err != nil {
		delete(c.streams, k)
		e.err = err
	} else {
		e.s = s
		e.bytes = s.Bytes()
		e.elem = c.lru.PushFront(k)
		c.bytes += e.bytes
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return s, err
}

// eventsFor returns the trace's memoized decode, decoding at most once per
// trace across concurrent callers.
func (c *Cache) eventsFor(t *trace.Trace) *simulate.Events {
	c.mu.Lock()
	if e, ok := c.events[t]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.ev
	}
	e := &eventsEntry{ready: make(chan struct{})}
	c.events[t] = e
	c.mu.Unlock()

	ev := simulate.Decode(t)

	c.mu.Lock()
	e.ev = ev
	e.bytes = ev.Bytes()
	e.elem = c.lru.PushFront(t)
	c.bytes += e.bytes
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return ev
}

// dropSightingLocked removes k's sighting record, at LRU position el.
func (c *Cache) dropSightingLocked(k streamKey, el *list.Element) {
	c.lru.Remove(el)
	delete(c.seen, k)
	c.bytes -= k.pinned()
}

// evictLocked drops least-recently-used completed entries and sighting
// records until the footprint fits the bound. In-flight entries are not in
// the LRU and so cannot be evicted; evicting an events entry only forgets
// the decode for future requests — streams already holding it keep it
// alive themselves — and evicting a sighting record makes the key's next
// request a first sighting again.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		el := c.lru.Back()
		switch v := el.Value.(type) {
		case streamKey:
			c.bytes -= c.streams[v].bytes
			delete(c.streams, v)
			c.lru.Remove(el)
		case sighting:
			c.dropSightingLocked(streamKey(v), el)
		case *trace.Trace:
			c.bytes -= c.events[v].bytes
			delete(c.events, v)
			c.lru.Remove(el)
		}
		c.evictions++
	}
}
