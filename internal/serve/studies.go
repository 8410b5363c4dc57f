package serve

import (
	"sync"

	"oslayout"
	"oslayout/internal/obs"
)

// studyKey identifies a reusable study: every job input that shapes the
// kernel, the traces and the profiles. Jobs agreeing on these replay the
// same simulation inputs, so they can share one study — and through it the
// layout-strategy cache and the compiled-stream cache, which is what turns
// a repeated compare grid into a drive-only workload.
type studyKey struct {
	refs   uint64
	seed   int64
	stream oslayout.StreamMode
	chunk  int
}

// studyEntry is one pooled study plus the portion of its cache counters the
// server has already flushed to Prometheus. The flush bookkeeping lives on
// the entry (not the pool) so an evicted study's last jobs still account
// exactly.
type studyEntry struct {
	st    *oslayout.Study
	err   error
	ready chan struct{}

	mu           sync.Mutex
	layoutHits   uint64
	layoutMisses uint64
	streamHits   uint64
	streamMisses uint64
}

// flush adds the study's cache-counter growth since the previous flush to
// the server's Prometheus counters. The underlying totals are monotone and
// the delta is taken under the entry lock, so concurrent jobs over one
// study account each increment exactly once.
func (e *studyEntry) flush(layoutH, layoutM, streamH, streamM *obs.Counter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lh, lm := e.st.StrategyCache().Stats()
	sh, sm := e.st.StreamCacheStats()
	layoutH.Add(lh - e.layoutHits)
	layoutM.Add(lm - e.layoutMisses)
	streamH.Add(sh - e.streamHits)
	streamM.Add(sm - e.streamMisses)
	e.layoutHits, e.layoutMisses = lh, lm
	e.streamHits, e.streamMisses = sh, sm
}

// studyPoolCap bounds how many studies the server pools across jobs. Jobs
// agreeing on (refs, seed) share one study — and with it the layout-strategy
// and compiled-stream caches, so a repeated or concurrent job replays from
// memoized layouts and streams instead of regenerating and recompiling
// everything.
const studyPoolCap = 2

// studyPool is a bounded LRU of studies shared across jobs, with
// single-flight construction: concurrent jobs for one key block on the
// first builder instead of tracing the same workloads twice. Build errors
// are returned to every waiter but never cached. Evicting an entry only
// forgets it for future jobs — running jobs hold the study pointer.
type studyPool struct {
	mu      sync.Mutex
	entries map[studyKey]*studyEntry
	order   []studyKey // LRU order, oldest first
}

func newStudyPool() *studyPool {
	return &studyPool{entries: make(map[studyKey]*studyEntry)}
}

// get returns the pooled entry for the key, building the study on first
// use. The build runs outside the pool lock; other keys proceed in
// parallel.
func (p *studyPool) get(key studyKey, build func() (*oslayout.Study, error)) (*studyEntry, error) {
	p.mu.Lock()
	if e, ok := p.entries[key]; ok {
		p.touchLocked(key)
		p.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}
	e := &studyEntry{ready: make(chan struct{})}
	p.entries[key] = e
	p.order = append(p.order, key)
	p.evictLocked()
	p.mu.Unlock()

	e.st, e.err = build()
	close(e.ready)
	if e.err != nil {
		p.mu.Lock()
		if p.entries[key] == e {
			delete(p.entries, key)
			p.removeLocked(key)
		}
		p.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// touchLocked marks a key most-recently used.
func (p *studyPool) touchLocked(key studyKey) {
	p.removeLocked(key)
	p.order = append(p.order, key)
}

func (p *studyPool) removeLocked(key studyKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops the least-recently-used completed entries beyond the
// capacity; in-flight builds are never evicted.
func (p *studyPool) evictLocked() {
	for len(p.order) > studyPoolCap {
		evicted := false
		for _, k := range p.order {
			e := p.entries[k]
			select {
			case <-e.ready:
				delete(p.entries, k)
				p.removeLocked(k)
				evicted = true
			default:
			}
			if evicted {
				break
			}
		}
		if !evicted {
			return // everything in flight; retain past the bound
		}
	}
}
