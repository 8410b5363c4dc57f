package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stamp is a point on both clocks the benchmark reads: the wall clock and
// the process's CPU time (user plus system, all threads). The end-to-end
// metrics are CPU seconds: a shared host's steal time stretches wall time
// by tens of percent from one minute to the next, while the CPU time a
// pass consumes moves far less. Wall time is still reported, ungated.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// since returns the wall and CPU seconds elapsed from s to now.
func (s stamp) since() (wall, cpu float64) {
	t := now()
	return t.wall.Sub(s.wall).Seconds(), (t.cpu - s.cpu).Seconds()
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic of xs that has at least ten
// samples beyond it, and the percentile it sits at; ok is false when xs
// holds fewer than eleven samples and no such percentile exists.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s)), true
}

// heapSampler polls the Go runtime's live heap — the bytes the last
// garbage collection found reachable — on a fixed period and keeps the
// maximum seen since the last reset. The live heap is what a run must
// retain; the heap including unswept garbage swings with GC timing by tens
// of percent between identical runs. runtime/metrics reads do not stop the
// world, so polling does not perturb the timed work the way
// runtime.ReadMemStats would.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler starts polling; Close stops the poller and waits for it.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak.Store(heapBytes())
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	cur := heapBytes()
	for {
		old := h.peak.Load()
		if cur <= old || h.peak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// reset restarts the peak from the current heap size.
func (h *heapSampler) reset() { h.peak.Store(heapBytes()) }

// peakMiB returns the peak since the last reset, in MiB.
func (h *heapSampler) peakMiB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) Close() {
	close(h.stop)
	h.done.Wait()
}

// span is one timed call into a layer, made from the benchmark's own code.
type span struct {
	layer      string
	start, end time.Time
}

// ledger collects the spans and counts of a traced run. It is safe for
// concurrent use: the traced grid replays fan out like the program's own.
type ledger struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newLedger() *ledger { return &ledger{counts: make(map[string]float64)} }

// time runs f as one span of the named layer; a nil ledger just runs f.
func (l *ledger) time(layer string, f func() error) error {
	if l == nil {
		return f()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, start, end})
	l.mu.Unlock()
	return err
}

// add records a span measured elsewhere (a server-side timestamp pair).
func (l *ledger) add(layer string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, start, end})
	l.mu.Unlock()
}

// count accumulates a counter.
func (l *ledger) count(name string, v float64) {
	l.mu.Lock()
	l.counts[name] += v
	l.mu.Unlock()
}

// busy returns the summed duration of a layer's spans, in seconds.
func (l *ledger) busy(layer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t float64
	for _, s := range l.spans {
		if s.layer == layer {
			t += s.end.Sub(s.start).Seconds()
		}
	}
	return t
}

// covered returns how much of [from, to] at least one span covers, in
// seconds: the union of the span intervals clipped to the window, so
// overlapping spans of parallel replays count once.
func (l *ledger) covered(from, to time.Time) float64 {
	l.mu.Lock()
	iv := make([]span, 0, len(l.spans))
	for _, s := range l.spans {
		if s.end.After(from) && s.start.Before(to) {
			iv = append(iv, s)
		}
	}
	l.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for i, s := range iv {
		st, en := s.start, s.end
		if st.Before(from) {
			st = from
		}
		if en.After(to) {
			en = to
		}
		if i == 0 || st.After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = st, en
			continue
		}
		if en.After(curE) {
			curE = en
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total.Seconds()
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// more reports whether another pass fits the budget: it does when the
// elapsed time plus the median pass so far stays within it.
func more(start time.Time, budget time.Duration, passes []float64) bool {
	next := 0.0
	if len(passes) > 0 {
		next = median(passes)
	}
	return time.Since(start).Seconds()+next <= budget.Seconds()
}
