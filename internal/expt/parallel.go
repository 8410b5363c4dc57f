package expt

import (
	"runtime"
	"sync"
)

// parEach runs f(0..n-1) concurrently, bounded by the environment's
// configured parallelism (Options.Par, the CLI's -par): job-level fan-out
// and the replay engine's drive-level worker pool answer to the same knob,
// so -par 1 forces a fully sequential run.
func (e *Env) parEach(n int, f func(i int) error) error {
	return parEachN(e.par, n, f)
}

// parEachN runs f(0..n-1) concurrently, bounded by the given worker count
// (non-positive selects GOMAXPROCS), and returns the error of the LOWEST
// failing index — the same error a sequential loop would return — so a
// failing sweep reports deterministically regardless of worker scheduling.
// Cache simulations are pure (each run builds its own cache and only reads
// the shared trace, layout and program), so the sweep experiments fan their
// grid points out across cores. Layout builds are safe from any goroutine
// but serialise under the strategy-cache lock (which owns the kernel
// weights), so callers build all layouts first, then evaluate in parallel.
//
// A panic in f stops the hand-out and is re-raised in the caller's
// goroutine once every worker has returned, as a sequential loop would
// raise it, so a recover up the caller's stack (the serve daemon's per-job
// one) sees it instead of the process dying.
func parEachN(workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		first    error
		failIdx  int = n
		next     int
		panicked any
	)
	// Tasks are handed out in index order and hand-out stops at the lowest
	// failing index seen so far, so every index below the globally lowest
	// failure is guaranteed to run: the recorded (failIdx, first) pair is
	// exactly what a sequential loop would have stopped on.
	grab := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || next >= failIdx {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		if i < failIdx {
			failIdx = i
			first = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					failIdx = -1 // hand out nothing more
					mu.Unlock()
				}
			}()
			for {
				i, ok := grab()
				if !ok {
					return
				}
				if err := f(i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return first
}
