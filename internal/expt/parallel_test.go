package expt

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oslayout/internal/cache"
	"oslayout/internal/simulate"
)

// TestParEachLowestError injects failures at two indices and asserts parEachN
// returns the error of the lowest failing index — the sequential answer —
// regardless of worker scheduling, and that every index below that failure
// was still executed.
func TestParEachLowestError(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	errLo := errors.New("low-index failure")
	errHi := errors.New("high-index failure")
	const n = 64
	for round := 0; round < 25; round++ {
		var ran [n]int32
		err := parEachN(0, n, func(i int) error {
			atomic.StoreInt32(&ran[i], 1)
			switch i {
			case 11:
				// Delay so the high-index failure is usually recorded first:
				// the result must not depend on completion order.
				time.Sleep(200 * time.Microsecond)
				return errLo
			case 40:
				return errHi
			}
			return nil
		})
		if err != errLo {
			t.Fatalf("round %d: parEachN returned %v, want the lowest failing index's error %v", round, err, errLo)
		}
		for i := 0; i < 11; i++ {
			if atomic.LoadInt32(&ran[i]) != 1 {
				t.Fatalf("round %d: index %d below the failure never ran", round, i)
			}
		}
	}

	// No failure: every index runs exactly once.
	var count int32
	if err := parEachN(0, n, func(i int) error {
		atomic.AddInt32(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("ran %d tasks, want %d", count, n)
	}
}

// TestBatchedSweepParallelDeterminism sweeps a multi-configuration grid
// through the batched engine under parEachN with GOMAXPROCS > 1, twice, and
// asserts the two passes are identical — the determinism contract the sweep
// experiments rely on when they fan trace-sharing batches across cores.
// Running the package under -race additionally checks the concurrent
// EvalMany calls share the trace, layout and program read-only.
func TestBatchedSweepParallelDeterminism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	e, err := NewEnv(Options{OSRefs: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	grid := []cache.Config{
		{Size: 4 << 10, Line: 16, Assoc: 1},
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 2},
		{Size: 8 << 10, Line: 64, Assoc: 1},
		{Size: 16 << 10, Line: 32, Assoc: 4, Policy: cache.RandomReplacement},
	}
	base := e.Base()
	nw := len(e.St.Data)
	// Two tasks per workload so the same trace and layout are replayed by
	// concurrent workers, as in the real sweeps.
	const reps = 2
	sweep := func() [][]cache.Stats {
		out := make([][]cache.Stats, nw*reps)
		err := parEachN(0, nw*reps, func(j int) error {
			ress, err := e.EvalMany(j%nw, []simulate.Group{{OS: base, Configs: grid}}, nil, nil)
			if err != nil {
				return err
			}
			stats := make([]cache.Stats, len(ress))
			for k, r := range ress {
				stats[k] = r.Stats
			}
			out[j] = stats
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := sweep(), sweep()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two parallel batched sweeps over the same grid disagree")
	}
	for j := 0; j < nw; j++ {
		if !reflect.DeepEqual(a[j], a[j+nw]) {
			t.Fatalf("workload %d: concurrent replays of the same batch disagree", j)
		}
	}
	for k := range grid {
		if a[0][k].TotalRefs() == 0 || a[0][k].TotalMisses() == 0 {
			t.Fatalf("config %v: degenerate sweep result %+v", grid[k], a[0][k])
		}
	}
}

// TestParEachHandsPanicToCaller: a panic in one task of a parallel parEachN
// is re-raised in the caller's goroutine once the workers are done, where a
// recover (the serve daemon's per-job one) catches it.
func TestParEachHandsPanicToCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		func() {
			defer func() {
				if p := recover(); p != "task fault" {
					t.Errorf("workers=%d: recovered %v, want %q", workers, p, "task fault")
				}
			}()
			parEachN(workers, 64, func(i int) error {
				ran.Add(1)
				if i == 5 {
					panic("task fault")
				}
				return nil
			})
			t.Errorf("workers=%d: parEachN returned instead of panicking", workers)
		}()
		if n := ran.Load(); n < 6 {
			t.Errorf("workers=%d: %d tasks ran, want the failing one and those below it", workers, n)
		}
	}
}
