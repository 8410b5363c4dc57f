package expt

import (
	"testing"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/obs"
)

// TestRecordReplayRefs checks the recorder's replay.refs count, which the
// throughput metrics divide by: each Eval, EvalMany and EvalManyConfigured
// call adds exactly its trace's references, on a materialised and on a
// streaming environment, and a call with no configurations adds nothing.
func TestRecordReplayRefs(t *testing.T) {
	cfgs := []cache.Config{DefaultCache, {Size: 4 << 10, Line: 16, Assoc: 2}}
	for _, streaming := range []bool{false, true} {
		mode := oslayout.StreamOff
		if streaming {
			mode = oslayout.StreamOn
		}
		rec := obs.NewRecorder()
		e, err := NewEnv(Options{OSRefs: 60_000, Stream: mode, ChunkEvents: 4 << 10, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if e.St.Streaming() != streaming {
			t.Fatalf("study streaming = %v, want %v", e.St.Streaming(), streaming)
		}
		osL := e.Base()
		calls := []struct {
			name string
			call func(i int) error
		}{
			{"Eval", func(i int) error {
				_, err := e.Eval(i, osL, nil, cfgs[0])
				return err
			}},
			{"EvalMany", func(i int) error {
				_, err := e.EvalMany(i, osL, nil, cfgs)
				return err
			}},
			{"EvalManyConfigured", func(i int) error {
				_, err := e.EvalManyConfigured(i, osL, nil, cfgs, nil, nil)
				return err
			}},
		}
		refs := func() uint64 { return rec.Counters()["replay.refs"] }
		for i, d := range e.St.Data {
			osRefs, appRefs := d.Trace.Refs()
			for _, c := range calls {
				before := refs()
				if err := c.call(i); err != nil {
					t.Fatalf("streaming=%v %s %s: %v", streaming, c.name, d.Workload.Name, err)
				}
				if got, want := refs()-before, osRefs+appRefs; got != want || want == 0 {
					t.Errorf("streaming=%v %s %s: replay.refs grew by %d, trace has %d references",
						streaming, c.name, d.Workload.Name, got, want)
				}
			}
			before := refs()
			if _, err := e.EvalMany(i, osL, nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := refs() - before; got != 0 {
				t.Errorf("streaming=%v %s: EvalMany with no configurations added %d references", streaming, d.Workload.Name, got)
			}
		}
	}
}
