package trace

import "fmt"

// Multi-CPU traces. The packed 32-bit Event format has no spare bits for a
// CPU identifier (2 tag bits + 30 payload bits), and widening it would
// double the footprint of every single-CPU trace to serve a feature most
// replays never use. CPU identity therefore travels *beside* the merged
// event stream as a run-length schedule: the interleaver emits whole
// per-CPU segments, so the schedule is a short list of (cpu, events,
// blocks) runs — thousands of entries against millions of events. The
// shared-cache replay (simulate.RunShared) re-expands it in block events:
// markers never reach the replay engine, so its per-CPU books advance a
// cursor on each block event they are shown.

// CPURun is one contiguous slice of a merged multi-CPU event stream: the
// next Events raw events (markers included), Blocks of them block events,
// were issued by CPU.
type CPURun struct {
	CPU    int `json:"cpu"`
	Events int `json:"events"`
	Blocks int `json:"blocks"`
}

// MultiTrace is a merged multi-CPU trace: one event stream (materialised or
// header-only, exactly like Trace) plus the run-length CPU schedule aligned
// with it. The embedded Trace replays through every existing single-trace
// path; the shared-cache replay (simulate.RunShared) additionally follows
// Runs.
type MultiTrace struct {
	*Trace
	// CPUs is the number of CPUs whose traces were interleaved.
	CPUs int
	// Runs covers the whole event stream in order; the run events sum to
	// NumEvents(). Runs is always materialised, even for header-only
	// streams — it is tiny relative to the events it schedules.
	Runs []CPURun
	// PerCPU, when set on a header-only merged trace, holds each CPU's own
	// header-only trace, with the Totals the merging walk counted, for
	// CPUTrace to hand out.
	PerCPU []*Trace
}

// CheckRuns validates that the schedule covers the event stream exactly,
// names only CPUs in range and counts no more block events in a run than
// the run holds events. (Whether the block counts cover the stream's block
// events is RunShared's check: a materialised trace needs a scan for it.)
func (mt *MultiTrace) CheckRuns() error {
	if mt.CPUs < 1 {
		return fmt.Errorf("trace: multi-trace with %d CPUs", mt.CPUs)
	}
	total := 0
	for _, r := range mt.Runs {
		if r.CPU < 0 || r.CPU >= mt.CPUs {
			return fmt.Errorf("trace: run names CPU %d of %d", r.CPU, mt.CPUs)
		}
		if r.Events <= 0 {
			return fmt.Errorf("trace: run with %d events", r.Events)
		}
		if r.Blocks < 0 || r.Blocks > r.Events {
			return fmt.Errorf("trace: run with %d block events of %d", r.Blocks, r.Events)
		}
		total += r.Events
	}
	if n := mt.NumEvents(); total != n {
		return fmt.Errorf("trace: CPU schedule covers %d of %d events", total, n)
	}
	return nil
}

// CPUTrace returns CPU cpu's own trace. From a materialised merged trace it
// cuts the trace out by following the run schedule: interleaving reorders
// events across CPUs, never within one, so the result holds exactly the
// events the CPU's own trace source generates, in order. A header-only
// merged trace hands out its PerCPU trace. A header-only merged trace
// without PerCPU traces holds no events to cut, and a schedule that does
// not cover the events cannot be followed; both are refused.
func (mt *MultiTrace) CPUTrace(cpu int) (*Trace, error) {
	if cpu < 0 || cpu >= mt.CPUs {
		return nil, fmt.Errorf("trace: no CPU %d in a %d-CPU multi-trace", cpu, mt.CPUs)
	}
	if mt.Streaming() {
		if len(mt.PerCPU) != mt.CPUs {
			return nil, fmt.Errorf("trace: cannot cut CPU %d out of header-only multi-trace %q", cpu, mt.Name)
		}
		return mt.PerCPU[cpu], nil
	}
	if err := mt.CheckRuns(); err != nil {
		return nil, err
	}
	n := 0
	for _, r := range mt.Runs {
		if r.CPU == cpu {
			n += r.Events
		}
	}
	t := &Trace{Name: mt.Name, OS: mt.OS, App: mt.App, Events: make([]Event, 0, n)}
	pos := 0
	for _, r := range mt.Runs {
		if r.CPU == cpu {
			t.Events = append(t.Events, mt.Events[pos:pos+r.Events]...)
		}
		pos += r.Events
	}
	return t, nil
}
