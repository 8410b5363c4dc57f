package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"oslayout/internal/expt"
	"oslayout/internal/obs"
)

// The worker half of the sharded serve protocol: every daemon (coordinator
// mode aside) exposes POST /api/shard, a synchronous endpoint that runs one
// shard through the unchanged compiled-stream engine and returns the
// partial result. Compare shards of one grid share the worker's pooled
// study — the expensive part (trace generation, layout builds, stream
// compilation) is paid once per (refs, seed, stream, chunk) and every
// subsequent shard replays from the memoized streams.

// handleShard executes one shard synchronously. Concurrency is bounded by
// the worker's shard semaphore (sized like its job pool); a malformed shard
// is a 400 — permanent, the coordinator fails the job — while an execution
// error is a 500 the coordinator retries elsewhere.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var spec ShardSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding shard spec: %w", err))
		return
	}
	if err := spec.Job.validate(s.budget); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.shardSem <- struct{}{}
	defer func() { <-s.shardSem }()
	res, err := s.executeShard(&spec)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// executeShard runs one shard, an experiment or a compare-grid mask, on a
// pooled study.
func (s *Server) executeShard(spec *ShardSpec) (*ShardResult, error) {
	start := time.Now()
	rec := obs.NewRecorder()
	env, release, err := s.jobEnv(&spec.Job, rec, nil)
	if err != nil {
		return nil, err
	}
	defer release()
	res := &ShardResult{Index: spec.Index, Host: hostID()}

	if c := spec.Job.Compare; c != nil {
		sizes, err := ParseSizes(c.Sizes)
		if err != nil {
			return nil, err
		}
		grid, err := env.RunCompareOpts(c.Strategies, sizes, c.Line, c.Assoc, expt.CompareOptions{
			Detail:    c.Detail,
			Partition: c.Partition,
			CPUs:      spec.Job.Cpus,
			Private:   c.Private,
			Shard:     spec.Shard,
		})
		if err != nil {
			return nil, err
		}
		res.Grid = grid
	} else {
		r, err := expt.Run(env, spec.Experiment)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Experiment, err)
		}
		rendered := r.Render()
		res.Results = map[string]JobResult{spec.Experiment: {Digest: obs.Digest(rendered), Rendered: rendered}}
	}
	counters := rec.Counters()
	res.Refs = counters["replay.refs"]
	res.Events = counters["replay.events"]
	res.Millis = float64(time.Since(start).Microseconds()) / 1e3
	s.shardsExecuted.Inc()
	return res, nil
}

// hostID identifies this worker machine in shard results and merged-run
// provenance.
func hostID() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "unknown-host"
}

// RegisterWithCoordinator announces a worker daemon to a coordinator:
// POST {url, slots} to its /api/workers, retried with backoff until the
// coordinator answers or the deadline lapses (it may simply not be up
// yet). Run it in a goroutine next to the worker's own listener; logf
// (non-nil) receives progress lines.
func RegisterWithCoordinator(ctx context.Context, coordinator, self string, slots int, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	body, err := json.Marshal(workerReg{URL: self, Slots: slots})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	backoff := time.Second
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinator+"/api/workers", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				logf("registered with coordinator %s as %s", coordinator, self)
				return nil
			}
			err = fmt.Errorf("coordinator answered %s", resp.Status)
		}
		logf("registering with coordinator %s: %v (retrying in %v)", coordinator, err, backoff)
		select {
		case <-ctx.Done():
			return fmt.Errorf("registering with coordinator %s: %w (last error: %v)", coordinator, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}
