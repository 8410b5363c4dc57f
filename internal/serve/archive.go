package serve

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"oslayout/internal/runstore"
)

// handleRuns lists the archive, newest first. An empty archive is an empty
// list; a server without an archive configured is a 404 — the resource does
// not exist, rather than existing and being empty.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		httpError(w, http.StatusNotFound, errors.New("no run archive configured (serve -archive)"))
		return
	}
	entries, err := s.archive.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// Newest first for the API, matching the dashboard and CLI listing.
	out := make([]runstore.IndexEntry, 0, len(entries))
	for i := len(entries) - 1; i >= 0; i-- {
		out = append(out, entries[i])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRun returns one archived record by ref (full ID, unique prefix,
// "latest", "latest~N").
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		httpError(w, http.StatusNotFound, errors.New("no run archive configured (serve -archive)"))
		return
	}
	rec, err := s.archive.Get(r.PathValue("ref"))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, runstore.ErrNotFound) {
			code = http.StatusNotFound
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleDiff diffs two archived runs: /api/diff?a=<ref>&b=<ref>. A
// regressed verdict increments the regressions counter, and with &gate=1
// the response is a 409 so curl -f works as a gate.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		httpError(w, http.StatusNotFound, errors.New("no run archive configured (serve -archive)"))
		return
	}
	q := r.URL.Query()
	refA, refB := q.Get("a"), q.Get("b")
	if refA == "" || refB == "" {
		httpError(w, http.StatusBadRequest, errors.New("diff needs ?a=<ref>&b=<ref>"))
		return
	}
	a, err := s.archive.Get(refA)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, runstore.ErrNotFound) {
			code = http.StatusNotFound
		}
		httpError(w, code, err)
		return
	}
	b, err := s.archive.Get(refB)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, runstore.ErrNotFound) {
			code = http.StatusNotFound
		}
		httpError(w, code, err)
		return
	}
	d := runstore.Compare(a, b, runstore.DiffOptions{})
	code := http.StatusOK
	if d.Regressed {
		s.regressions.Inc()
		if q.Get("gate") == "1" {
			code = http.StatusConflict
		}
	}
	writeJSON(w, code, d)
}

// dashRun is one row of the dashboard's trajectory table.
type dashRun struct {
	ID       string
	ShortID  string
	Kind     string
	Created  string
	Command  string
	TotalMs  float64
	EventsPS float64
}

// dashSeries is one windowed miss-rate sparkline.
type dashSeries struct {
	Label string
	Path  template.HTML // SVG polyline points
	Last  float64
}

// dashBench is one benchmark's trajectory across archived bench records.
type dashBench struct {
	Name string
	Unit string
	Path template.HTML
	Last float64
}

// dashCap bounds how many archived records the dashboard loads per render.
const dashCap = 50

var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><title>oslayout observatory</title><style>
body { font: 13px/1.5 monospace; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 1.6em; }
table { border-collapse: collapse; }
td, th { padding: 2px 10px; border-bottom: 1px solid #ddd; text-align: left; }
svg { background: #fff; border: 1px solid #ccc; }
.spark { margin: 2px 12px 2px 0; vertical-align: middle; }
.muted { color: #888; }
</style></head><body>
<h1>oslayout observatory</h1>
<p class="muted">{{.Runs}} archived runs, {{.Bytes}} bytes. <a href="/api/runs">/api/runs</a></p>
{{if .Trajectory}}
<h2>perf trajectory (total phase wall time, oldest to newest)</h2>
<svg width="640" height="120" viewBox="0 0 640 120"><polyline fill="none" stroke="#06c" stroke-width="1.5" points="{{.TrajectoryPath}}"/></svg>
{{end}}
{{if .BenchSeries}}
<h2>benchmark medians (oldest to newest)</h2>
{{range .BenchSeries}}
<div><svg class="spark" width="240" height="40" viewBox="0 0 240 40"><polyline fill="none" stroke="#090" stroke-width="1.5" points="{{.Path}}"/></svg>{{.Name}} <span class="muted">{{printf "%.4g" .Last}} {{.Unit}}</span></div>
{{end}}
{{end}}
{{if .Windows}}
<h2>windowed miss rates (latest run with window series)</h2>
{{range .Windows}}
<div><svg class="spark" width="240" height="40" viewBox="0 0 240 40"><polyline fill="none" stroke="#c30" stroke-width="1.5" points="{{.Path}}"/></svg>{{.Label}} <span class="muted">{{printf "%.4f" .Last}}</span></div>
{{end}}
{{end}}
<h2>runs (newest first)</h2>
<table><tr><th>id</th><th>kind</th><th>created</th><th>total ms</th><th>events/s</th><th>command</th></tr>
{{range .Table}}<tr><td><a href="/api/runs/{{.ID}}">{{.ShortID}}</a></td><td>{{.Kind}}</td><td>{{.Created}}</td><td>{{printf "%.0f" .TotalMs}}</td><td>{{printf "%.0f" .EventsPS}}</td><td>{{.Command}}</td></tr>
{{end}}</table>
</body></html>
`))

// handleDash renders the stdlib-only HTML dashboard: archive summary, the
// perf trajectory across archived runs, benchmark-median sparklines from
// bench records, and windowed miss-rate sparklines from the newest record
// carrying a window series.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	if s.archive == nil {
		httpError(w, http.StatusNotFound, errors.New("no run archive configured (serve -archive)"))
		return
	}
	entries, err := s.archive.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var bytes int64
	for _, e := range entries {
		bytes += e.Bytes
	}
	if len(entries) > dashCap {
		entries = entries[len(entries)-dashCap:]
	}

	var rows []dashRun // oldest first while collecting
	var totals []float64
	benchSeries := map[string][]float64{}
	benchUnits := map[string]string{}
	var windowSeries []dashSeries
	for _, e := range entries {
		rec, err := s.archive.Get(e.ID)
		if err != nil {
			continue // evicted between List and Get, or corrupt: skip the row
		}
		var total float64
		for _, p := range rec.Manifest.Phases {
			total += p.Millis
		}
		rows = append(rows, dashRun{
			ID: rec.ID, ShortID: rec.ID[:12], Kind: rec.Kind,
			Created:  time.Unix(rec.CreatedUnix, 0).UTC().Format(time.RFC3339),
			Command:  rec.Manifest.Command,
			TotalMs:  total,
			EventsPS: rec.Manifest.ReplayEventsPerSec,
		})
		totals = append(totals, total)
		for _, b := range rec.Bench {
			benchSeries[b.Name] = append(benchSeries[b.Name], b.Median)
			benchUnits[b.Name] = b.Unit
		}
		windowSeries = recordWindowSeries(rec) // keep the newest non-empty
	}

	data := struct {
		Runs           int
		Bytes          int64
		Trajectory     bool
		TrajectoryPath template.HTML
		BenchSeries    []dashBench
		Windows        []dashSeries
		Table          []dashRun
	}{Runs: len(rows), Bytes: bytes}
	if len(totals) >= 2 {
		data.Trajectory = true
		data.TrajectoryPath = sparkPath(totals, 640, 120)
	}
	for _, name := range sortedSeriesNames(benchSeries) {
		vals := benchSeries[name]
		data.BenchSeries = append(data.BenchSeries, dashBench{
			Name: name, Unit: benchUnits[name], Path: sparkPath(vals, 240, 40), Last: vals[len(vals)-1],
		})
	}
	data.Windows = windowSeries
	for i := len(rows) - 1; i >= 0; i-- {
		data.Table = append(data.Table, rows[i])
	}

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, data); err != nil {
		fmt.Fprintf(w, "<!-- render error: %v -->", err)
	}
}

// recordWindowSeries extracts windowed miss-rate sparklines from one record:
// serve jobs carry WindowFlush series, report runs carry per-workload
// windows inside their conflict reports. Returns nil when the record has
// neither, so the caller keeps the last non-empty set.
func recordWindowSeries(rec *runstore.Record) []dashSeries {
	series := map[string][]float64{}
	for _, f := range rec.Windows {
		key := f.Workload + " " + f.Config
		series[key] = append(series[key], f.Window.MissRate())
	}
	if len(series) == 0 {
		for _, c := range rec.Manifest.Conflicts {
			key := c.Workload + " " + c.Config
			for _, win := range c.Windows {
				series[key] = append(series[key], win.MissRate())
			}
		}
	}
	if len(series) == 0 {
		return nil
	}
	var out []dashSeries
	for _, key := range sortedSeriesNames(series) {
		vals := series[key]
		out = append(out, dashSeries{
			Label: key, Path: sparkPath(vals, 240, 40), Last: vals[len(vals)-1],
		})
	}
	return out
}

// sparkPath scales a series into SVG polyline points spanning w x h with a
// small margin; a flat series renders as a midline.
func sparkPath(vals []float64, w, h float64) template.HTML {
	if len(vals) == 0 {
		return ""
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	span := max - min
	var sb strings.Builder
	for i, v := range vals {
		x := 2 + (w-4)*float64(i)/float64(maxInt(len(vals)-1, 1))
		y := h / 2
		if span > 0 {
			y = (h - 4) - (h-8)*(v-min)/span
		}
		fmt.Fprintf(&sb, "%.1f,%.1f ", x, y)
	}
	return template.HTML(strings.TrimSpace(sb.String()))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func sortedSeriesNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
