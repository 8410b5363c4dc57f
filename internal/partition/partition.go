// Package partition is the policy layer over cache way partitioning: it
// turns a textual scenario spec ("static", "reserved,resv=1",
// "interval,every=4,grain=1", "missdriven,grain=2") into an initial way
// split plus, for the dynamic policies, a controller that repartitions the
// cache at replay-window boundaries using the windowed miss-rate feedback
// already flowing through obs.SimStats.OnWindowFlush.
//
// The static policy generalises the paper's Sep setup (Section 5.5: the
// cache statically split between OS and application), reserved generalises
// Resv (a dedicated region for the self-conflict-free OS blocks), and the
// interval/missdriven evolve policies follow the Graphite OCache scenario
// family (evolveNaive periodically rebalances toward the missier domain;
// evolveDataIntensive hill-climbs on the observed miss total).
package partition

import (
	"fmt"
	"strconv"
	"strings"

	"oslayout/internal/cache"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// Policies names the supported scenario policies in render order.
var Policies = []string{"static", "reserved", "interval", "missdriven"}

// Spec is a parsed partition scenario.
type Spec struct {
	// Policy is one of Policies.
	Policy string
	// OSWays, AppWays and ResvWays set the initial split; zero fields are
	// filled by WithDefaults from the cache associativity.
	OSWays, AppWays, ResvWays int
	// Every is how many replay windows pass between repartition decisions
	// (dynamic policies only).
	Every int
	// Grain is how many ways one repartition decision moves.
	Grain int
	// Invalidate drops lines from reassigned ways instead of keeping them
	// resident (the default keeps: lines migrate and age out naturally).
	Invalidate bool
}

// Parse reads a spec like "interval,every=4,grain=1,os=3,app=5" — a policy
// name followed by comma-separated key=value options (keys: os, app, resv,
// every, grain, and the bare flag invalidate).
func Parse(s string) (Spec, error) {
	parts := strings.Split(s, ",")
	sp := Spec{Policy: strings.TrimSpace(parts[0])}
	if sp.Policy == "" {
		return Spec{}, fmt.Errorf("partition: empty policy in %q", s)
	}
	known := false
	for _, p := range Policies {
		if sp.Policy == p {
			known = true
		}
	}
	if !known {
		return Spec{}, fmt.Errorf("partition: unknown policy %q (want one of %s)", sp.Policy, strings.Join(Policies, ", "))
	}
	for _, opt := range parts[1:] {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		if opt == "invalidate" {
			sp.Invalidate = true
			continue
		}
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return Spec{}, fmt.Errorf("partition: option %q is not key=value", opt)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return Spec{}, fmt.Errorf("partition: option %q needs a non-negative integer", opt)
		}
		switch k {
		case "os":
			sp.OSWays = n
		case "app":
			sp.AppWays = n
		case "resv":
			sp.ResvWays = n
		case "every":
			sp.Every = n
		case "grain":
			sp.Grain = n
		default:
			return Spec{}, fmt.Errorf("partition: unknown option %q", k)
		}
	}
	return sp, nil
}

// Dynamic reports whether the policy repartitions at runtime.
func (sp Spec) Dynamic() bool { return sp.Policy == "interval" || sp.Policy == "missdriven" }

// String renders the spec back in Parse's grammar.
func (sp Spec) String() string {
	var b strings.Builder
	b.WriteString(sp.Policy)
	add := func(k string, n int) {
		if n > 0 {
			fmt.Fprintf(&b, ",%s=%d", k, n)
		}
	}
	add("os", sp.OSWays)
	add("app", sp.AppWays)
	add("resv", sp.ResvWays)
	if sp.Dynamic() {
		add("every", sp.Every)
		add("grain", sp.Grain)
	}
	if sp.Invalidate {
		b.WriteString(",invalidate")
	}
	return b.String()
}

// WithDefaults fills the spec's zero fields for a cache of the given
// associativity and validates the result: the initial split must pass
// cache.Partition.Check, and dynamic policies additionally need at least
// one way per domain so a repartition always has room to move.
func (sp Spec) WithDefaults(assoc int) (Spec, error) {
	out := sp
	switch sp.Policy {
	case "reserved":
		if out.ResvWays == 0 {
			out.ResvWays = 1
		}
	case "static", "interval", "missdriven":
		if out.OSWays == 0 && out.AppWays == 0 {
			rest := assoc - out.ResvWays
			out.OSWays = (rest + 1) / 2
			out.AppWays = rest - out.OSWays
		}
	default:
		return Spec{}, fmt.Errorf("partition: unknown policy %q", sp.Policy)
	}
	if out.Dynamic() {
		if out.Every == 0 {
			out.Every = 4
		}
		if out.Grain == 0 {
			out.Grain = 1
		}
		if out.OSWays < 1 || out.AppWays < 1 {
			return Spec{}, fmt.Errorf("partition: dynamic policy %s needs at least one way per domain (have os=%d app=%d)", out.Policy, out.OSWays, out.AppWays)
		}
	}
	if err := out.Initial().Check(assoc); err != nil {
		return Spec{}, err
	}
	if !out.Initial().Enabled() {
		return Spec{}, fmt.Errorf("partition: spec %s dedicates no ways on a %d-way cache", out, assoc)
	}
	return out, nil
}

// Initial returns the spec's starting way split.
func (sp Spec) Initial() cache.Partition {
	return cache.Partition{OSWays: sp.OSWays, AppWays: sp.AppWays, ResvWays: sp.ResvWays}
}

// Feedback is what one repartition decision sees: per-domain miss counts
// accumulated since the previous decision (replay windows hold equal event
// counts, so periods are directly comparable) and the last window's totals.
type Feedback struct {
	OSMisses, AppMisses uint64
	Window              obs.Window
}

// policy decides the next split from the current one and the feedback.
type policy interface {
	decide(cur cache.Partition, fb Feedback) cache.Partition
}

// moveWays shifts n ways between the OS and app regions, never emptying
// either domain; the reserved region is untouched.
func moveWays(cur cache.Partition, n int, towardOS bool) cache.Partition {
	for i := 0; i < n; i++ {
		if towardOS {
			if cur.AppWays <= 1 {
				break
			}
			cur.AppWays--
			cur.OSWays++
		} else {
			if cur.OSWays <= 1 {
				break
			}
			cur.OSWays--
			cur.AppWays++
		}
	}
	return cur
}

// intervalPolicy rebalances toward whichever domain missed more over the
// period (Graphite's evolveNaive: periodically hand ways to the domain
// under pressure).
type intervalPolicy struct{ grain int }

func (p intervalPolicy) decide(cur cache.Partition, fb Feedback) cache.Partition {
	if fb.OSMisses == fb.AppMisses {
		return cur
	}
	return moveWays(cur, p.grain, fb.OSMisses > fb.AppMisses)
}

// missPolicy hill-climbs on the period's total misses (Graphite's
// evolveDataIntensive): keep moving in the current direction while the
// total improves, reverse when it worsens.
type missPolicy struct {
	grain    int
	towardOS bool
	last     uint64
	started  bool
}

func (p *missPolicy) decide(cur cache.Partition, fb Feedback) cache.Partition {
	total := fb.OSMisses + fb.AppMisses
	if !p.started {
		// First decision: seed the direction from the domain imbalance.
		p.started = true
		p.towardOS = fb.OSMisses >= fb.AppMisses
	} else if total > p.last {
		p.towardOS = !p.towardOS
	}
	p.last = total
	return moveWays(cur, p.grain, p.towardOS)
}

// Step records one repartition-relevant point of a replay: a completed
// window's miss rate and the split active from that window boundary on
// (Moved marks boundaries where the policy changed it).
type Step struct {
	Window   int
	MissRate float64
	Split    cache.Partition
	Moved    bool
}

// Controller wires a Spec to one cache replay. It is always the cache setup
// (Bind installs reserved lines and captures the cache handle); for a
// dynamic spec it is also the observer (embedding obs.SimStats, whose
// OnWindowFlush hook drives the repartition decisions). A static or
// reserved controller installs no hook, so it need not observe. One
// controller serves one cache for one replay; the hook touches only that
// cache and runs on the goroutine of whichever drive unit owns it, so it
// never races.
type Controller struct {
	*obs.SimStats
	spec     Spec
	reserved []uint64
	c        *cache.Cache
	pol      policy

	lastOS, lastApp uint64
	windowsSince    int
	traj            []Step
	err             error
}

// NewController builds a controller for the (defaults-filled) spec,
// observing the replay at the given window resolution (0 for the obs
// default). reserved is the line set routed to the reserved region (used by
// the reserved policy; ignored when the spec has no reserved ways).
func NewController(sp Spec, windows int, reserved []uint64) *Controller {
	k := &Controller{SimStats: obs.NewSimStats(windows), spec: sp, reserved: reserved}
	switch sp.Policy {
	case "interval":
		k.pol = intervalPolicy{grain: sp.Grain}
	case "missdriven":
		k.pol = &missPolicy{grain: sp.Grain}
	}
	if k.pol != nil {
		k.SimStats.OnWindowFlush = k.step
	}
	return k
}

// Spec returns the controller's scenario.
func (k *Controller) Spec() Spec { return k.spec }

// Bind is the simulate.CacheSetup: it captures the cache and installs the
// reserved line set. The cache must have been built with the spec's initial
// partition (Config.Part = spec.Initial()).
func (k *Controller) Bind(c *cache.Cache) error {
	if c.Partition() != k.spec.Initial() {
		return fmt.Errorf("partition: cache built with split %s, controller expects %s", c.Partition(), k.spec.Initial())
	}
	if len(k.reserved) > 0 && k.spec.ResvWays > 0 {
		if err := c.SetReservedLines(k.reserved); err != nil {
			return err
		}
	}
	k.c = c
	return nil
}

// step is the OnWindowFlush hook: accumulate windows and, every spec.Every
// windows, let the policy move ways using the per-domain miss deltas since
// the previous decision (cache.Stats.Misses is live during the replay;
// reference totals are not, so decisions key on misses).
func (k *Controller) step(index int, w obs.Window) {
	if k.c == nil {
		return
	}
	cur := k.c.Partition()
	k.windowsSince++
	moved := false
	if k.windowsSince >= k.spec.Every && k.err == nil {
		k.windowsSince = 0
		osM := k.c.Stats.Misses[trace.DomainOS]
		appM := k.c.Stats.Misses[trace.DomainApp]
		fb := Feedback{OSMisses: osM - k.lastOS, AppMisses: appM - k.lastApp, Window: w}
		k.lastOS, k.lastApp = osM, appM
		if next := k.pol.decide(cur, fb); next != cur {
			if err := k.c.SetPartition(next, !k.spec.Invalidate); err != nil {
				k.err = err
			} else {
				moved = true
				cur = next
			}
		}
	}
	k.traj = append(k.traj, Step{Window: index, MissRate: w.MissRate(), Split: cur, Moved: moved})
}

// Err returns the first repartition error, if any (a correctly validated
// spec never produces one).
func (k *Controller) Err() error { return k.err }

// Final returns the split left active when the replay ended (the initial
// split until Bind, or for static policies).
func (k *Controller) Final() cache.Partition {
	if k.c == nil {
		return k.spec.Initial()
	}
	return k.c.Partition()
}

// Events returns the cache's repartition counters.
func (k *Controller) Events() cache.RepartStats {
	if k.c == nil {
		return cache.RepartStats{}
	}
	return k.c.Repartitions()
}

// Trajectory returns the per-window miss-rate/split series the controller
// recorded (empty for static policies, which install no hook).
func (k *Controller) Trajectory() []Step { return k.traj }

// TrajString compacts the trajectory into the windows where the split
// changed, e.g. "w3→os5+app3 w7→os6+app2" (empty when no repartition
// happened).
func (k *Controller) TrajString() string {
	var b strings.Builder
	for _, s := range k.traj {
		if !s.Moved {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "w%d→%s", s.Window, s.Split)
	}
	return b.String()
}
