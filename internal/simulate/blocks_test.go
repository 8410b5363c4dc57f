package simulate

import (
	"fmt"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// blockOracle replays a materialised trace event by event, the way Run
// does, and charges every classified miss to its block with its own count
// rather than obs.BlockMisses.Miss: the reference per-block attribution.
// cacheOf routes each fetching domain to its cache.
func blockOracle(tr *trace.Trace, osL, appL *layout.Layout, cacheOf func(trace.Domain) *cache.Cache) *obs.BlockMisses {
	want := obs.NewBlockMisses(tr)
	for _, e := range tr.Events {
		if !e.IsBlock() {
			continue
		}
		d, b := e.Domain(), e.Block()
		l, p := osL, tr.OS
		if d == trace.DomainApp {
			l, p = appL, tr.App
		}
		c := cacheOf(d)
		addr := l.Addr[b]
		size := p.Block(b).Size
		c.Stats.Refs[d] += trace.RefsOf(size)
		for line := c.LineOf(addr); line <= c.LineOf(addr+uint64(size)-1); line++ {
			switch c.AccessLine(line, d) {
			case cache.SelfMiss:
				want.Misses[d][b]++
				want.Self[d][b]++
			case cache.CrossMiss:
				want.Misses[d][b]++
				want.Cross[d][b]++
			case cache.ColdMiss:
				want.Misses[d][b]++
			}
		}
	}
	return want
}

// TestBlockMissesMatchesOracle pins per-block attribution now that it is an
// observer: one obs.BlockMisses per configuration of the equivalence grid
// must equal the per-event oracle on the materialised and the streamed
// engine at one and eight workers, and on a one-CPU shared-cache replay.
func TestBlockMissesMatchesOracle(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	want := make([]*obs.BlockMisses, len(equivalenceGrid))
	for i, cfg := range equivalenceGrid {
		c := cache.MustNew(cfg)
		want[i] = blockOracle(tr, osL, appL, func(trace.Domain) *cache.Cache { return c })
		if sum(want[i].Misses[trace.DomainOS]) == 0 || sum(want[i].Misses[trace.DomainApp]) == 0 {
			t.Fatalf("%v: oracle charged no misses to a domain", cfg)
		}
	}
	attach := func() ([]obs.Observer, []*obs.BlockMisses) {
		observers := make([]obs.Observer, len(equivalenceGrid))
		blocks := make([]*obs.BlockMisses, len(equivalenceGrid))
		for i := range observers {
			blocks[i] = obs.NewBlockMisses(tr)
			observers[i] = blocks[i]
		}
		return observers, blocks
	}
	check := func(t *testing.T, got []*obs.BlockMisses) {
		t.Helper()
		for i, cfg := range equivalenceGrid {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v: per-block misses differ from the per-event oracle", cfg)
			}
		}
	}
	for _, chunk := range []int{0, 1 << 10} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("chunk=%d/workers=%d", chunk, workers), func(t *testing.T) {
				target := tr
				if chunk > 0 {
					target = tr.ChunkView(chunk)
				}
				observers, got := attach()
				if _, err := RunManyOpt(target, osL, appL, equivalenceGrid, Options{Observers: observers, Workers: workers}); err != nil {
					t.Fatal(err)
				}
				check(t, got)
			})
		}
	}
	t.Run("shared", func(t *testing.T) {
		observers, got := attach()
		if _, err := RunShared(asMulti(tr, 1), []Group{{OS: osL, App: appL, Configs: equivalenceGrid}}, Options{Observers: observers, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})
}

func sum(vs []uint64) uint64 {
	var n uint64
	for _, v := range vs {
		n += v
	}
	return n
}
