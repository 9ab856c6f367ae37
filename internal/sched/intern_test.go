package sched

import (
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// freshHierarchies swaps in an empty intern table for the test, so its
// entry and build counts see only what the test does.
func freshHierarchies(t *testing.T) *hierarchyTable {
	t.Helper()
	prev := hierarchies
	hierarchies = &hierarchyTable{}
	t.Cleanup(func() { hierarchies = prev })
	return hierarchies
}

// Two independent schedulers of the same machine — separate engines and
// separately constructed topologies — share one hierarchy, pointer for
// pointer.
func TestInternSharesAcrossSchedulers(t *testing.T) {
	tab := freshHierarchies(t)
	a := newTestSched(topology.Bulldozer8(), DefaultConfig())
	b := newTestSched(topology.Bulldozer8(), DefaultConfig())
	for c := range a.cpus {
		da, db := a.Domains(topology.CoreID(c)), b.Domains(topology.CoreID(c))
		if len(da) == 0 || len(da) != len(db) || &da[0] != &db[0] {
			t.Fatalf("cpu %d: hierarchies not shared", c)
		}
	}
	if tab.builds != 1 {
		t.Fatalf("%d hierarchies built, want 1", tab.builds)
	}
}

// A fork that flips group construction and flips it back ends on the
// original pointers, a core the flag does not move keeps its balance
// schedule throughout, and a second fork doing the same builds nothing.
func TestApplyFeaturesRoundTripBuildsNothing(t *testing.T) {
	tab := freshHierarchies(t)
	e := newEnv(topology.Bulldozer8(), DefaultConfig())
	for i := 0; i < 24; i++ {
		e.hog("h", topology.CoreID(i%8), ThreadOpts{})
	}
	e.run(20 * sim.Millisecond)
	// A core off node 0, whose groups the construction perspective moves.
	const cpu = topology.CoreID(12)
	orig := append([]*Domain(nil), e.s.Domains(cpu)...)
	// Core 0 is the buggy construction's own perspective: both flags
	// give it the same groups.
	next := append([]sim.Time(nil), e.s.cpus[0].nextBalance...)

	flip := e.s.Config().Features
	flip.FixGroupConstruction = !flip.FixGroupConstruction
	for round := 0; round < 2; round++ {
		builds := tab.builds
		c := e.s.Clone(e.eng.Fork())
		c.ApplyFeatures(flip)
		if domainsEqual(c.Domains(cpu), orig) {
			t.Fatal("flipping group construction left bulldozer8's hierarchy unchanged")
		}
		c.ApplyFeatures(e.s.Config().Features)
		got := c.Domains(cpu)
		for i := range orig {
			if got[i] != orig[i] {
				t.Fatalf("round %d: level %d not the original pointer after the round trip", round, i)
			}
		}
		for i, nb := range c.cpus[0].nextBalance {
			if nb != next[i] {
				t.Fatalf("round %d: cpu 0 level %d next balance %v, want %v", round, i, nb, next[i])
			}
		}
		if round == 1 && tab.builds != builds {
			t.Fatalf("second round trip built %d hierarchies, want 0", tab.builds-builds)
		}
	}
	if n := len(tab.m); n != 2 {
		t.Fatalf("intern table has %d entries, want 2 (bugs, fix-gc)", n)
	}
}

// Goroutines that miss on one key at once all adopt the single published
// hierarchy. Run under -race, this is also the table's data-race test.
func TestInternConcurrentMiss(t *testing.T) {
	tab := freshHierarchies(t)
	const n = 8
	got := make([][]*Domain, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			s := New(sim.New(int64(i)), topology.Bulldozer8(), DefaultConfig())
			start.Wait()
			s.Start()
			got[i] = s.Domains(0)
		}()
	}
	start.Done()
	done.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("goroutine %d holds an unpublished hierarchy", i)
		}
	}
	if len(tab.m) != 1 {
		t.Fatalf("intern table has %d entries, want 1", len(tab.m))
	}
}

// A full table still answers misses, with private hierarchies it does
// not keep.
func TestInternCapBuildsWithoutInterning(t *testing.T) {
	tab := freshHierarchies(t)
	tab.m = map[domainKey][][]*Domain{}
	for i := 0; i < maxInternedHierarchies; i++ {
		tab.m[domainKey{interval: sim.Time(i + 1)}] = nil
	}
	a := newTestSched(topology.Bulldozer8(), DefaultConfig())
	b := newTestSched(topology.Bulldozer8(), DefaultConfig())
	if len(tab.m) != maxInternedHierarchies || tab.builds != 2 {
		t.Fatalf("full table: %d entries after %d builds, want %d after 2", len(tab.m), tab.builds, maxInternedHierarchies)
	}
	da, db := a.Domains(0), b.Domains(0)
	if &da[0] == &db[0] || !domainsEqual(da, db) {
		t.Fatal("past the cap, schedulers must get equal but private hierarchies")
	}
}

// Every field of the key matters: for each variation of machine shape,
// balance interval, online set, NUMA inclusion and construction
// perspective, the interned hierarchy equals a private build of that
// exact key — balance intervals and masks included — so no two
// variations may share an entry.
func TestInternKeySeparatesEveryInput(t *testing.T) {
	freshHierarchies(t)
	slow := DefaultConfig()
	slow.BalanceInterval *= 2
	gc := DefaultConfig().WithFixes(Features{FixGroupConstruction: true})
	md := DefaultConfig().WithFixes(Features{FixMissingDomains: true})
	type variant struct {
		topo    *topology.Topology
		cfg     Config
		hotplug bool
	}
	for _, v := range []variant{
		{topology.Bulldozer8(), DefaultConfig(), false},
		{topology.Bulldozer8(), slow, false},
		{topology.Bulldozer8(), gc, false},
		{topology.Bulldozer8(), DefaultConfig(), true},
		{topology.Bulldozer8(), md, true},
		// Same core count and online set, different structure.
		{topology.TwoNode(4), DefaultConfig(), false},
		{topology.SMP(8), DefaultConfig(), false},
		{topology.Ring(4, 2), DefaultConfig(), false},
	} {
		s := newTestSched(v.topo, v.cfg)
		if v.hotplug {
			if err := s.DisableCPU(9); err != nil {
				t.Fatal(err)
			}
		}
		want := buildHierarchy(v.topo, domainKey{
			interval:    v.cfg.BalanceInterval,
			online:      s.online,
			includeNUMA: s.includeNUMA(),
			gcFixed:     v.cfg.Features.FixGroupConstruction,
		})
		for c := range s.cpus {
			got := s.Domains(topology.CoreID(c))
			if !domainsEqual(got, want[c]) {
				t.Fatalf("%s interval=%v %+v hotplug=%v: cpu %d hierarchy differs from a private build", v.topo.Name(), v.cfg.BalanceInterval, v.cfg.Features, v.hotplug, c)
			}
			for i, d := range got {
				if w := want[c][i]; d.Interval != w.Interval || d.local != w.local || d.localMask != w.localMask {
					t.Fatalf("%s interval=%v %+v hotplug=%v: cpu %d level %d interval/local/mask differ from a private build",
						v.topo.Name(), v.cfg.BalanceInterval, v.cfg.Features, v.hotplug, c, i)
				}
			}
		}
	}
}

// BenchmarkApplyFeatures measures the fix switch a counterfactual replay
// makes on its fork: a bulldozer8 scheduler, forked after a hotplug cycle
// (so both construction flags move its hierarchy), flips group
// construction, then missing domains, then back. With interned
// hierarchies every switch is a table lookup and allocates nothing.
func BenchmarkApplyFeatures(b *testing.B) {
	e := newEnv(topology.Bulldozer8(), DefaultConfig())
	for i := 0; i < 24; i++ {
		e.hog("h", topology.CoreID(i%8), ThreadOpts{})
	}
	e.run(10 * sim.Millisecond)
	if err := e.s.DisableCPU(5); err != nil {
		b.Fatal(err)
	}
	if err := e.s.EnableCPU(5); err != nil {
		b.Fatal(err)
	}
	e.run(10 * sim.Millisecond)
	c := e.s.Clone(e.eng.Fork())
	base := c.Config().Features
	gc := base
	gc.FixGroupConstruction = true
	md := gc
	md.FixMissingDomains = true
	round := func() {
		c.ApplyFeatures(gc)
		c.ApplyFeatures(md)
		c.ApplyFeatures(base)
	}
	// One untimed round grows the clone's balance arrays to the deepest
	// hierarchy, so allocs/op is the steady state at any -benchtime.
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
