package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPeriodicBalanceTickAllocs pins the steady-state allocation budget
// of the tick path (accounting + preemption check + periodic balancing
// across every due domain level): after warmup it must stay at a small
// constant per tick period, independent of core count — the scratch
// buffers, per-core timers and interned domain hierarchies make the common case
// allocation-free, with only amortized noise (runqueue pool growth,
// trace-free bookkeeping) remaining.
func TestPeriodicBalanceTickAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NOHZ = false // every core ticks: the worst case for the tick path
	e := newEnv(topology.Bulldozer8(), cfg)
	// An imbalanced, busy machine: plenty of balance work every tick.
	for i := 0; i < 24; i++ {
		e.hog("h", topology.CoreID(i%8), ThreadOpts{})
	}
	e.run(200 * sim.Millisecond) // warm up pools, caches, scratch buffers
	period := e.s.Config().TickPeriod
	avg := testing.AllocsPerRun(50, func() {
		e.run(period) // 64 core ticks plus their balance passes
	})
	// One tick period on this machine is 64 individual core ticks; a
	// handful of allocations across all of them is "small constant" —
	// the pre-optimization code allocated hundreds (groupStats, closure
	// and event per tick, per core).
	if avg > 16 {
		t.Fatalf("allocs per tick period = %.1f, want <= 16", avg)
	}
}

// TestHotplugDomainRebuildReusesCache: cycling the same core off and on
// must hit the intern table (pointer swap), not reconstruct hierarchies,
// while still resetting the per-level balance bookkeeping.
func TestHotplugDomainRebuildReusesCache(t *testing.T) {
	tab := freshHierarchies(t)
	e := newEnv(topology.Bulldozer8(), DefaultConfig().WithFixes(AllFixes()))
	if err := e.s.DisableCPU(5); err != nil {
		t.Fatal(err)
	}
	if err := e.s.EnableCPU(5); err != nil {
		t.Fatal(err)
	}
	before := e.s.Domains(3)
	e.run(sim.Millisecond)
	if err := e.s.DisableCPU(5); err != nil {
		t.Fatal(err)
	}
	if err := e.s.EnableCPU(5); err != nil {
		t.Fatal(err)
	}
	after := e.s.Domains(3)
	if len(before) != len(after) {
		t.Fatalf("hierarchy depth changed across identical rebuilds: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("level %d rebuilt instead of cache-hit", i)
		}
	}
	// The table holds one entry per distinct key visited: the full
	// online set and the set without core 5 (with every fix on, NUMA
	// levels are always built). Five rebuilds constructed exactly those
	// two hierarchies.
	if n := len(tab.m); n != 2 {
		t.Fatalf("intern table has %d entries, want 2", n)
	}
	if tab.builds != 2 {
		t.Fatalf("%d hierarchies built, want 2", tab.builds)
	}
	if got := e.s.Counters().DomainRebuilds; got != 5 {
		t.Fatalf("DomainRebuilds = %d, want 5 (it counts rebuilds, not table misses)", got)
	}
}

// TestOccupancyIncrementalMatchesRescan: the incrementally maintained
// idle/queued sums must always equal a from-scratch rescan.
func TestOccupancyIncrementalMatchesRescan(t *testing.T) {
	e := newEnv(topology.TwoNode(4), DefaultConfig())
	for i := 0; i < 12; i++ {
		e.hog("h", topology.CoreID(i%4), ThreadOpts{})
	}
	check := func(when string) {
		idle, queued := 0, 0
		for _, c := range e.s.cpus {
			if !c.online {
				continue
			}
			if c.idle() {
				idle++
			}
			queued += c.rq.queued()
		}
		if idle != e.s.curIdle || queued != e.s.curQueued {
			t.Fatalf("%s: incremental (idle=%d queued=%d) != rescan (idle=%d queued=%d)",
				when, e.s.curIdle, e.s.curQueued, idle, queued)
		}
	}
	check("after start")
	e.run(50 * sim.Millisecond)
	check("after balancing")
	if err := e.s.DisableCPU(2); err != nil {
		t.Fatal(err)
	}
	check("after disable")
	e.run(20 * sim.Millisecond)
	if err := e.s.EnableCPU(2); err != nil {
		t.Fatal(err)
	}
	e.run(20 * sim.Millisecond)
	check("after enable")
}
