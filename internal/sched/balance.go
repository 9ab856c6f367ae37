package sched

import (
	"math/bits"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements the paper's Algorithm 1 (simplified load balancing
// algorithm) with its three entry points: periodic balancing on the clock
// tick, "emergency" newly-idle balancing, and NOHZ balancing on behalf of
// tickless idle cores (§2.2.1–2.2.2). The Group Imbalance bug and its fix
// (§3.1) live in the scheduling-group comparison: the buggy kernel
// compares group *average* loads, which lets one high-load thread conceal
// idle cores on its node; the fix compares group *minimum* loads.

// groupStats aggregates one scheduling group for a balancing decision
// (the kernel's update_sg_lb_stats).
type groupStats struct {
	set        CPUSet
	sumLoad    float64
	minLoad    float64
	avgLoad    float64
	nrRunning  int // running + queued over the group
	nrQueued   int // queued only: what is actually stealable
	weight     int // number of online cores
	hasIdle    bool
	imbalanced bool // a steal from this group recently failed on tasksets
}

// metric returns the comparison value of the group: average load with the
// bug present, minimum load with the fix (§3.1: "Instead of comparing the
// average loads, we compare the minimum loads").
func (s *Scheduler) metric(g *groupStats) float64 {
	return metricWith(g, s.cfg.Features.FixGroupImbalance)
}

// metricWith is metric with the group-imbalance flag given explicitly, so
// the divergence probe can evaluate the comparison the flipped flag would
// have made.
func metricWith(g *groupStats, giFixed bool) float64 {
	if giFixed {
		return g.minLoad
	}
	return g.avgLoad
}

// computeGroupStats gathers statistics for one scheduling group into a
// caller-provided struct (hot path: the balance pass reuses scratch
// storage, iterates the set's bits without a per-core closure call,
// reads each core's runqueue once, and takes the memoized load directly
// when the cache is current).
func (s *Scheduler) computeGroupStats(g *groupStats, set CPUSet) {
	*g = groupStats{set: set, minLoad: -1}
	now := s.eng.Now()
	gen := s.loadGen
	for w := 0; w < 2; w++ {
		b := set.bits[w]
		for b != 0 {
			id := topology.CoreID(w*64 + bits.TrailingZeros64(b))
			b &= b - 1
			c := s.cpus[id]
			if !c.online {
				continue
			}
			g.weight++
			var load float64
			if c.loadAt == now && c.loadGenAt == gen {
				load = c.loadVal
			} else {
				load = s.CPULoad(id)
			}
			g.sumLoad += load
			if g.minLoad < 0 || load < g.minLoad {
				g.minLoad = load
			}
			q := c.rq.queued()
			running := q
			if c.curr != nil {
				running++
			}
			g.nrRunning += running
			g.nrQueued += q
			if running == 0 {
				g.hasIdle = true // online with nothing queued or running
			}
			if c.pinnedFailure {
				g.imbalanced = true
			}
		}
	}
	if g.weight > 0 {
		g.avgLoad = g.sumLoad / float64(g.weight)
	}
	if g.minLoad < 0 {
		g.minLoad = 0
	}
}

// designatedCPU returns the core responsible for balancing domain d on
// behalf of c's scheduling group: the first idle core of the local group,
// or its first core when none is idle. Algorithm 1 (lines 2–9) states this
// as "the first idle core of the scheduling domain"; with per-core
// overlapping NUMA domains the kernel's should_we_balance scopes the check
// to the balancing core's own group (group_balance_cpu), which is what we
// implement — otherwise domains seen only by remote cores would never be
// balanced.
func (s *Scheduler) designatedCPU(c *CPU, d *Domain) topology.CoreID {
	if d.local < 0 {
		return -1
	}
	mask := d.localMask // precomputed group_balance_mask of d's local group
	first := topology.CoreID(-1)
	mask.ForEach(func(id topology.CoreID) {
		if first >= 0 {
			return
		}
		if s.cpus[id].online && s.cpus[id].idle() {
			first = id
		}
	})
	if first >= 0 {
		return first
	}
	return mask.First()
}

// balanceInterval returns the effective re-balance interval for c at
// domain d: idle cores retry every tick (the kernel keeps sd->balance_
// interval at its minimum when idle and multiplies it by busy_factor when
// busy), busy cores use the stretched per-level interval.
func (s *Scheduler) balanceInterval(c *CPU, d *Domain) sim.Time {
	if c.idle() {
		return s.cfg.TickPeriod
	}
	return d.Interval
}

// periodicBalance runs Algorithm 1 for every due domain level of cpu,
// honoring the designated-core optimization.
func (s *Scheduler) periodicBalance(c *CPU) {
	if s.cfg.DisableBalance {
		return
	}
	now := s.eng.Now()
	for li, d := range c.domains {
		if li >= len(c.nextBalance) {
			break
		}
		if now < c.nextBalance[li] {
			continue
		}
		c.nextBalance[li] = now + s.balanceInterval(c, d)
		if s.designatedCPU(c, d) != c.id {
			continue // lines 7–9: not our job at this level
		}
		s.counters.PeriodicBalanceCalls++
		s.loadBalance(c, d, li, trace.OpPeriodicBalance)
	}
}

// newIdleBalance is the "emergency" balance a core runs as it is about to
// go idle (§2.2): walk the domains bottom-up and stop at the first level
// that yields work.
func (s *Scheduler) newIdleBalance(c *CPU) {
	if s.cfg.DisableBalance {
		return
	}
	s.counters.NewIdleBalanceCalls++
	for li, d := range c.domains {
		if s.loadBalance(c, d, li, trace.OpNewIdleBalance) > 0 {
			return
		}
	}
}

// maybeKickNohzBalancer assigns the NOHZ balancer role to a tickless idle
// core (§2.2.2): "it wakes up the first tickless idle core and assigns it
// the role of NOHZ balancer".
func (s *Scheduler) maybeKickNohzBalancer() {
	if s.nohzBalancer >= 0 {
		return
	}
	for _, c := range s.cpus {
		if c.online && c.tickless && c.idle() {
			s.nohzBalancer = c.id
			s.counters.NohzKicks++
			c.tickless = false
			s.armTick(c) // it will balance at its next tick
			return
		}
	}
}

// anyTicklessIdle reports whether any core is currently tickless idle.
func (s *Scheduler) anyTicklessIdle() bool {
	for _, c := range s.cpus {
		if c.online && c.tickless && c.idle() {
			return true
		}
	}
	return false
}

// nohzBalanceAll runs periodic balancing on behalf of every tickless idle
// core (§2.2.2): "The NOHZ balancer core is responsible, on each tick, to
// run the periodic load balancing routine for itself and on behalf of all
// tickless idle cores."
func (s *Scheduler) nohzBalanceAll(self *CPU) {
	if s.cfg.DisableBalance {
		return
	}
	s.counters.NohzBalancePasses++
	for _, c := range s.cpus {
		if c == self || !c.online || !c.tickless || !c.idle() {
			continue
		}
		now := s.eng.Now()
		for li, d := range c.domains {
			if li >= len(c.nextBalance) {
				break
			}
			if now < c.nextBalance[li] {
				continue
			}
			c.nextBalance[li] = now + s.balanceInterval(c, d)
			if s.designatedCPU(c, d) != c.id {
				continue
			}
			s.loadBalance(c, d, li, trace.OpNohzBalance)
		}
	}
}

// loadBalance is the core of Algorithm 1 (lines 10–23) for one domain
// level: compute group statistics, pick the busiest group, compare with
// the local group, and steal from the busiest core of that group —
// retrying with exclusion when tasksets prevent migration (lines 20–22).
// It returns the number of threads pulled to c, and records the
// decision with the group metrics it compared — the §4.1 profiling data
// ("the values of the variables they use") that explains why a balance
// call moved nothing.
func (s *Scheduler) loadBalance(c *CPU, d *Domain, level int, op trace.Op) int {
	s.counters.BalanceCalls++
	if s.wants(trace.KindConsidered) {
		s.emit(trace.Event{At: s.eng.Now(), Kind: trace.KindConsidered, Op: op,
			CPU: int32(c.id), Mask: d.Span.TraceMask()})
	}
	v, local, busiest, moved := s.balanceLevel(c, d, level, op)
	if local != nil && s.wants(trace.KindBalance) {
		ml := s.metric(local)
		ev := trace.Event{At: s.eng.Now(), Kind: trace.KindBalance, Op: op, Code: uint8(v),
			CPU: int32(c.id), Dst: int32(moved), Arg: int64(ml), Aux: -1}
		s.balanceGap = 0
		if busiest != nil {
			mb := s.metric(busiest)
			ev.Aux = int64(mb)
			ev.Mask = busiest.set.TraceMask()
			if v != trace.VerdictMoved {
				s.balanceGap = mb - ml
			}
		}
		s.emit(ev)
	}
	return moved
}

// balanceLevel runs one loadBalance pass and returns its verdict, the
// local and busiest group statistics it compared (local is nil when c
// has no group at this level, busiest nil when no group had stealable
// threads) and the number of threads moved.
func (s *Scheduler) balanceLevel(c *CPU, d *Domain, level int, op trace.Op) (trace.Verdict, *groupStats, *groupStats, int) {
	// Fill the reused scratch buffers. Capacity is ensured up front so
	// the value buffer never reallocates underneath the pointers taken
	// into it.
	if cap(s.gsScratch) < len(d.Groups) {
		s.gsScratch = make([]groupStats, 0, len(d.Groups)*2)
		s.gsGroups = make([]*groupStats, 0, len(d.Groups)*2)
	}
	buf := s.gsScratch[:0]
	groups := s.gsGroups[:0]
	var local *groupStats
	for _, gset := range d.Groups {
		buf = append(buf, groupStats{})
		g := &buf[len(buf)-1]
		s.computeGroupStats(g, gset)
		if g.weight == 0 {
			buf = buf[:len(buf)-1]
			continue
		}
		groups = append(groups, g)
		if gset.Has(c.id) && local == nil {
			local = g
		}
	}
	if local == nil {
		return trace.VerdictNoBusiest, nil, nil, 0
	}

	// Line 13: prefer overloaded groups, then taskset-imbalanced groups,
	// then simply the highest-metric group. Only groups with queued
	// threads can yield a steal. When the divergence probe watches the
	// group-imbalance flag, every metric-dependent step is recomputed
	// under the flipped flag; any difference in the chosen group, the
	// balanced verdict, or the amount to move fires the probe.
	gi := s.cfg.Features.FixGroupImbalance
	probeGI := s.probe != nil && s.probe.Armed.FixGroupImbalance && !s.probe.Fired.FixGroupImbalance
	busiest := s.pickBusiestGroup(groups, local, gi)
	if probeGI && s.pickBusiestGroup(groups, local, !gi) != busiest {
		s.probe.Fired.FixGroupImbalance = true
		probeGI = false
	}
	if busiest == nil {
		return trace.VerdictNoBusiest, local, nil, 0
	}
	// Lines 15–16: balanced at this level.
	balanced := metricWith(busiest, gi) <= metricWith(local, gi)
	if probeGI && (metricWith(busiest, !gi) <= metricWith(local, !gi)) != balanced {
		s.probe.Fired.FixGroupImbalance = true
		probeGI = false
	}
	if balanced {
		return trace.VerdictBalanced, local, busiest, 0
	}

	// How much load to move: half the average-load gap (the fix changes
	// the comparison, not the quantity — §3.1: computing min and average
	// "have the same cost").
	imbalance := (busiest.avgLoad - local.avgLoad) / 2
	if imbalance <= 0 {
		imbalance = (metricWith(busiest, gi) - metricWith(local, gi)) / 2
		if probeGI && imbalance != (metricWith(busiest, !gi)-metricWith(local, !gi))/2 {
			s.probe.Fired.FixGroupImbalance = true
		}
	}

	// Lines 18–22: pick the busiest core of the group; when tasksets
	// prevent stealing from it, exclude it and try the next.
	var excluded CPUSet
	sawPinned := false
	for {
		bcpu := s.pickBusiestCPU(busiest, c.id, excluded)
		if bcpu < 0 {
			verdict := trace.VerdictNoBusiest
			if sawPinned {
				verdict = trace.VerdictPinned
			}
			return verdict, local, busiest, 0
		}
		moved, pinnedOnly := s.moveTasks(s.cpus[bcpu], c, imbalance, level)
		if moved > 0 {
			c.balanceFailed[level] = 0
			s.cpus[bcpu].pinnedFailure = false
			return trace.VerdictMoved, local, busiest, moved
		}
		// The steal moved nothing: every candidate thread was pinned
		// away or cache-hot. This is the §3.1 evidence at its finest
		// grain — the exact core whose threads the balancer looked at
		// and declined.
		reject := trace.VerdictHot
		if pinnedOnly {
			reject = trace.VerdictPinned
		}
		if s.wants(trace.KindStealReject) {
			s.emit(trace.Event{At: s.eng.Now(), Kind: trace.KindStealReject, Op: op, Code: uint8(reject),
				CPU: int32(c.id), Dst: int32(bcpu), Arg: int64(s.metric(busiest)), Mask: busiest.set.TraceMask()})
		}
		if !pinnedOnly {
			c.balanceFailed[level]++
			return trace.VerdictHot, local, busiest, 0
		}
		// Line 20–21: "load cannot be balanced due to tasksets":
		// exclude busiest cpu and retry; flag the group so parent
		// levels see it as imbalanced.
		s.cpus[bcpu].pinnedFailure = true
		sawPinned = true
		excluded.Set(bcpu)
	}
}

// pickBusiestGroup implements line 13 of Algorithm 1 under the given
// group-imbalance flag.
func (s *Scheduler) pickBusiestGroup(groups []*groupStats, local *groupStats, giFixed bool) *groupStats {
	best := func(pred func(*groupStats) bool) *groupStats {
		var b *groupStats
		for _, g := range groups {
			if g == local || g.nrQueued == 0 || !pred(g) {
				continue
			}
			if b == nil || metricWith(g, giFixed) > metricWith(b, giFixed) {
				b = g
			}
		}
		return b
	}
	if g := best(func(g *groupStats) bool { return g.nrRunning > g.weight }); g != nil {
		return g // overloaded group with the highest load
	}
	if g := best(func(g *groupStats) bool { return g.imbalanced }); g != nil {
		return g // taskset-imbalanced group with the highest load
	}
	return best(func(g *groupStats) bool { return true })
}

// pickBusiestCPU selects the most loaded core of the group that has
// stealable (queued) threads, excluding the destination and prior
// failures.
func (s *Scheduler) pickBusiestCPU(g *groupStats, dst topology.CoreID, excluded CPUSet) topology.CoreID {
	best := topology.CoreID(-1)
	bestLoad := -1.0
	g.set.ForEach(func(id topology.CoreID) {
		if id == dst || excluded.Has(id) {
			return
		}
		c := s.cpus[id]
		if !c.online || c.rq.queued() == 0 {
			return
		}
		if load := s.CPULoad(id); load > bestLoad {
			bestLoad = load
			best = id
		}
	})
	return best
}

// moveTasks detaches queued threads from src and attaches them to dst
// until the requested load amount has moved (at least one thread moves
// when dst is idle, so an idle core always gets work if any is stealable).
// It reports the number moved and whether failure was solely due to
// affinity (tasksets).
func (s *Scheduler) moveTasks(src, dst *CPU, amount float64, level int) (int, bool) {
	now := s.eng.Now()
	moved := 0
	movedLoad := 0.0
	sawPinned := false
	minTasks := 0
	if dst.idle() {
		minTasks = 1
	}
	// Snapshot the source queue into the reused scratch buffer (the
	// migrations below mutate the tree while we iterate).
	s.stealScratch = s.stealScratch[:0]
	src.rq.each(func(t *Thread) bool {
		s.stealScratch = append(s.stealScratch, t)
		return true
	})
	for _, t := range s.stealScratch {
		if moved >= s.cfg.MaxMigrate {
			break
		}
		if moved >= minTasks && movedLoad >= amount {
			break
		}
		if !t.affinity.Has(dst.id) {
			sawPinned = true
			continue
		}
		// Cache hotness: recently-run threads stay put until balancing
		// has failed at this level before (can_migrate_task).
		if now-t.lastRan < s.cfg.MigrationCost && dst.balanceFailed[level] < 1 && moved >= minTasks {
			continue
		}
		load := t.load(now)
		s.migrateThread(t, src, dst, trace.OpPeriodicBalance)
		t.migrationsPulled++
		moved++
		movedLoad += load
	}
	return moved, moved == 0 && sawPinned
}

// WastedRatio is a convenience for tests: wasted core time divided by
// (elapsed x cores).
func (s *Scheduler) WastedRatio(since sim.Time) float64 {
	elapsed := s.eng.Now() - since
	if elapsed <= 0 {
		return 0
	}
	return float64(s.WastedCoreTime()) / float64(elapsed*sim.Time(s.topo.NumCores()))
}
