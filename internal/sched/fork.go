package sched

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the scheduler half of checkpoint/fork (see sim/fork.go for
// the engine half): a deep Clone onto a forked engine, ApplyFeatures for
// re-configuring a clone in place, and the divergence probe that lets the
// bisect lattice prove two fix subsets would produce byte-identical runs.

// ThreadByID returns the thread with the given id. Ids are dense (the
// creation index), so this is an O(1) lookup — the mapping a fork uses to
// remap thread pointers between a scheduler and its clone.
func (s *Scheduler) ThreadByID(id int) *Thread { return s.threads[id] }

// GroupByID returns the task group with the given id.
func (s *Scheduler) GroupByID(id int) *TaskGroup { return s.groups[id] }

// Clone deep-copies the scheduler onto eng, which must be a Fork of this
// scheduler's engine (same clock, same issued sequence numbers). Threads,
// groups, runqueues, the idle list, balance bookkeeping and counters are
// all copied; pending tick and resched events are re-registered on eng at
// their original (time, sequence) positions, so the clone's event queue
// pops in source order. Domain hierarchies are not copied: they live in
// the process-wide intern table (domains.go), immutable once built, and
// the clone points at the same per-core lists. Hooks are reset to
// no-ops — the caller wires the cloned machine in — and the latency
// probe, divergence probe and decision sinks start unset (a
// counterfactual replay attaches fresh ones, so the two worlds' evidence
// streams stay independent).
//
// A placement policy, and any sink but a provenance ring (a trace
// recorder, metrics: one whole-run view a fork would split), cannot be
// cloned meaningfully; Clone panics while one is attached.
func (s *Scheduler) Clone(eng *sim.Engine) *Scheduler {
	if s.policy != nil {
		panic("sched: Clone with a placement policy attached")
	}
	for _, sub := range s.sinks {
		if _, ring := sub.Sink.(*obs.ProvRing); !ring {
			panic(fmt.Sprintf("sched: Clone with a %T sink attached", sub.Sink))
		}
	}
	ns := &Scheduler{
		eng:            eng,
		topo:           s.topo,
		cfg:            s.cfg,
		hooks:          nopHooks{},
		idleHead:       s.idleHead,
		idleTail:       s.idleTail,
		nohzBalancer:   s.nohzBalancer,
		online:         s.online,
		nextTID:        s.nextTID,
		nextGID:        s.nextGID,
		started:        s.started,
		domainsBroken:  s.domainsBroken,
		counters:       s.counters,
		wastedCoreTime: s.wastedCoreTime,
		wastedStamp:    s.wastedStamp,
		idleCount:      s.idleCount,
		queuedTotal:    s.queuedTotal,
		curIdle:        s.curIdle,
		curQueued:      s.curQueued,
		loadGen:        s.loadGen,
	}

	// Groups, threads, cores and the cores' balance schedules are each
	// copied into one backing array: a fork is used and dropped as a
	// unit, and explain forks a world per replay.
	groups := make([]TaskGroup, len(s.groups))
	ns.groups = make([]*TaskGroup, len(s.groups))
	for i, g := range s.groups {
		groups[i] = *g
		ns.groups[i] = &groups[i]
	}
	ns.rootGroup = ns.groups[s.rootGroup.id]

	threads := make([]Thread, len(s.threads))
	ns.threads = make([]*Thread, len(s.threads))
	for i, t := range s.threads {
		ct := &threads[i]
		*ct = *t
		ct.group = ns.groups[t.group.id]
		// Runqueue membership is rebuilt below, per CPU.
		ct.onRQ = rqHandle{}
		ct.queued = false
		ns.threads[i] = ct
	}

	levels := 0
	for _, c := range s.cpus {
		levels += len(c.nextBalance)
	}
	nextBalance := make([]sim.Time, 0, levels)
	balanceFailed := make([]int, 0, levels)
	cpus := make([]CPU, len(s.cpus))
	ns.cpus = make([]*CPU, len(s.cpus))
	for i, c := range s.cpus {
		nc := &cpus[i]
		*nc = CPU{
			id:             c.id,
			rq:             newCFSRQ(),
			online:         c.online,
			accruedUpTo:    c.accruedUpTo,
			idleSince:      c.idleSince,
			idlePrev:       c.idlePrev,
			idleNext:       c.idleNext,
			inIdle:         c.inIdle,
			tickless:       c.tickless,
			domains:        c.domains, // interned, immutable
			pinnedFailure:  c.pinnedFailure,
			reschedPending: c.reschedPending,
			occIdle:        c.occIdle,
			occQueued:      c.occQueued,
			loadAt:         c.loadAt,
			loadGenAt:      c.loadGenAt,
			loadVal:        c.loadVal,
		}
		if c.curr != nil {
			nc.curr = ns.threads[c.curr.id]
		}
		c.rq.each(func(t *Thread) bool {
			nt := ns.threads[t.id]
			nt.onRQ = nc.rq.tree.Insert(rqKey{nt.vruntime, nt.id, nt})
			nt.queued = true
			return true
		})
		nc.rq.queuedWt = c.rq.queuedWt
		nc.rq.minVruntime = c.rq.minVruntime
		// Capped slices: a core whose hierarchy deepens reallocates
		// instead of growing into its neighbour's entries.
		lo, hi := len(nextBalance), len(nextBalance)+len(c.nextBalance)
		nextBalance = append(nextBalance, c.nextBalance...)
		balanceFailed = append(balanceFailed, c.balanceFailed...)
		nc.nextBalance = nextBalance[lo:hi:hi]
		nc.balanceFailed = balanceFailed[lo:hi:hi]
		nc.tickTm = eng.NewTimer(func() { ns.tick(nc) })
		nc.tickTm.RestoreFrom(c.tickTm)
		nc.reschedTm = eng.NewTimer(func() { ns.reschedFire(nc) })
		nc.reschedTm.RestoreFrom(c.reschedTm)
		ns.cpus[i] = nc
	}

	return ns
}

// ApplyFeatures switches the fix set of a (typically just-cloned)
// scheduler and points every core at the hierarchy the new construction
// flags give, looked up in the intern table: a key seen before — by any
// scheduler in the process — costs a map lookup, not a rebuild. The
// switch is not a rebuild, so DomainRebuilds is left alone and the
// clone's counters match a scheduler constructed with f from the start —
// the property the bisect fork path's byte-identity rests on.
//
// A rebuild resets every core's periodic-balance schedule, which is
// right when the hierarchy changed (the old levels no longer exist) but
// would be a pure perturbation for fixes that leave construction alone
// (group imbalance, overload-on-wakeup): a counterfactual replay's
// divergence from its control must come from the fix's decisions, not
// from a rescheduled balance pass. Cores whose list the new flags
// reproduce (the same pointers, or a structurally equal list under
// another key) therefore keep their schedules — also what makes a
// mid-run fork + ApplyFeatures byte-identical to a fresh run with the
// fix, when the fix had not fired by the fork instant. Flags that
// construction never reads (group imbalance, overload-on-wakeup) are
// switched without touching the hierarchy at all.
func (s *Scheduler) ApplyFeatures(f Features) {
	construction := f.FixGroupConstruction != s.cfg.Features.FixGroupConstruction ||
		f.FixMissingDomains != s.cfg.Features.FixMissingDomains
	s.cfg.Features = f
	if construction {
		s.installDomains(true)
		s.probeDomainsCheck()
	}
}

// DivergenceProbe watches a run on behalf of feature flags that are NOT
// enabled, and records which of them would have changed at least one
// scheduling decision had they been enabled. A flag that never fires is a
// proof that enabling it would have produced the exact same trajectory:
// every detector is evaluated at the decision it guards, on the live
// scheduler state, by recomputing the decision with the flag flipped —
// so by induction over the (deterministic) event sequence, a run under
// the extended fix set is byte-identical to the observed one. The bisect
// fork runner uses this to skip lattice configs whose outcome is already
// determined.
type DivergenceProbe struct {
	// Armed selects the flags to watch. Only flags unset in the
	// scheduler's config are meaningful.
	Armed Features
	// Fired accumulates the armed flags whose fix would have diverged.
	Fired Features
}

// SetDivergenceProbe installs (or clears, with nil) a divergence probe.
// The current domain hierarchy is checked immediately: construction-time
// divergence (group perspective, missing NUMA levels) exists before any
// event runs.
func (s *Scheduler) SetDivergenceProbe(p *DivergenceProbe) {
	s.probe = p
	if p != nil {
		s.probeDomainsCheck()
	}
}

// Probe returns the installed divergence probe, or nil. The checker uses
// it to report observation-level divergence (its episode classification
// reads the group-imbalance flag).
func (s *Scheduler) Probe() *DivergenceProbe { return s.probe }

// probeDomainsCheck fires the construction flags whose flip would change
// the current domain hierarchy. Called after every rebuild and at probe
// attach: domain structure is the one place the group-construction and
// missing-domains fixes act, so comparing the hierarchy that the flipped
// flag would have built against the real one is a complete divergence
// test for both.
func (s *Scheduler) probeDomainsCheck() {
	p := s.probe
	if p == nil {
		return
	}
	includeNUMA := s.includeNUMA()
	if p.Armed.FixGroupConstruction && !p.Fired.FixGroupConstruction {
		if !s.hierarchyMatches(includeNUMA, !s.cfg.Features.FixGroupConstruction) {
			p.Fired.FixGroupConstruction = true
		}
	}
	if p.Armed.FixMissingDomains && !p.Fired.FixMissingDomains {
		altNUMA := !s.domainsBroken || !s.cfg.Features.FixMissingDomains
		if altNUMA != includeNUMA && !s.hierarchyMatches(altNUMA, s.cfg.Features.FixGroupConstruction) {
			p.Fired.FixMissingDomains = true
		}
	}
}

// hierarchyMatches reports whether the hierarchy of the given
// construction parameters, taken from the intern table, reproduces every
// online core's current domain list. Pure: the scheduler is untouched.
func (s *Scheduler) hierarchyMatches(includeNUMA, gcFixed bool) bool {
	alt := s.hierarchy(includeNUMA, gcFixed)
	for _, c := range s.cpus {
		if c.online && !domainsEqual(c.domains, alt[c.id]) {
			return false
		}
	}
	return true
}

// domainsEqual compares two per-core hierarchies structurally, including
// group order — pickBusiestGroup breaks metric ties by first-seen, so a
// reordered group list is an observable difference. Lists of one
// interned key share their Domain pointers and compare in one step; the
// structural compare stays for lists of different keys that happen to
// build alike (a flag that changes no level on this machine).
func domainsEqual(a, b []*Domain) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		da, db := a[i], b[i]
		if da == db {
			continue
		}
		if da.Level != db.Level || da.Name != db.Name || !da.Span.Equal(db.Span) {
			return false
		}
		if len(da.Groups) != len(db.Groups) {
			return false
		}
		for j := range da.Groups {
			if !da.Groups[j].Equal(db.Groups[j]) {
				return false
			}
		}
	}
	return true
}
