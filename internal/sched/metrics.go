package sched

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Metrics is the scheduler's observability surface: the hook-driven
// instruments that cannot be derived by sampling scheduler state. AttachObs
// subscribes it to the decision stream's balance records, like any other
// Sink, so a scheduler without metrics pays nothing extra on the hot
// paths.
type Metrics struct {
	s *Scheduler
	// verdicts counts load-balance outcomes by trace.Verdict — the §4.1
	// profile that exposed the Group Imbalance bug ("why they failed to
	// balance the load").
	verdicts [5]*obs.Counter
	// imbalance observes, per non-Moved balance pass that found a
	// busiest group, the local-vs-busiest metric gap in milli-load
	// units: the imbalance the balancer saw and declined to correct.
	imbalance *obs.Histogram
}

// Kinds subscribes Metrics to balance records (Sink).
func (mx *Metrics) Kinds() trace.KindSet { return 1 << trace.KindBalance }

// Active reports true: metrics observe every balance pass (Sink).
func (mx *Metrics) Active() bool { return true }

// Take counts a balance verdict and observes the imbalance the balancer
// saw (Sink). The record's metrics are truncated to integers, so the gap
// comes exact from the scheduler that emitted it.
func (mx *Metrics) Take(ev trace.Event) {
	mx.verdicts[ev.Code].Inc()
	if gap := mx.s.balanceGap; gap > 0 {
		mx.imbalance.Observe(int64(gap * 1000))
	}
}

// AttachObs registers the scheduler's instruments on reg and attaches
// the hook-driven Metrics as a decision-stream sink. Sampled series read
// live scheduler state on the registry's cadence (no hot-path cost at
// all); only the balance verdicts and the imbalance histogram need
// hooks. Call once per scheduler.
func (s *Scheduler) AttachObs(reg *obs.Registry) *Metrics {
	mx := &Metrics{s: s, imbalance: reg.Histogram("sched/balance_imbalance_milli")}
	for v := trace.VerdictMoved; v <= trace.VerdictHot; v++ {
		mx.verdicts[v] = reg.Counter("sched/balance_"+v.String(), -1)
	}

	// Per-CPU runqueue depth: the signal htop's whole-machine average
	// hides (§4.2) — a single core's sampled series shows the
	// idle-while-overloaded dip directly.
	for _, c := range s.cpus {
		c := c
		reg.Sampled("sched/runq", int(c.id), obs.KindGauge, func() int64 {
			return int64(c.nrRunning())
		})
	}

	// Machine-wide occupancy: idle cores vs queued threads. Both
	// simultaneously non-zero is the paper's broken invariant.
	reg.Sampled("sched/idle_cores", -1, obs.KindGauge, func() int64 { return int64(s.curIdle) })
	reg.Sampled("sched/queued_threads", -1, obs.KindGauge, func() int64 { return int64(s.curQueued) })
	reg.Sampled("sched/wasted_core_ns", -1, obs.KindCounter, func() int64 { return int64(s.WastedCoreTime()) })

	// Cumulative activity counters sampled from the existing Counters
	// struct — sampling reuses the accounting the scheduler already
	// does, so enabling metrics adds no hot-path work for these.
	reg.Sampled("sched/migrations", -1, obs.KindCounter, func() int64 { return int64(s.counters.Migrations) })
	reg.Sampled("sched/switches", -1, obs.KindCounter, func() int64 { return int64(s.counters.Switches) })
	reg.Sampled("sched/preemptions", -1, obs.KindCounter, func() int64 { return int64(s.counters.Preemptions) })
	reg.Sampled("sched/balance_calls", -1, obs.KindCounter, func() int64 { return int64(s.counters.BalanceCalls) })
	reg.Sampled("sched/newidle_balance_calls", -1, obs.KindCounter, func() int64 { return int64(s.counters.NewIdleBalanceCalls) })
	reg.Sampled("sched/wakeups_on_idle", -1, obs.KindCounter, func() int64 { return int64(s.counters.WakeupsOnIdle) })
	reg.Sampled("sched/wakeups_on_busy", -1, obs.KindCounter, func() int64 { return int64(s.counters.WakeupsOnBusy) })

	s.Attach(mx)
	return mx
}
