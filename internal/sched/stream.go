package sched

import "repro/internal/trace"

// The decision stream: every scheduler decision the paper's tools read —
// runqueue changes and considered cores (§4.2), balance verdicts (§4.1),
// steal rejections, wakeup placements and migrations — is built once as
// a trace.Event and handed to each sink subscribed to its kind. A hook
// site whose kind no sink subscribes to costs one branch, and a record
// is built only while a subscribed sink is active: a runqueue-load
// record reads CPULoad, which folds load averages forward, so building
// one while the checker's windowed recorder is stopped would change the
// run.

// Sink is a subscriber to the decision stream: trace.Recorder,
// obs.ProvRing and Metrics.
type Sink interface {
	// Kinds returns the record kinds the sink subscribes to; Attach
	// reads it once.
	Kinds() trace.KindSet
	// Active reports whether the sink takes records now (a recorder
	// only between Start and Stop).
	Active() bool
	// Take receives one record of a subscribed kind while active.
	Take(ev trace.Event)
}

type subscription struct {
	Sink
	kinds trace.KindSet
}

// Attach subscribes sink to the decision stream, for the scheduler's
// lifetime; sinks take records in attach order.
func (s *Scheduler) Attach(sink Sink) {
	s.sinks = append(s.sinks, subscription{sink, sink.Kinds()})
	s.kinds |= sink.Kinds()
}

// wants reports whether an active sink subscribes to k: the check every
// hook site makes before it builds a record.
func (s *Scheduler) wants(k trace.Kind) bool {
	return s.kinds.Has(k) && s.activeFor(k)
}

func (s *Scheduler) activeFor(k trace.Kind) bool {
	for _, sub := range s.sinks {
		if sub.kinds.Has(k) && sub.Active() {
			return true
		}
	}
	return false
}

// emit hands ev to every active sink subscribed to its kind.
func (s *Scheduler) emit(ev trace.Event) {
	for _, sub := range s.sinks {
		if sub.kinds.Has(ev.Kind) && sub.Active() {
			sub.Take(ev)
		}
	}
}

// rqKinds are the runqueue-change kinds emitRQ builds.
const rqKinds trace.KindSet = 1<<trace.KindRQSize | 1<<trace.KindRQLoad

// emitRQ records c's runqueue size and load after a change: the
// add_nr_running/sub_nr_running and account_entity_enqueue/dequeue
// instrumentation of §4.2.
func (s *Scheduler) emitRQ(c *CPU) {
	if s.kinds&rqKinds == 0 {
		return
	}
	if s.wants(trace.KindRQSize) {
		s.emit(trace.Event{At: s.eng.Now(), Kind: trace.KindRQSize, CPU: int32(c.id), Arg: int64(c.nrRunning())})
	}
	if s.wants(trace.KindRQLoad) {
		s.emit(trace.Event{At: s.eng.Now(), Kind: trace.KindRQLoad, CPU: int32(c.id), Arg: int64(s.CPULoad(c.id))})
	}
}

// EmitSnapshot records the current runqueue size and load of every online
// core. Call it right after activating a recorder: trace events only
// capture changes, so consumers need the initial state to reconstruct
// occupancy (cores busy since before the recording window would otherwise
// read as idle).
func (s *Scheduler) EmitSnapshot() {
	for _, c := range s.cpus {
		if c.online {
			s.emitRQ(c)
		}
	}
}
