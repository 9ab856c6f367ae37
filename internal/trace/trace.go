// Package trace implements the recording substrate of the paper's
// visualization tool (§4.2).
//
// The kernel instrumentation described in the paper stores fixed-size
// events in "a large global array in memory of a static size": every change
// to a runqueue's size (add_nr_running / sub_nr_running), every change to a
// runqueue's load (account_entity_enqueue / dequeue), and the set of cores
// considered by each load-balancing or thread-wakeup decision
// (select_idle_sibling, update_sg_lb_stats, find_busiest_queue,
// find_idlest_group). This package mirrors that design: a Recorder with a
// fixed capacity, compact events, and no sampling — every change is
// recorded while the recorder is active.
package trace

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Kind discriminates event types, matching the three instrumentation
// families of §4.2 plus migrations (used by the sanity checker's monitoring
// phase, §4.1) and the decision-provenance kinds (steal rejections and
// wakeup placements) that only a provenance ring subscribes to.
type Kind uint8

// Event kinds.
const (
	// KindRQSize records a change in a runqueue's size (nr_running).
	KindRQSize Kind = iota
	// KindRQLoad records a change in a runqueue's load.
	KindRQLoad
	// KindConsidered records the set of cores examined by a load-balancing
	// or wakeup decision.
	KindConsidered
	// KindMigration records a thread moving between cores: CPU is the
	// source, Arg the thread id, Op the cause, and the destination is in
	// Dst (in Aux in the trace form, see Recorder.Take).
	KindMigration
	// KindFork records thread creation, KindExit thread exit. Both are
	// tracked by the sanity checker's monitoring phase.
	KindFork
	// KindExit records a thread exiting.
	KindExit
	// KindBalance records the outcome of one load-balancing decision with
	// the comparison values it used — the §4.1 profiling that exposed the
	// Group Imbalance bug ("we used these profiles to understand how the
	// load-balancing functions were executed and why they failed to
	// balance the load"). Arg carries the local group's metric, Aux the
	// busiest group's (-1 when no busiest was found), Code the Verdict,
	// and Mask the busiest group's cores. Dst carries the number of
	// threads moved (in Aux for VerdictMoved in the trace form, see
	// Recorder.Take).
	KindBalance
	// KindStealReject records a steal attempt that moved nothing: CPU is
	// the would-be thief, Dst the rejecting source core, Code the Verdict
	// explaining the rejection (pinned or cache-hot), Arg the busiest
	// group's metric that nominated the source, Mask the busiest group's
	// cores.
	KindStealReject
	// KindWakeup records a wakeup placement: CPU is the core the decision
	// ran against (the previous/affine core), Dst the chosen core, Code
	// the placement path (WakeOriginal, WakeFixed or WakePolicy), Arg the
	// thread id, Aux 1 when the chosen core was busy while an allowed
	// core idled, Mask the considered cores.
	KindWakeup
)

// Wakeup placement paths (KindWakeup Code values).
const (
	// WakeOriginal is the buggy select_task_rq_fair model.
	WakeOriginal uint8 = iota
	// WakeFixed is the overload-on-wakeup fix's idle-core scan.
	WakeFixed
	// WakePolicy is a placement-policy override.
	WakePolicy
)

// KindSet is a set of event kinds, one bit per Kind: what a sink of the
// scheduler's decision stream subscribes to.
type KindSet uint16

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// RecorderKinds are the kinds a Recorder subscribes to: the §4.2
// instrumentation plus the balance profile. The provenance-only kinds
// (steal rejections, wakeup placements) never reach a trace file.
const RecorderKinds KindSet = 1<<KindRQSize | 1<<KindRQLoad | 1<<KindConsidered |
	1<<KindMigration | 1<<KindFork | 1<<KindExit | 1<<KindBalance

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case KindRQSize:
		return "rq-size"
	case KindRQLoad:
		return "rq-load"
	case KindConsidered:
		return "considered"
	case KindMigration:
		return "migration"
	case KindFork:
		return "fork"
	case KindExit:
		return "exit"
	case KindBalance:
		return "balance"
	case KindStealReject:
		return "steal-reject"
	case KindWakeup:
		return "wakeup"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Verdict is the outcome of a load-balancing decision (KindBalance).
type Verdict uint8

// Balance verdicts.
const (
	// VerdictMoved: threads were migrated toward the balancing core.
	VerdictMoved Verdict = iota
	// VerdictBalanced: the busiest group's metric did not exceed the
	// local group's (Algorithm 1 lines 15-16) — the verdict the Group
	// Imbalance bug produces while cores sit idle.
	VerdictBalanced
	// VerdictNoBusiest: no group had stealable queued threads.
	VerdictNoBusiest
	// VerdictPinned: stealing failed because of tasksets.
	VerdictPinned
	// VerdictHot: stealing skipped cache-hot threads and moved nothing.
	VerdictHot
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictMoved:
		return "moved"
	case VerdictBalanced:
		return "balanced"
	case VerdictNoBusiest:
		return "no-busiest"
	case VerdictPinned:
		return "pinned"
	case VerdictHot:
		return "cache-hot"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Op identifies which scheduler decision produced a KindConsidered event.
type Op uint8

// Considered-cores operations.
const (
	OpNone Op = iota
	// OpPeriodicBalance is the periodic load balancer (Algorithm 1).
	OpPeriodicBalance
	// OpNewIdleBalance is the "emergency" balance a core runs when it is
	// about to go idle.
	OpNewIdleBalance
	// OpNohzBalance is a balance run by the NOHZ balancer core on behalf
	// of a tickless idle core.
	OpNohzBalance
	// OpWakeup is thread-wakeup core selection (select_task_rq_fair).
	OpWakeup
	// OpFork is new-thread placement.
	OpFork
	// OpAffinity is a migration forced by an affinity-mask change.
	OpAffinity
	// OpSteal is a single-thread steal outside the balance pass
	// (Scheduler.StealOne, the global-queue disciplines' primitive).
	OpSteal
	// OpHotplug is a migration draining a CPU going offline.
	OpHotplug
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpPeriodicBalance:
		return "periodic"
	case OpNewIdleBalance:
		return "newidle"
	case OpNohzBalance:
		return "nohz"
	case OpWakeup:
		return "wakeup"
	case OpFork:
		return "fork"
	case OpAffinity:
		return "affinity"
	case OpSteal:
		return "steal"
	case OpHotplug:
		return "hotplug"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mask is a bitset over cores, sized for machines up to 128 logical CPUs
// (the paper's machine has 64).
type Mask [2]uint64

// MaskBits is the number of cores a Mask can represent. Topologies are
// validated against this limit at construction (topology.New), so the
// panic in Set is a second line of defense with a readable message
// rather than the expected failure mode.
const MaskBits = 128

// Set sets bit c. It panics when c is outside [0, MaskBits): a wider
// machine would silently alias cores modulo the mask width otherwise.
func (m *Mask) Set(c int) {
	if c < 0 || c >= MaskBits {
		panic(fmt.Sprintf("trace: cpu %d out of Mask range [0,%d) — widen trace.Mask for larger machines", c, MaskBits))
	}
	m[c>>6] |= 1 << (c & 63)
}

// Has reports whether bit c is set.
func (m Mask) Has(c int) bool { return m[c>>6]&(1<<(c&63)) != 0 }

// Count returns the number of set bits.
func (m Mask) Count() int { return bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) }

// Event is one scheduler decision record: both the §4.2 trace record a
// Recorder stores and the decision-provenance record a provenance ring
// keeps (internal/obs). The scheduler builds each record once and hands
// it to every subscribed sink. Field meaning depends on Kind (see the
// Kind constants). The kernel version of this structure is 20 bytes;
// ours is close, and like the kernel's it is fixed-size so recorders and
// rings can preallocate their buffers.
type Event struct {
	At   sim.Time
	Kind Kind
	Op   Op
	Code uint8 // Verdict for KindBalance and KindStealReject, path for KindWakeup
	CPU  int32 // core the event concerns
	Dst  int32 // destination or source core, or threads moved (decision stream only; never encoded)
	Arg  int64 // rq size, load, thread id, or local metric depending on Kind
	Aux  int64 // destination cpu, waker tid, or busiest metric
	Mask Mask  // considered cores / busiest group span
}

// String renders a decision record for humans (explain reports, trace
// args).
func (ev Event) String() string {
	switch ev.Kind {
	case KindBalance:
		return fmt.Sprintf("%v balance[%s] cpu%d %s local=%d busiest=%d moved=%d",
			ev.At, ev.Op, ev.CPU, Verdict(ev.Code), ev.Arg, ev.Aux, ev.Dst)
	case KindStealReject:
		return fmt.Sprintf("%v steal-reject cpu%d <- cpu%d %s busiest=%d",
			ev.At, ev.CPU, ev.Dst, Verdict(ev.Code), ev.Arg)
	case KindWakeup:
		busy := ""
		if ev.Aux != 0 {
			busy = " busy-while-idle"
		}
		return fmt.Sprintf("%v wakeup t%d cpu%d -> cpu%d path=%s considered=%d%s",
			ev.At, ev.Arg, ev.CPU, ev.Dst, WakePath(ev.Code), ev.Mask.Count(), busy)
	case KindMigration:
		return fmt.Sprintf("%v migrate t%d cpu%d -> cpu%d cause=%s",
			ev.At, ev.Arg, ev.CPU, ev.Dst, ev.Op)
	default:
		return fmt.Sprintf("%v %s", ev.At, ev.Kind)
	}
}

// WakePath names a KindWakeup placement path.
func WakePath(code uint8) string {
	switch code {
	case WakeFixed:
		return "fixed"
	case WakePolicy:
		return "policy"
	default:
		return "original"
	}
}

// Recorder accumulates events in a preallocated array. It starts inactive;
// events are dropped (counted) once capacity is reached, mirroring the
// kernel tool's static buffer.
type Recorder struct {
	events  []Event
	cap     int
	active  bool
	dropped uint64
}

// NewRecorder returns a Recorder with room for capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Recorder{events: make([]Event, 0, capacity), cap: capacity}
}

// Start begins recording ("start a profiling session on demand", §4.2).
func (r *Recorder) Start() { r.active = true }

// Stop ends recording.
func (r *Recorder) Stop() { r.active = false }

// Active reports whether events are being recorded.
func (r *Recorder) Active() bool { return r.active }

// Reset discards all recorded events and the drop count.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.dropped = 0
}

// Record appends ev if the recorder is active and has capacity.
func (r *Recorder) Record(ev Event) {
	if !r.active {
		return
	}
	if len(r.events) >= r.cap {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Kinds, Active and Take make a Recorder a subscriber of the scheduler's
// decision stream (sched.Sink): it takes the RecorderKinds while started.
func (r *Recorder) Kinds() KindSet { return RecorderKinds }

// Take records a decision record in its trace form. The decision stream
// carries a moved balance's count and a migration's destination in Dst;
// the trace form, like every trace file ever written, has no Dst and
// carries both in Aux.
func (r *Recorder) Take(ev Event) {
	if ev.Kind == KindMigration || ev.Kind == KindBalance && Verdict(ev.Code) == VerdictMoved {
		ev.Aux = int64(ev.Dst)
	}
	ev.Dst = 0
	r.Record(ev)
}

// Dropped reports how many events were lost to the capacity limit.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns the recorded events. The slice aliases internal storage
// and must not be modified.
func (r *Recorder) Events() []Event { return r.events }

// Filter returns the events matching keep, in order.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, ev := range r.events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// ByKind returns events of kind k.
func (r *Recorder) ByKind(k Kind) []Event {
	return r.Filter(func(ev Event) bool { return ev.Kind == k })
}

// Between returns events with from <= At < to.
func (r *Recorder) Between(from, to sim.Time) []Event {
	return r.Filter(func(ev Event) bool { return ev.At >= from && ev.At < to })
}
