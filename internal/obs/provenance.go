package obs

// Decision provenance: a preallocated ring of the scheduler decisions
// that the paper's visualization tool (§4.2) had to reconstruct after
// the fact — why a balance pass declined to move work, which group
// metric rejected a steal, which cores a wakeup considered before
// choosing one, and what caused each migration. The ring is the raw
// material for counterfactual episode replay (internal/explain): when a
// fix replay diverges from the control replay, the first differing
// provenance record *is* the decision the fix changed.
//
// A provenance record is a trace.Event of one of the ProvenanceKinds:
// the ring subscribes to the scheduler's decision stream (sched.Sink)
// next to any trace recorder, and the scheduler builds each record once
// for both. Like every other observability layer in the repo,
// provenance is opt-in and zero-cost when off: a scheduler with no sink
// subscribed to a kind pays one branch at its hook sites, Record is
// allocation-free (fixed-size records into a preallocated ring,
// keep-last-N with a drop counter), and nothing here touches wall-clock
// state, so records are byte-deterministic.

import "repro/internal/trace"

// ProvenanceKinds are the decision kinds a ProvRing subscribes to: why a
// balance pass moved or declined to move work, which steal was rejected,
// where each wakeup was placed and why each migration happened.
const ProvenanceKinds trace.KindSet = 1<<trace.KindBalance | 1<<trace.KindStealReject |
	1<<trace.KindWakeup | 1<<trace.KindMigration

// ProvRing is a preallocated keep-last-N ring of provenance records.
// Like trace.Recorder it bounds memory up front, but where the recorder
// drops new events once full, the ring overwrites the oldest — replay
// divergence analysis needs the records *nearest the episode*, which
// are always the newest.
type ProvRing struct {
	recs    []trace.Event // preallocated to cap; len grows to cap then wraps
	head    int           // next write position once full
	total   uint64        // records ever offered
	dropped uint64        // records overwritten
}

// DefaultProvCap is the ring capacity used when NewProvRing is given a
// non-positive capacity: large enough to span several checker
// monitoring windows of decisions at smoke scales.
const DefaultProvCap = 1 << 16

// NewProvRing returns a ring with room for capacity records.
func NewProvRing(capacity int) *ProvRing {
	if capacity <= 0 {
		capacity = DefaultProvCap
	}
	return &ProvRing{recs: make([]trace.Event, 0, capacity)}
}

// Kinds, Active and Take make the ring a subscriber of the scheduler's
// decision stream (sched.Sink): it takes every ProvenanceKinds record.
func (p *ProvRing) Kinds() trace.KindSet { return ProvenanceKinds }

// Active reports true: a ring records for as long as it is attached.
func (p *ProvRing) Active() bool { return true }

// Take records ev (see Record).
func (p *ProvRing) Take(ev trace.Event) { p.Record(ev) }

// Record appends r, overwriting the oldest record when full. It never
// allocates.
func (p *ProvRing) Record(r trace.Event) {
	p.total++
	if len(p.recs) < cap(p.recs) {
		p.recs = append(p.recs, r)
		return
	}
	p.recs[p.head] = r
	p.dropped++
	p.head++
	if p.head == len(p.recs) {
		p.head = 0
	}
}

// Total reports how many records were ever offered.
func (p *ProvRing) Total() uint64 { return p.total }

// Dropped reports how many records were overwritten by newer ones.
func (p *ProvRing) Dropped() uint64 { return p.dropped }

// Len reports the number of retained records.
func (p *ProvRing) Len() int { return len(p.recs) }

// Records appends the retained records to dst in time order (oldest
// first) and returns the extended slice.
func (p *ProvRing) Records(dst []trace.Event) []trace.Event {
	if len(p.recs) < cap(p.recs) {
		return append(dst, p.recs...)
	}
	dst = append(dst, p.recs[p.head:]...)
	return append(dst, p.recs[:p.head]...)
}

// Reset discards all retained records and counters, keeping the
// allocation.
func (p *ProvRing) Reset() {
	p.recs = p.recs[:0]
	p.head = 0
	p.total = 0
	p.dropped = 0
}
