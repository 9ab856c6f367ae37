package explain

import (
	"sync"
	"testing"

	"repro/internal/sched"
)

// SkipAudit counts the fix replays the skip rule elided, by reason:
// "on" (the fix was already in the scenario's features) or the name of
// the construction fix whose divergence probe stayed silent ("gc",
// "md").
type SkipAudit struct {
	mu      sync.Mutex
	skipped map[string]int
}

// Skipped returns the count of skipped replays for reason.
func (a *SkipAudit) Skipped(reason string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.skipped[reason]
}

// AuditSkips re-runs every fix replay the skip rule elides, for the rest
// of t, through runReplay in full, and fails t unless the run equals the
// control's Replay with a record-for-record identical provenance stream.
func AuditSkips(t *testing.T) *SkipAudit {
	t.Helper()
	a := &SkipAudit{skipped: map[string]int{}}
	skipHook = func(o *Observer, spec episodeSpec, base, feats sched.Features, control Replay) {
		reason := "on"
		switch {
		case feats.FixGroupConstruction != base.FixGroupConstruction:
			reason = "gc"
		case feats.FixMissingDomains != base.FixMissingDomains:
			reason = "md"
		}
		rep := o.runReplay(spec, feats, nil)
		recs := o.ring.Records(nil)
		if rep != control {
			t.Errorf("%s episode at %v, skipped %s replay %+v differs from control %+v",
				spec.kind, spec.from, reason, rep, control)
		}
		if d := firstDivergence(o.controlRecs, recs); d != nil {
			t.Errorf("%s episode at %v, skipped %s replay's provenance diverges at %d: %s",
				spec.kind, spec.from, reason, d.Index, divergenceLine(d))
		}
		a.mu.Lock()
		a.skipped[reason]++
		a.mu.Unlock()
	}
	t.Cleanup(func() { skipHook = nil })
	return a
}
