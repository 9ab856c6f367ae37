package sched

import (
	"testing"

	"repro/internal/topology"
)

// ApplyFeatures rebuilds domains only when a construction flag changes:
// the balance-path flags are switched in place, keeping every core's
// hierarchy and balance schedule.
func TestApplyFeaturesRebuildsOnlyForConstructionFlags(t *testing.T) {
	s := newTestSched(topology.Bulldozer8(), DefaultConfig())
	top := s.cpus[0].domains[len(s.cpus[0].domains)-1]
	rebuilds := s.Counters().DomainRebuilds

	balance := Features{FixGroupImbalance: true, FixOverloadWakeup: true}
	s.ApplyFeatures(balance)
	if s.Config().Features != balance {
		t.Fatalf("features = %+v, want %+v", s.Config().Features, balance)
	}
	if got := s.cpus[0].domains[len(s.cpus[0].domains)-1]; got != top {
		t.Fatal("balance-only flags rebuilt the domain hierarchy")
	}

	construction := balance
	construction.FixGroupConstruction = true
	s.ApplyFeatures(construction)
	if s.Config().Features != construction {
		t.Fatalf("features = %+v, want %+v", s.Config().Features, construction)
	}
	if got := s.cpus[0].domains[len(s.cpus[0].domains)-1]; got == top {
		t.Fatal("group-construction flag did not rebuild the domain hierarchy")
	}
	if got := s.Counters().DomainRebuilds; got != rebuilds {
		t.Fatalf("DomainRebuilds = %d, want %d (ApplyFeatures restores it)", got, rebuilds)
	}
}
