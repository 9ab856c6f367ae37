// Package dist promotes sharded campaign execution from CLI flags to a
// fault-tolerant distributed service: a coordinator plans shards from a
// scenario list (reusing the incremental fingerprint so unchanged cells
// never ship), dispatches them to worker processes over HTTP, and
// merges checked-in shard artifacts through shard.Merge into the
// canonical artifact — byte-identical to what a single process running
// the whole list would have produced.
//
// Robustness is the point of the package, and every mechanism defends
// the byte-identity contract rather than weakening it:
//
//   - scenarios travel as references (topology/workload/config names
//     plus seed, scale and horizon) and are resolved against the
//     worker's own registries, so a worker can only ever run what its
//     binary actually models;
//   - check-ins are verified before they merge: artifact and model
//     version, base seed, checker lens, streak threshold, trace /
//     metrics / explain stamps, the exact scenario key set, the derived
//     engine seeds, and the policy-version stamps the shard's scenarios
//     imply. An incompatible or corrupted check-in is rejected and the
//     shard retries elsewhere — it never merges;
//   - failed or expired shards retry on other workers under exponential
//     backoff with jitter, stragglers are re-dispatched to idle workers
//     (work stealing), and the first verified result wins — duplicates
//     are discarded by shard identity, which is safe precisely because
//     results are deterministic functions of scenario identity;
//   - worker liveness is tracked by heartbeats; a worker that stops
//     answering is excluded from dispatch until it answers again, and a
//     draining worker refuses new shards while finishing in-flight
//     ones;
//   - when no worker is reachable (at start or mid-run), the
//     coordinator degrades to local in-process execution, so a
//     distributed invocation can never do worse than `campaign` itself.
//
// The deterministic fault-injection harness (FaultPlan) drives all of
// this in tests and in CI's dist-smoke gate: drop a check-in, delay a
// shard past the straggler threshold, kill a worker mid-shard, corrupt
// a payload — under every plan the merged artifact must stay
// byte-identical to the single-process run.
package dist

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/sim"
)

// ProtocolVersion guards the coordinator/worker wire format. A worker
// answering /v1/info with a different protocol is excluded from
// dispatch — version skew surfaces as a rejected worker, not a mangled
// merge.
const ProtocolVersion = 1

// The worker's HTTP surface.
const (
	// PathInfo returns the worker's identity and compatibility stamps.
	PathInfo = "/v1/info"
	// PathHealth is the heartbeat endpoint: 200 while serving, 503 once
	// draining, unreachable when dead.
	PathHealth = "/v1/healthz"
	// PathRun accepts a JobSpec and returns the shard's campaign
	// artifact JSON.
	PathRun = "/v1/run"
)

// WorkerInfo is the /v1/info payload: everything the coordinator needs
// to decide whether this worker's results may ever merge.
type WorkerInfo struct {
	ID              string         `json:"id"`
	Protocol        int            `json:"protocol"`
	ArtifactVersion int            `json:"artifact_version"`
	ModelVersion    string         `json:"model_version"`
	Policies        map[string]int `json:"policies,omitempty"`
	Draining        bool           `json:"draining,omitempty"`
}

// ScenarioRef names one scenario by its coordinates. Scenarios carry
// functions (topology builders, workload bodies, policy attach hooks)
// and therefore cannot travel; the reference resolves against the
// worker's own registries, exactly like CLI dimension overrides do.
type ScenarioRef struct {
	Topology  string  `json:"topology"`
	Workload  string  `json:"workload"`
	Config    string  `json:"config"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	HorizonNs int64   `json:"horizon_ns"`
}

// RefOf strips a scenario to its wire reference.
func RefOf(sc campaign.Scenario) ScenarioRef {
	return ScenarioRef{
		Topology:  sc.Topology.Name,
		Workload:  sc.Workload.Name,
		Config:    sc.Config.Name,
		Seed:      sc.Seed,
		Scale:     sc.Scale,
		HorizonNs: int64(sc.Horizon),
	}
}

// Resolve rebuilds the scenario from the receiving binary's registries.
// An unknown name is the worker's registries disagreeing with the
// coordinator's — a compatibility error, reported as such.
func (r ScenarioRef) Resolve() (campaign.Scenario, error) {
	t, ok := campaign.TopologyByName(r.Topology)
	if !ok {
		return campaign.Scenario{}, fmt.Errorf("dist: unknown topology %q", r.Topology)
	}
	w, ok := campaign.WorkloadByName(r.Workload)
	if !ok {
		return campaign.Scenario{}, fmt.Errorf("dist: unknown workload %q", r.Workload)
	}
	c, ok := campaign.ConfigByName(r.Config)
	if !ok {
		return campaign.Scenario{}, fmt.Errorf("dist: unknown config/policy %q", r.Config)
	}
	return campaign.Scenario{
		Topology: t,
		Workload: w,
		Config:   c,
		Seed:     r.Seed,
		Scale:    r.Scale,
		Horizon:  sim.Time(r.HorizonNs),
	}, nil
}

// JobSpec is one shard dispatch: the scenario references plus the fully
// resolved runner options the worker must reproduce. Options travel
// resolved (post-defaulting) so both sides stamp identical artifact
// metadata without sharing defaulting code paths.
type JobSpec struct {
	// ID is unique per dispatch (shard plus attempt) for log
	// correlation; Shard is the shard's stable index within the plan.
	ID      string `json:"id"`
	Shard   int    `json:"shard"`
	Attempt int    `json:"attempt"`

	Protocol int `json:"protocol"`

	BaseSeed         int64 `json:"base_seed"`
	CheckerSNs       int64 `json:"checker_s_ns"`
	CheckerMNs       int64 `json:"checker_m_ns"`
	CheckerSamples   int   `json:"checker_samples,omitempty"`
	CheckerProfileNs int64 `json:"checker_profile_ns,omitempty"`
	StreakK          int   `json:"streak_k"`
	Trace            bool  `json:"trace,omitempty"`
	Metrics          bool  `json:"metrics,omitempty"`
	MetricsCadenceNs int64 `json:"metrics_cadence_ns,omitempty"`
	Explain          bool  `json:"explain,omitempty"`

	Scenarios []ScenarioRef `json:"scenarios"`
}

// JobFor builds the dispatch for one shard under the coordinator's
// runner options, resolving every campaign default exactly once — the
// coordinator's resolution is the one the worker reproduces and the
// check-in verifier later asserts.
func JobFor(shardIdx, attempt int, scenarios []campaign.Scenario, opts campaign.RunnerOpts) JobSpec {
	ck, st := opts.EffectiveChecker(), opts.Stamp()
	j := JobSpec{
		ID:               fmt.Sprintf("shard-%d-try-%d", shardIdx, attempt),
		Shard:            shardIdx,
		Attempt:          attempt,
		Protocol:         ProtocolVersion,
		BaseSeed:         st.BaseSeed,
		CheckerSNs:       st.CheckerSNs,
		CheckerMNs:       st.CheckerMNs,
		CheckerSamples:   ck.Samples,
		CheckerProfileNs: int64(ck.ProfileWindow),
		StreakK:          st.StreakK,
		Trace:            st.Trace,
		Metrics:          st.Metrics,
		MetricsCadenceNs: st.MetricsCadenceNs,
		Explain:          st.Explain,
	}
	for _, sc := range scenarios {
		j.Scenarios = append(j.Scenarios, RefOf(sc))
	}
	return j
}

// RunnerOpts reconstructs the campaign options on the worker side.
// Workers and OnResult stay local concerns (pool size is the worker's
// own flag; progress reporting never crosses the wire).
func (j JobSpec) RunnerOpts() campaign.RunnerOpts {
	return campaign.RunnerOpts{
		BaseSeed: j.BaseSeed,
		Checker: checker.Config{
			S:             sim.Time(j.CheckerSNs),
			M:             sim.Time(j.CheckerMNs),
			Samples:       j.CheckerSamples,
			ProfileWindow: sim.Time(j.CheckerProfileNs),
		},
		StreakK:        j.StreakK,
		Trace:          j.Trace,
		Metrics:        j.Metrics,
		MetricsCadence: sim.Time(j.MetricsCadenceNs),
		Explain:        j.Explain,
	}
}

// ResolveScenarios resolves every reference, failing on the first
// unknown name.
func (j JobSpec) ResolveScenarios() ([]campaign.Scenario, error) {
	out := make([]campaign.Scenario, 0, len(j.Scenarios))
	for _, r := range j.Scenarios {
		sc, err := r.Resolve()
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}
