package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/policy"
	"repro/internal/shard"
)

// Config tunes the coordinator. The zero value of every field takes a
// sensible default (withDefaults); Workers empty means "no remote
// workers", which degrades to a plain local run.
type Config struct {
	// Workers are the worker base URLs ("http://host:port").
	Workers []string
	// HTTPClient overrides the transport (tests); nil uses a default.
	HTTPClient *http.Client

	// ShardSize is the number of scenarios per shard (default 4).
	// Smaller shards cost more round-trips but retry, steal and
	// rebalance at finer grain.
	ShardSize int
	// ShardTimeout bounds one dispatch round-trip (default 120s).
	ShardTimeout time.Duration
	// MaxAttempts is how many failed dispatches a shard tolerates
	// before degrading to local execution (or failing the run when
	// DisableLocal). Default 4.
	MaxAttempts int
	// HeartbeatEvery is the liveness probe interval (default 500ms);
	// HeartbeatMisses consecutive misses mark a worker down (default 2).
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// StragglerAfter is how long a shard may be in flight before an
	// idle worker re-dispatches it (default 10s). The first verified
	// check-in wins; the loser is discarded by shard identity.
	StragglerAfter time.Duration
	// BackoffBase/BackoffMax bound the exponential retry backoff
	// (defaults 250ms / 5s); each delay gets ±25% jitter so retry
	// storms decorrelate.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DisableLocal forbids the local-execution fallback: a shard that
	// exhausts its attempts (or a run with no reachable worker) then
	// fails instead of degrading.
	DisableLocal bool
	// Logf logs coordinator progress; nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 4
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 120 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 2
	}
	if c.StragglerAfter <= 0 {
		c.StragglerAfter = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Report summarizes one distributed run for logs and tests. None of it
// feeds the artifact — the artifact is a pure function of the scenario
// list and runner options, which is the whole point.
type Report struct {
	// Shards is the number of planned shards; Dispatches counts every
	// shard sent to a worker (retries and steals included).
	Shards, Dispatches int
	// Failures counts dispatches that returned no usable result;
	// Rejected is the subset the check-in verifier refused.
	Failures, Rejected int
	// Stolen counts shards completed by a stealing re-dispatch;
	// Duplicates counts verified check-ins discarded because the shard
	// was already done.
	Stolen, Duplicates int
	// LocalShards counts shards degraded to in-process execution;
	// Degraded is set when the whole run fell back local (no reachable
	// workers at start).
	LocalShards int
	Degraded    bool
	// WorkersHealthy / WorkersExcluded split the configured workers at
	// probe time (excluded = unreachable or incompatible).
	WorkersHealthy, WorkersExcluded int
	// Executed / CachedResults split the scenario list: executed
	// somewhere vs spliced from the prior artifact by the incremental
	// plan.
	Executed, CachedResults int
}

// Coordinator plans, dispatches and merges distributed campaigns.
type Coordinator struct {
	cfg  Config
	opts campaign.RunnerOpts
}

// New builds a coordinator running scenarios under opts. opts.Workers
// and opts.OnResult apply only to locally executed shards.
func New(cfg Config, opts campaign.RunnerOpts) *Coordinator {
	return &Coordinator{cfg: cfg.withDefaults(), opts: opts}
}

// workerConn is one worker's liveness state.
type workerConn struct {
	url string
	cl  *client

	mu          sync.Mutex
	id          string
	healthy     bool
	misses      int
	rejects     int
	quarantined bool
}

func (w *workerConn) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// markDown takes the worker out of dispatch until a heartbeat revives
// it.
func (w *workerConn) markDown() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = false
}

// noteReject counts a verification rejection; three strikes quarantine
// the worker for the rest of the run (an alive-but-incompatible worker
// would otherwise burn every shard's retry budget).
func (w *workerConn) noteReject() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rejects++
	if w.rejects >= 3 {
		w.healthy = false
		w.quarantined = true
	}
}

func (w *workerConn) beat(ok bool, misses int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.quarantined {
		return
	}
	if ok {
		w.healthy = true
		w.misses = 0
		return
	}
	w.misses++
	if w.misses >= misses {
		w.healthy = false
	}
}

// job is one shard's dispatch state, guarded by run.mu.
type job struct {
	idx       int
	scenarios []campaign.Scenario
	byKey     map[string]campaign.Scenario

	done         bool
	part         *campaign.Campaign
	inflight     int
	failures     int
	backoffUntil time.Time
	dispatchedAt time.Time
	lastWorker   *workerConn
	localClaim   bool
	stolen       bool
}

type run struct {
	cfg     Config
	opts    campaign.RunnerOpts
	workers []*workerConn

	mu        sync.Mutex
	jobs      []*job
	doneCount int
	report    *Report
	err       error
}

// Run executes the scenario list across the configured workers and
// returns the merged artifact — byte-identical to a single-process
// campaign.RunScenarios over the same list and options. A non-nil
// prior artifact enables incremental planning: scenarios whose
// execution fingerprint is unchanged are spliced from it and never
// ship to any worker.
func (c *Coordinator) Run(ctx context.Context, scenarios []campaign.Scenario, prior *campaign.Campaign) (*campaign.Campaign, *Report, error) {
	report := &Report{}

	// Plan: the incremental diff decides what executes at all.
	toRun := scenarios
	var cached []campaign.Result
	var cachedScenarios []campaign.Scenario
	if prior != nil {
		d := shard.Plan(scenarios, prior, c.opts)
		c.cfg.Logf("coordinator: incremental plan: %s", d.Summary())
		toRun = d.ToRun
		cached = d.Cached
		cachedKeys := make(map[string]bool, len(cached))
		for i := range cached {
			cachedKeys[cached[i].Key] = true
		}
		for _, sc := range scenarios {
			if cachedKeys[sc.Key()] {
				cachedScenarios = append(cachedScenarios, sc)
			}
		}
	}
	report.Executed = len(toRun)
	report.CachedResults = len(cached)

	// Partition into shards: the same deterministic key-ordered
	// round-robin the -shard CLI flag uses, so a shard's contents
	// depend only on the scenario list and the shard count.
	jobs, err := planShards(toRun, c.cfg.ShardSize)
	if err != nil {
		return nil, report, err
	}
	report.Shards = len(jobs)

	// Probe the configured workers once; unreachable or incompatible
	// endpoints are excluded up front (mid-run death is the heartbeat
	// loop's job, mid-run recovery included).
	workers := c.probeWorkers(ctx, report)

	var parts []*campaign.Campaign
	if len(cached) > 0 {
		cp, err := campaign.AssembleArtifact(cachedScenarios, cached, c.opts)
		if err != nil {
			return nil, report, fmt.Errorf("dist: assembling cached results: %w", err)
		}
		parts = append(parts, cp)
	}

	switch {
	case len(jobs) == 0:
		// Everything was cached (or the list was empty).
	case len(workers) == 0:
		if c.cfg.DisableLocal {
			return nil, report, fmt.Errorf("dist: no reachable compatible workers and local fallback disabled")
		}
		c.cfg.Logf("coordinator: no reachable workers; degrading to local execution (%d scenarios)", len(toRun))
		report.Degraded = true
		report.LocalShards = len(jobs)
		local, err := campaign.RunScenariosCtx(ctx, toRun, c.opts)
		if err != nil {
			return nil, report, err
		}
		parts = append(parts, local)
		jobs = nil
	default:
		r := &run{cfg: c.cfg, opts: c.opts, workers: workers, jobs: jobs, report: report}
		if err := r.execute(ctx); err != nil {
			return nil, report, err
		}
	}
	for _, j := range jobs {
		parts = append(parts, j.part)
	}

	if len(parts) == 0 {
		// Empty scenario list: assemble the trivial artifact directly.
		empty, err := campaign.AssembleArtifact(scenarios, nil, c.opts)
		if err != nil {
			return nil, report, err
		}
		return empty, report, nil
	}
	merged, err := shard.Merge(parts...)
	if err != nil {
		return nil, report, fmt.Errorf("dist: merging checked-in shards: %w", err)
	}
	return merged, report, nil
}

// planShards partitions the to-run list into ceil(n/size) shards via
// shard.Spec's stable key-ordered round-robin.
func planShards(toRun []campaign.Scenario, size int) ([]*job, error) {
	if len(toRun) == 0 {
		return nil, nil
	}
	n := (len(toRun) + size - 1) / size
	jobs := make([]*job, 0, n)
	for i := 1; i <= n; i++ {
		sel, err := shard.Spec{Index: i, Count: n}.Select(toRun)
		if err != nil {
			return nil, err
		}
		j := &job{idx: i, scenarios: sel, byKey: make(map[string]campaign.Scenario, len(sel))}
		for _, sc := range sel {
			j.byKey[sc.Key()] = sc
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// probeWorkers checks each configured worker's /v1/info once and keeps
// the reachable, compatible ones.
func (c *Coordinator) probeWorkers(ctx context.Context, report *Report) []*workerConn {
	var out []*workerConn
	for _, url := range c.cfg.Workers {
		w := &workerConn{url: url, cl: newClient(url, c.cfg.HTTPClient)}
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		info, err := w.cl.info(pctx)
		cancel()
		if err == nil {
			err = verifyWorkerInfo(info)
		}
		if err != nil {
			c.cfg.Logf("coordinator: worker %s excluded: %v", url, err)
			report.WorkersExcluded++
			continue
		}
		w.id = info.ID
		w.healthy = !info.Draining
		c.cfg.Logf("coordinator: worker %s (%s) ok: model %s", url, info.ID, info.ModelVersion)
		report.WorkersHealthy++
		out = append(out, w)
	}
	return out
}

// verifyWorkerInfo rejects a worker whose stamps could never produce a
// mergeable check-in: wrong protocol, artifact schema, model version,
// or a policy registered at a different version than this binary's.
func verifyWorkerInfo(info WorkerInfo) error {
	if info.Protocol != ProtocolVersion {
		return fmt.Errorf("dist: worker speaks protocol %d, coordinator %d", info.Protocol, ProtocolVersion)
	}
	if info.ArtifactVersion != campaign.Version {
		return fmt.Errorf("dist: worker artifact version %d, coordinator %d", info.ArtifactVersion, campaign.Version)
	}
	if info.ModelVersion != campaign.ModelVersion {
		return fmt.Errorf("dist: worker model version %q, coordinator %q", info.ModelVersion, campaign.ModelVersion)
	}
	ours := policy.Versions()
	for name, v := range info.Policies {
		if have, ok := ours[name]; ok && have != v {
			return fmt.Errorf("dist: worker has policy %q at version %d, coordinator at %d", name, v, have)
		}
	}
	return nil
}

// execute drives the dispatch loops until every shard is done (or the
// run fails). Worker goroutines pull work; the monitor goroutine (this
// one) handles degradation and failure.
func (r *run) execute(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			r.workerLoop(runCtx, w)
		}(w)
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			r.heartbeatLoop(runCtx, w)
		}(w)
	}

	err := r.monitor(ctx)
	cancel()
	wg.Wait()
	return err
}

// monitor watches for completion, degrades exhausted or orphaned
// shards to local execution, and fails the run when degradation is
// forbidden.
func (r *run) monitor(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.mu.Lock()
		done := r.doneCount == len(r.jobs)
		var claim *job
		anyHealthy := false
		for _, w := range r.workers {
			if w.isHealthy() {
				anyHealthy = true
				break
			}
		}
		if !done {
			for _, j := range r.jobs {
				if j.done || j.localClaim || j.inflight > 0 {
					continue
				}
				if j.failures >= r.cfg.MaxAttempts || !anyHealthy {
					j.localClaim = true
					claim = j
					break
				}
			}
		}
		r.mu.Unlock()
		if done {
			return nil
		}
		if claim != nil {
			if r.cfg.DisableLocal {
				if !anyHealthy {
					return fmt.Errorf("dist: no healthy workers remain and local fallback is disabled (%d/%d shards done)",
						r.doneCountLocked(), len(r.jobs))
				}
				return fmt.Errorf("dist: shard %d failed %d dispatch attempts and local fallback is disabled",
					claim.idx, claim.failures)
			}
			r.cfg.Logf("coordinator: shard %d degraded to local execution (%d failures, healthy workers: %v)",
				claim.idx, claim.failures, anyHealthy)
			part, err := campaign.RunScenariosCtx(ctx, claim.scenarios, r.opts)
			if err != nil {
				return err
			}
			r.mu.Lock()
			if !claim.done {
				claim.done = true
				claim.part = part
				r.doneCount++
				r.report.LocalShards++
			} else {
				r.report.Duplicates++
			}
			claim.localClaim = false
			r.mu.Unlock()
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (r *run) doneCountLocked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doneCount
}

// workerLoop pulls shards for one worker until the run completes.
func (r *run) workerLoop(ctx context.Context, w *workerConn) {
	for {
		if ctx.Err() != nil {
			return
		}
		r.mu.Lock()
		finished := r.doneCount == len(r.jobs)
		r.mu.Unlock()
		if finished {
			return
		}
		if !w.isHealthy() {
			sleepCtx(ctx, r.cfg.HeartbeatEvery)
			continue
		}
		j, stolen := r.next(w)
		if j == nil {
			sleepCtx(ctx, 20*time.Millisecond)
			continue
		}
		r.dispatchOne(ctx, w, j, stolen)
	}
}

// next picks the worker's next shard under the dispatch policy: first a
// fresh or retryable shard (preferring ones this worker has not just
// failed, so retries land on *other* workers while any exist), then a
// straggler to steal. Returns nil when nothing is eligible.
func (r *run) next(w *workerConn) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	othersHealthy := false
	for _, o := range r.workers {
		if o != w && o.isHealthy() {
			othersHealthy = true
			break
		}
	}
	for _, j := range r.jobs {
		if j.done || j.localClaim || j.inflight > 0 {
			continue
		}
		if j.failures >= r.cfg.MaxAttempts || now.Before(j.backoffUntil) {
			continue
		}
		if j.failures > 0 && j.lastWorker == w && othersHealthy {
			continue
		}
		r.dispatchLocked(j, w, now)
		return j, false
	}
	for _, j := range r.jobs {
		if j.done || j.localClaim || j.inflight != 1 || j.lastWorker == w {
			continue
		}
		if now.Sub(j.dispatchedAt) < r.cfg.StragglerAfter {
			continue
		}
		r.dispatchLocked(j, w, now)
		return j, true
	}
	return nil, false
}

func (r *run) dispatchLocked(j *job, w *workerConn, now time.Time) {
	j.inflight++
	j.lastWorker = w
	j.dispatchedAt = now
	r.report.Dispatches++
}

// dispatchOne sends the shard, verifies the check-in, and records the
// outcome. First verified result wins; a duplicate (the straggler the
// steal raced, or the steal the straggler beat) is discarded.
func (r *run) dispatchOne(ctx context.Context, w *workerConn, j *job, stolen bool) {
	attempt := j.failures + 1
	job := JobFor(j.idx, attempt, j.scenarios, r.opts)
	rctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	part, err := w.cl.run(rctx, job)
	cancel()

	rejected := false
	if err == nil {
		if verr := r.verify(part, j); verr != nil {
			err = verr
			rejected = true
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	j.inflight--
	if err != nil {
		r.report.Failures++
		if rejected {
			r.report.Rejected++
		}
		if !j.done {
			j.failures++
			j.backoffUntil = time.Now().Add(backoff(r.cfg, j.failures))
			r.cfg.Logf("coordinator: shard %d attempt %d on %s failed: %v", j.idx, attempt, w.url, err)
		}
		if rejected {
			w.noteReject()
		} else if ctx.Err() == nil {
			// Transport-level failure: treat the worker as down until a
			// heartbeat says otherwise, so a dead worker stops drawing
			// dispatches instantly instead of at the next miss window.
			w.markDown()
		}
		return
	}
	if j.done {
		r.report.Duplicates++
		r.cfg.Logf("coordinator: shard %d duplicate check-in from %s discarded", j.idx, w.url)
		return
	}
	j.done = true
	j.part = part
	j.stolen = stolen
	r.doneCount++
	if stolen {
		r.report.Stolen++
	}
}

// verify is the check-in gate: an artifact merges only when it proves
// it ran exactly this shard under exactly the coordinator's options on
// a compatible binary. Everything here re-checks what shard.Merge will
// assert again pairwise — but rejecting at check-in turns "the final
// merge exploded" into "that worker's result was refused and the shard
// re-ran elsewhere".
func (r *run) verify(part *campaign.Campaign, j *job) error {
	if err := part.Mismatch(r.opts.Stamp()); err != nil {
		return fmt.Errorf("dist: check-in: %v", err)
	}
	if len(part.Results) != len(j.scenarios) {
		return fmt.Errorf("dist: check-in has %d results, shard %d has %d scenarios",
			len(part.Results), j.idx, len(j.scenarios))
	}
	seen := make(map[string]bool, len(part.Results))
	for i := range part.Results {
		res := &part.Results[i]
		sc, ok := j.byKey[res.Key]
		if !ok {
			return fmt.Errorf("dist: check-in result %q is not in shard %d", res.Key, j.idx)
		}
		if seen[res.Key] {
			return fmt.Errorf("dist: check-in repeats result %q", res.Key)
		}
		seen[res.Key] = true
		if want := campaign.DeriveSeed(r.opts.BaseSeed, sc.CellKey(), sc.Seed); res.EngineSeed != want {
			return fmt.Errorf("dist: check-in result %q has engine seed %d, want %d — payload corrupt or worker misconfigured",
				res.Key, res.EngineSeed, want)
		}
	}
	want := map[string]int{}
	for _, sc := range j.scenarios {
		if sc.Config.Version != 0 {
			want[sc.Config.Name] = sc.Config.Version
		}
	}
	if len(part.Policies) != len(want) {
		return fmt.Errorf("dist: check-in stamps %d policies, shard %d implies %d", len(part.Policies), j.idx, len(want))
	}
	for name, v := range part.Policies {
		if want[name] != v {
			return fmt.Errorf("dist: check-in has policy %q at version %d, coordinator at %d — different policy registries",
				name, v, want[name])
		}
	}
	return nil
}

// heartbeatLoop probes one worker's /v1/healthz on the configured
// cadence, marking it down after consecutive misses and back up on the
// first success — liveness recovers, quarantine does not.
func (r *run) heartbeatLoop(ctx context.Context, w *workerConn) {
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hctx, cancel := context.WithTimeout(ctx, r.cfg.HeartbeatEvery)
		err := w.cl.health(hctx)
		cancel()
		if ctx.Err() != nil {
			return
		}
		w.beat(err == nil, r.cfg.HeartbeatMisses)
	}
}

// backoff computes the exponential retry delay with ±25% jitter.
func backoff(cfg Config, failures int) time.Duration {
	d := cfg.BackoffBase
	for i := 1; i < failures && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	if q := int64(d / 2); q > 0 {
		d = d - d/4 + time.Duration(rand.Int63n(q))
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}
