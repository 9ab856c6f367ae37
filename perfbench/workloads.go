package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/dist"
	"repro/internal/shard"
)

// pinnedSeed is the base seed the committed oracles were produced
// with. Under any other seed the benchmark checks outputs against
// oracles that need no pinned bytes.
const pinnedSeed = 42

// env is what every workload is built from.
type env struct {
	root  string // checkout root, holding baselines/
	seed  int64  // workload base seed
	procs int    // simulation goroutines (and loopback connections) allowed
}

// passOut is one pass's output, reduced to what the run keeps.
type passOut struct {
	fp        fingerprint
	scenarios int    // scenarios whose output the oracle checks
	failed    int    // scenarios the pass itself found wrong
	events    uint64 // simulation events, replay windows included
	// results is the pass's campaign artifact, for layer counts.
	results []campaign.Result
	// artifact is the encoded artifact, on workloads whose probe reads it.
	artifact []byte
}

// instance is a set-up workload.
type instance interface {
	// pass runs the workload once; tr is nil on untraced passes.
	pass(tr *tracer) (passOut, error)
	// reference returns the oracle every pass must match.
	reference() (fingerprint, error)
	// probe makes the traced run's layer measurements that a pass cannot
	// (rebuilt scenarios with wrapped hooks, single-scenario timings),
	// checking every output it produces against last. It returns the
	// scenarios it ran and how many of them mismatched.
	probe(tr *tracer, last passOut) (attempted, failed int, err error)
	// size is the number of scenarios a pass checks.
	size() int
	close()
}

type workload struct {
	name, why string
	setup     func(e *env) (instance, error)
}

var workloads = []workload{
	{"lattice", "bisect default preset, forked lattice: balance path and world forking dominate; no explain, no network", setupLattice},
	{"explain", "bisect smoke preset with counterfactual explain: episode replay and provenance capture dominate", setupExplain},
	{"serve-mix", "campaign pool over serve, tpch and NAS under five policies: wakeup placement and newidle balancing dominate", setupServeMix},
	{"fleet", "coordinator and two loopback workers, fresh then incremental: dispatch, JSON codec and shard merge dominate", setupFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- lattice and explain: bisect sweeps ----------------------------------

// bisectSweep is a bisect.Run workload: lattice (default preset, forked)
// or explain (smoke preset with counterfactual replay).
type bisectSweep struct {
	opts      bisect.Options
	scenarios []campaign.Scenario
	// baseline fingerprints the committed baseline set-up loaded. It
	// runs outside the timed set-up, when the pinned seed's oracle is
	// first needed.
	baseline func() (fingerprint, error)
	ref      *fingerprint // nil until reference first runs
}

// setupLattice and setupExplain load the committed baseline under every
// seed, so set-up does the same work whichever seed runs; only the
// pinned seed checks against it.
func setupLattice(e *env) (instance, error) {
	s := newBisectSweep(e, bisect.DefaultOptions())
	path := baselinePath(e.root, "bisect-default.json")
	r, err := bisect.Load(path)
	if err != nil {
		return nil, fmt.Errorf("loading oracle: %w", err)
	}
	s.baseline = func() (fingerprint, error) { return bisectOracle(path, r) }
	return s, nil
}

func setupExplain(e *env) (instance, error) {
	o := bisect.SmokeOptions()
	o.Explain = true
	s := newBisectSweep(e, o)
	data, err := os.ReadFile(baselinePath(e.root, "explain-smoke.json"))
	if err != nil {
		return nil, fmt.Errorf("loading oracle: %w", err)
	}
	rep, err := decodeExplain(data)
	if err != nil {
		return nil, fmt.Errorf("loading oracle: %w", err)
	}
	s.baseline = func() (fingerprint, error) { return explainFingerprint(rep, data) }
	return s, nil
}

func newBisectSweep(e *env, o bisect.Options) *bisectSweep {
	o.BaseSeed = e.seed
	o.Workers = e.procs
	return &bisectSweep{opts: o, scenarios: o.Matrix().Scenarios()}
}

func (s *bisectSweep) runnerOpts() campaign.RunnerOpts {
	return campaign.RunnerOpts{Workers: s.opts.Workers, BaseSeed: s.opts.BaseSeed,
		Checker: s.opts.Checker, StreakK: s.opts.StreakK, Explain: s.opts.Explain}
}

// pass runs bisect.Run split at its layer boundary: the forked campaign
// pool, then the lattice analysis.
func (s *bisectSweep) pass(tr *tracer) (passOut, error) {
	c, err := campaign.RunForked(s.opts.Matrix(), s.runnerOpts())
	if err != nil {
		return passOut{}, err
	}
	t0 := time.Now()
	r, err := bisect.Analyze(c, s.opts)
	tr.span("bisect.analyze_ms", time.Since(t0))
	if err != nil {
		return passOut{}, err
	}
	return s.fingerprint(r)
}

func (s *bisectSweep) fingerprint(r *bisect.Report) (passOut, error) {
	out := passOut{scenarios: len(r.Campaign.Results), results: r.Campaign.Results}
	for i := range r.Campaign.Results {
		out.events += r.Campaign.Results[i].Events + explainEvents(r.Campaign.Results[i].Explain)
	}
	var err error
	if s.opts.Explain {
		rep, data, derr := distillExplain(r)
		if derr != nil {
			return out, derr
		}
		out.fp, err = explainFingerprint(rep, data)
	} else {
		out.fp, err = bisectFingerprint(r)
	}
	return out, err
}

// reference is the pinned baseline under the pinned seed. Under a
// held-out seed, lattice checks the forked runner against the
// sequential one (NoFork), and explain checks the pool against a
// single-worker run.
func (s *bisectSweep) reference() (fingerprint, error) {
	if s.ref == nil {
		var fp fingerprint
		var err error
		if s.opts.BaseSeed == pinnedSeed {
			fp, err = s.baseline()
		} else {
			var out passOut
			_, out, err = s.control()
			fp = out.fp
		}
		if err != nil {
			return fingerprint{}, err
		}
		s.ref = &fp
	}
	return *s.ref, nil
}

// control runs the sweep that serves as the held-out oracle and times it.
func (s *bisectSweep) control() (time.Duration, passOut, error) {
	o := s.opts
	if o.Explain {
		o.Workers = 1
	} else {
		o.NoFork = true
	}
	t0 := time.Now()
	r, err := bisect.Run(o)
	d := time.Since(t0)
	if err != nil {
		return 0, passOut{}, err
	}
	out, err := s.fingerprint(r)
	return d, out, err
}

func (s *bisectSweep) probe(tr *tracer, last passOut) (int, int, error) {
	scs := s.scenarios
	ropts := s.runnerOpts()
	if err := buildProbe(scs, ropts, tr); err != nil {
		return 0, 0, err
	}
	attempted, failed := 0, 0
	if !s.opts.Explain {
		// The sequential sweep, timed against the forked passes.
		d, out, err := s.control()
		if err != nil {
			return 0, 0, err
		}
		tr.span("bisect.nofork_ms", d)
		if s.ref == nil && s.opts.BaseSeed != pinnedSeed {
			s.ref = &out.fp // also the held-out oracle; no need to run it twice
		}
		want, err := s.reference()
		if err != nil {
			return 0, 0, err
		}
		attempted += out.scenarios
		failed += mismatches(out.fp, want, out.scenarios)
		forkProbe(scs, ropts, tr)
	}
	byKey := resultsByKey(last.results)
	for _, sc := range scs {
		rb, err := rebuildScenario(sc, ropts, true, tr)
		if err != nil {
			return attempted, failed, err
		}
		attempted++
		if ok, err := sameResult(&rb.result, byKey[sc.Key()]); err != nil {
			return attempted, failed, err
		} else if !ok {
			failed++
		}
		tr.add("probe.host_ns", float64(rb.hostNs.Nanoseconds()))
		tr.add("probe.events", float64(rb.result.Events+explainEvents(rb.result.Explain)))
		for _, r := range rb.replays {
			tr.sample("explain.replay_ms", r)
		}
		if !s.opts.Explain {
			// Checker-off control of the same scenario, run next to it
			// so drift in the host's speed hits both alike.
			off, err := rebuildScenario(sc, ropts, false, nil)
			if err != nil {
				return attempted, failed, err
			}
			tr.add("checker.on_ns", float64(rb.hostNs.Nanoseconds()))
			tr.add("checker.off_ns", float64(off.hostNs.Nanoseconds()))
		}
	}
	return attempted, failed, nil
}

func (s *bisectSweep) size() int { return len(s.scenarios) }

func (s *bisectSweep) close() {}

// --- serve-mix: the plain campaign pool ----------------------------------

// serveMixSHA256 pins the serve-mix artifact at the pinned seed.
const serveMixSHA256 = "43028cf9b9036b5a36fd026ac6f535818c00040f1fe03306863b04d73d94f5ce"

type serveMix struct {
	scenarios []campaign.Scenario
	opts      campaign.RunnerOpts
	ref       *fingerprint
}

func serveMixMatrix() campaign.Matrix {
	return campaign.Matrix{
		Topologies: campaign.MustTopologies("bulldozer8", "machine32"),
		Workloads:  campaign.MustWorkloads("serve:3000", "tpch", "nas:ep", "nas:cg"),
		Configs:    campaign.MustConfigs("bugs", "fix-oow", "fixed", "greedy-idlest", "modsched"),
		Seeds:      []int64{1, 2, 3},
	}
}

func setupServeMix(e *env) (instance, error) {
	s := &serveMix{scenarios: serveMixMatrix().Scenarios(),
		opts: campaign.RunnerOpts{Workers: e.procs, BaseSeed: e.seed}}
	if e.seed == pinnedSeed {
		sum, err := hex.DecodeString(serveMixSHA256)
		if err != nil || len(sum) != sha256.Size {
			return nil, fmt.Errorf("serve-mix: bad pinned SHA-256 %q", serveMixSHA256)
		}
		fp := fingerprint{}
		copy(fp.whole[:], sum)
		s.ref = &fp
	}
	return s, nil
}

func (s *serveMix) run(opts campaign.RunnerOpts) (passOut, error) {
	c, err := campaign.RunScenarios(s.scenarios, opts)
	if err != nil {
		return passOut{}, err
	}
	return campaignOut(c)
}

// campaignOut fingerprints a campaign artifact as a pass output.
func campaignOut(c *campaign.Campaign) (passOut, error) {
	b, err := c.EncodeJSON()
	if err != nil {
		return passOut{}, err
	}
	out := passOut{fp: fingerprint{whole: sha256.Sum256(b)}, scenarios: len(c.Results), results: c.Results}
	for i := range c.Results {
		out.events += c.Results[i].Events
	}
	return out, out.fp.addResults("", c)
}

func (s *serveMix) pass(*tracer) (passOut, error) { return s.run(s.opts) }

// reference is the pinned SHA-256 under the pinned seed; under a
// held-out seed, the same scenarios on a single worker.
func (s *serveMix) reference() (fingerprint, error) {
	if s.ref == nil {
		o := s.opts
		o.Workers = 1
		out, err := s.run(o)
		if err != nil {
			return fingerprint{}, err
		}
		s.ref = &out.fp
	}
	return *s.ref, nil
}

func (s *serveMix) probe(tr *tracer, last passOut) (int, int, error) {
	if err := buildProbe(s.scenarios, s.opts, tr); err != nil {
		return 0, 0, err
	}
	return scenarioProbe(s.scenarios, s.opts, tr, last)
}

func (s *serveMix) size() int { return len(s.scenarios) }

func (s *serveMix) close() {}

// scenarioProbe runs each scenario alone through the campaign pool
// (one RunScenarios call, one worker) to time campaign.scenario_ms and
// host time per event, checking each result against the pass's.
func scenarioProbe(scs []campaign.Scenario, opts campaign.RunnerOpts, tr *tracer, last passOut) (int, int, error) {
	opts.Workers = 1
	byKey := resultsByKey(last.results)
	failed := 0
	for _, sc := range scs {
		t0 := time.Now()
		c, err := campaign.RunScenarios([]campaign.Scenario{sc}, opts)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		tr.span("campaign.scenario_ms", d)
		tr.add("probe.host_ns", float64(d.Nanoseconds()))
		tr.add("probe.events", float64(c.Results[0].Events))
		if ok, err := sameResult(&c.Results[0], byKey[sc.Key()]); err != nil {
			return 0, 0, err
		} else if !ok {
			failed++
		}
	}
	return len(scs), failed, nil
}

func resultsByKey(rs []campaign.Result) map[string]*campaign.Result {
	m := make(map[string]*campaign.Result, len(rs))
	for i := range rs {
		m[rs[i].Key] = &rs[i]
	}
	return m
}

// --- fleet: coordinator and loopback workers -----------------------------

// fleetSeeds widens the smoke matrix to 200 scenarios.
const fleetSeeds = 25

type fleet struct {
	scenarios []campaign.Scenario
	opts      campaign.RunnerOpts

	// Built by prepare, outside the timed set-up: the oracle, and the
	// prior artifact the incremental phase runs against.
	ref       *fingerprint       // in-process run of the same list
	prior     *campaign.Campaign // half of the reference's results
	priorKeys map[string]bool
	other     *campaign.Campaign // the other half

	servers []*httptest.Server
	urls    []string
	client  *http.Client
	tr      atomic.Pointer[tracer]
}

func setupFleet(e *env) (instance, error) {
	m := campaign.SmokeMatrix()
	m.Seeds = nil
	for s := int64(1); s <= fleetSeeds; s++ {
		m.Seeds = append(m.Seeds, s)
	}
	f := &fleet{scenarios: m.Scenarios(),
		opts: campaign.RunnerOpts{Workers: e.procs, BaseSeed: e.seed}}

	// Workers: at most two, one simulation goroutine each, and at most
	// one connection per worker, so neither exceeds e.procs.
	n := min(2, e.procs)
	f.client = &http.Client{Transport: &tracedTransport{
		base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		f:    f,
	}}
	for i := 0; i < n; i++ {
		w := dist.NewWorker(dist.WorkerOpts{ID: fmt.Sprintf("w%d", i+1), Workers: 1})
		srv := httptest.NewServer(f.tracedHandler(w.Handler()))
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, srv.URL)
		if err := f.probeWorker(srv.URL); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// prepare runs the scenario list in-process, once: the oracle every
// fleet pass must match, and the source of the prior artifact.
func (f *fleet) prepare() error {
	if f.ref != nil {
		return nil
	}
	c, err := campaign.RunScenarios(f.scenarios, f.opts)
	if err != nil {
		return err
	}
	b, err := c.EncodeJSON()
	if err != nil {
		return err
	}
	if err := f.splitPrior(c); err != nil {
		return err
	}
	fp := fleetFingerprint(b, b)
	f.ref = &fp
	return nil
}

// splitPrior divides the reference artifact into two campaign
// artifacts by shard selection: prior, the cache the incremental phase
// re-runs against, and the rest.
func (f *fleet) splitPrior(c *campaign.Campaign) error {
	byKey := resultsByKey(c.Results)
	half := func(i int) (*campaign.Campaign, error) {
		sel, err := shard.Spec{Index: i, Count: 2}.Select(f.scenarios)
		if err != nil {
			return nil, err
		}
		rs := make([]campaign.Result, len(sel))
		for j, sc := range sel {
			rs[j] = *byKey[sc.Key()]
		}
		return campaign.AssembleArtifact(sel, rs, f.opts)
	}
	var err error
	if f.prior, err = half(1); err != nil {
		return err
	}
	if f.other, err = half(2); err != nil {
		return err
	}
	f.priorKeys = map[string]bool{}
	for i := range f.prior.Results {
		f.priorKeys[f.prior.Results[i].Key] = true
	}
	return nil
}

// probeWorker fetches a worker's identity once, as the coordinator's
// own probe does, so set-up includes a loopback round trip.
func (f *fleet) probeWorker(url string) error {
	resp, err := f.client.Get(url + dist.PathInfo)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s: %s", url, resp.Status)
	}
	return nil
}

// fleetFingerprint fingerprints the pair of artifacts one fleet pass
// produces: both must equal the in-process run byte for byte.
func fleetFingerprint(fresh, incremental []byte) fingerprint {
	h := sha256.New()
	h.Write(fresh)
	h.Write(incremental)
	var fp fingerprint
	copy(fp.whole[:], h.Sum(nil))
	return fp
}

func (f *fleet) pass(tr *tracer) (passOut, error) {
	if err := f.prepare(); err != nil {
		return passOut{}, err
	}
	f.tr.Store(tr)
	defer f.tr.Store(nil)
	ctx := context.Background()
	coord := dist.New(dist.Config{Workers: f.urls, HTTPClient: f.client,
		ShardSize: 4, DisableLocal: true}, f.opts)
	fresh, rep1, err := coord.Run(ctx, f.scenarios, nil)
	if err != nil {
		return passOut{}, fmt.Errorf("fleet fresh phase: %w", err)
	}
	t0 := time.Now()
	incr, rep2, err := coord.Run(ctx, f.scenarios, f.prior)
	tr.sample("shard.incremental_s", time.Since(t0).Seconds())
	if err != nil {
		return passOut{}, fmt.Errorf("fleet incremental phase: %w", err)
	}
	t1 := time.Now()
	b1, err := fresh.EncodeJSON()
	tr.span("campaign.encode_ms", time.Since(t1))
	if err != nil {
		return passOut{}, err
	}
	b2, err := incr.EncodeJSON()
	if err != nil {
		return passOut{}, err
	}
	out := passOut{fp: fleetFingerprint(b1, b2), scenarios: f.size(), results: fresh.Results, artifact: b1}
	for i := range fresh.Results {
		out.events += fresh.Results[i].Events
		if !f.priorKeys[fresh.Results[i].Key] {
			out.events += fresh.Results[i].Events // executed again by the incremental phase
		}
	}
	if tr != nil {
		for _, rep := range []*dist.Report{rep1, rep2} {
			tr.add("dist.dispatches", float64(rep.Dispatches))
			tr.add("dist.failures", float64(rep.Failures))
			tr.add("dist.rejected", float64(rep.Rejected))
			tr.add("dist.stolen", float64(rep.Stolen))
		}
	}
	return out, nil
}

// codecProbe times the artifact and shard layers on a pass's fresh
// artifact: decode, merge of the two halves, and the incremental plan.
// It reports whether the merge rebuilt the artifact byte for byte.
func (f *fleet) codecProbe(tr *tracer, artifact []byte) (bool, error) {
	tr.sample("campaign.artifact_kb", float64(len(artifact))/1024)
	t0 := time.Now()
	if _, err := campaign.Decode(artifact); err != nil {
		return false, err
	}
	tr.span("campaign.decode_ms", time.Since(t0))
	t1 := time.Now()
	merged, err := shard.Merge(f.prior, f.other)
	tr.span("shard.merge_ms", time.Since(t1))
	if err != nil {
		return false, err
	}
	mb, err := merged.EncodeJSON()
	if err != nil {
		return false, err
	}
	t2 := time.Now()
	d := shard.Plan(f.scenarios, f.prior, f.opts)
	tr.span("shard.plan_ms", time.Since(t2))
	tr.sample("shard.cached_frac", float64(len(d.Cached))/float64(len(f.scenarios)))
	return string(mb) == string(artifact), nil
}

func (f *fleet) reference() (fingerprint, error) {
	if err := f.prepare(); err != nil {
		return fingerprint{}, err
	}
	return *f.ref, nil
}

// codecReps is how many times the probe times the codec and shard calls
// on the last pass's artifact; each metric is the median.
const codecReps = 11

func (f *fleet) probe(tr *tracer, last passOut) (int, int, error) {
	if err := buildProbe(f.scenarios, f.opts, tr); err != nil {
		return 0, 0, err
	}
	attempted, failed, err := scenarioProbe(f.scenarios, f.opts, tr, last)
	if err != nil {
		return attempted, failed, err
	}
	same := true
	for i := 0; i < codecReps; i++ {
		ok, err := f.codecProbe(tr, last.artifact)
		if err != nil {
			return attempted, failed, err
		}
		same = same && ok
	}
	attempted += len(f.scenarios)
	if !same {
		failed += len(f.scenarios)
	}
	return attempted, failed, nil
}

func (f *fleet) size() int { return 2 * len(f.scenarios) }

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.client.CloseIdleConnections()
}

// tracedHandler times the worker's /v1/run handler while a traced pass
// runs.
func (f *fleet) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		tr := f.tr.Load()
		if tr == nil || req.URL.Path != dist.PathRun {
			h.ServeHTTP(rw, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		tr.span("dist.server_ms", time.Since(t0))
	})
}

// tracedTransport times each /v1/run round trip, from sending the
// request to reading the last byte of the response, and counts the
// bytes each way, while a traced pass runs.
type tracedTransport struct {
	base http.RoundTripper
	f    *fleet
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.f.tr.Load()
	if tr == nil || req.URL.Path != dist.PathRun {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	tr.add("dist.request_bytes", float64(req.ContentLength))
	tr.add("dist.requests", 1)
	resp.Body = &timedBody{ReadCloser: resp.Body, tr: tr, t0: t0}
	return resp, nil
}

// timedBody closes a round trip's span when the response is read to
// the end (or closed early).
type timedBody struct {
	io.ReadCloser
	tr   *tracer
	t0   time.Time
	n    int64
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.tr.span("dist.shard_rtt_ms", time.Since(b.t0))
	b.tr.add("dist.response_bytes", float64(b.n))
}
