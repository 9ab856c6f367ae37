package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// The chaos-test contract: under every fault plan the coordinator's
// merged artifact must be byte-identical to the single-process run of
// the same scenario list. Nothing else about a distributed run is
// observable in the artifact, by design.

func testScenarios() []campaign.Scenario {
	m := campaign.SmokeMatrix()
	m.Scale = 0.1
	return m.Scenarios()
}

func testOpts() campaign.RunnerOpts {
	return campaign.RunnerOpts{Workers: 4, BaseSeed: 42}
}

func refBytes(t *testing.T, scs []campaign.Scenario, opts campaign.RunnerOpts) []byte {
	t.Helper()
	c, err := campaign.RunScenarios(scs, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func startWorker(t *testing.T, opts WorkerOpts) (*Worker, *httptest.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	w := NewWorker(opts)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

// testConfig is tuned for test speed: small shards so every robustness
// path gets exercised, tight heartbeats and backoff so recovery is
// fast.
func testConfig(t *testing.T, urls ...string) Config {
	return Config{
		Workers:        urls,
		ShardSize:      2,
		ShardTimeout:   30 * time.Second,
		MaxAttempts:    4,
		HeartbeatEvery: 25 * time.Millisecond,
		StragglerAfter: 10 * time.Second,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		Logf:           t.Logf,
	}
}

func runDist(t *testing.T, cfg Config, prior *campaign.Campaign) (*campaign.Campaign, *Report) {
	t.Helper()
	c, report, err := New(cfg, testOpts()).Run(context.Background(), testScenarios(), prior)
	if err != nil {
		t.Fatalf("dist run: %v (report %+v)", err, report)
	}
	return c, report
}

func assertIdentical(t *testing.T, c *campaign.Campaign, want []byte) {
	t.Helper()
	got, err := c.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged artifact differs from single-process run: %d vs %d bytes", len(got), len(want))
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	_, s1 := startWorker(t, WorkerOpts{ID: "w1"})
	_, s2 := startWorker(t, WorkerOpts{ID: "w2"})

	c, report := runDist(t, testConfig(t, s1.URL, s2.URL), nil)
	assertIdentical(t, c, want)
	if report.Shards != 4 {
		t.Fatalf("want 4 shards of 8 scenarios at size 2, got %d", report.Shards)
	}
	if report.LocalShards != 0 || report.Degraded {
		t.Fatalf("healthy workers should get all shards, report %+v", report)
	}
}

func TestWorkerKillMidShard(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	// w1 dies after the first scenario of its first shard completes; w2
	// must absorb everything, including the lost shard.
	_, s1 := startWorker(t, WorkerOpts{ID: "w1", Fault: NewFaultPlan(FaultRule{Kind: FaultKill, Nth: 1})})
	_, s2 := startWorker(t, WorkerOpts{ID: "w2"})

	c, report := runDist(t, testConfig(t, s1.URL, s2.URL), nil)
	assertIdentical(t, c, want)
	if report.Failures == 0 {
		t.Fatalf("the killed worker's shard should count a failed dispatch, report %+v", report)
	}
}

func TestDroppedCheckinRetries(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	// w1 executes its first shard fully, then drops the check-in — the
	// work is lost and the retry (on w2, by preference) must reproduce
	// it exactly.
	_, s1 := startWorker(t, WorkerOpts{ID: "w1", Fault: NewFaultPlan(FaultRule{Kind: FaultDrop, Nth: 1})})
	_, s2 := startWorker(t, WorkerOpts{ID: "w2"})

	c, report := runDist(t, testConfig(t, s1.URL, s2.URL), nil)
	assertIdentical(t, c, want)
	if report.Failures == 0 {
		t.Fatalf("the dropped check-in should count a failed dispatch, report %+v", report)
	}
}

func TestCorruptPayloadNeverMerges(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	_, s1 := startWorker(t, WorkerOpts{ID: "w1", Fault: NewFaultPlan(FaultRule{Kind: FaultCorrupt, Nth: 1})})
	_, s2 := startWorker(t, WorkerOpts{ID: "w2"})

	c, report := runDist(t, testConfig(t, s1.URL, s2.URL), nil)
	assertIdentical(t, c, want)
	if report.Failures == 0 {
		t.Fatalf("the corrupted check-in should count a failed dispatch, report %+v", report)
	}
}

// TestWrongSeedCheckinRejected covers the verification gate the corrupt
// fault cannot reach: a well-formed artifact that simply did not run
// the job as specified. The rogue worker answers /v1/info compatibly
// but executes every job under a different base seed; the verifier must
// reject each check-in (engine seeds differ) and quarantine the worker
// after repeated rejections.
func TestWrongSeedCheckinRejected(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	rogue := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case PathInfo:
			json.NewEncoder(rw).Encode(WorkerInfo{
				ID: "rogue", Protocol: ProtocolVersion,
				ArtifactVersion: campaign.Version, ModelVersion: campaign.ModelVersion,
			})
		case PathHealth:
			fmt.Fprintln(rw, "ok")
		case PathRun:
			var job JobSpec
			if err := json.NewDecoder(req.Body).Decode(&job); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			scs, err := job.ResolveScenarios()
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			opts := job.RunnerOpts()
			opts.BaseSeed++ // the lie
			c, err := campaign.RunScenariosCtx(req.Context(), scs, opts)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
			data, _ := c.EncodeJSON()
			rw.Write(data)
		}
	}))
	t.Cleanup(rogue.Close)
	_, good := startWorker(t, WorkerOpts{ID: "good"})

	c, report := runDist(t, testConfig(t, rogue.URL, good.URL), nil)
	assertIdentical(t, c, want)
	if report.Rejected == 0 {
		t.Fatalf("rogue check-ins should be rejected by verification, report %+v", report)
	}
}

func TestIncompatibleWorkerExcluded(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	old := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathInfo {
			json.NewEncoder(rw).Encode(WorkerInfo{
				ID: "old", Protocol: ProtocolVersion,
				ArtifactVersion: campaign.Version, ModelVersion: "0-ancient",
			})
			return
		}
		t.Errorf("incompatible worker must never see %s", req.URL.Path)
		http.Error(rw, "unexpected", http.StatusInternalServerError)
	}))
	t.Cleanup(old.Close)
	_, good := startWorker(t, WorkerOpts{ID: "good"})

	c, report := runDist(t, testConfig(t, old.URL, good.URL), nil)
	assertIdentical(t, c, want)
	if report.WorkersExcluded != 1 || report.WorkersHealthy != 1 {
		t.Fatalf("want 1 excluded + 1 healthy worker, report %+v", report)
	}
}

func TestNoWorkersDegradesToLocal(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	// A configured-but-unreachable worker: probe fails, the run degrades
	// to plain in-process execution and still produces the exact bytes.
	cfg := testConfig(t, "http://127.0.0.1:1")
	c, report := runDist(t, cfg, nil)
	assertIdentical(t, c, want)
	if !report.Degraded {
		t.Fatalf("want full local degradation, report %+v", report)
	}

	cfg.DisableLocal = true
	if _, _, err := New(cfg, testOpts()).Run(context.Background(), testScenarios(), nil); err == nil {
		t.Fatal("DisableLocal with no reachable workers should fail, not degrade")
	}
}

func TestStragglerStolen(t *testing.T) {
	want := refBytes(t, testScenarios(), testOpts())
	// w1 stalls its first check-in for far longer than the straggler
	// threshold; idle w2 must steal and finish the shard. The late
	// response (if it ever lands) is a discarded duplicate.
	_, s1 := startWorker(t, WorkerOpts{ID: "w1",
		Fault: NewFaultPlan(FaultRule{Kind: FaultDelay, Nth: 1, Delay: 20 * time.Second})})
	_, s2 := startWorker(t, WorkerOpts{ID: "w2"})

	cfg := testConfig(t, s1.URL, s2.URL)
	cfg.StragglerAfter = 150 * time.Millisecond
	c, report := runDist(t, cfg, nil)
	assertIdentical(t, c, want)
	if report.Stolen == 0 {
		t.Fatalf("the stalled shard should be stolen, report %+v", report)
	}
}

func TestIncrementalShipsNothingWhenUnchanged(t *testing.T) {
	scs := testScenarios()
	prior, err := campaign.RunScenarios(scs, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	priorBytes, _ := prior.EncodeJSON()

	var runs atomic.Int64
	w := NewWorker(WorkerOpts{ID: "w1", Workers: 4})
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == PathRun {
			runs.Add(1)
		}
		w.Handler().ServeHTTP(rw, req)
	}))
	t.Cleanup(srv.Close)

	c, report := runDist(t, testConfig(t, srv.URL), prior)
	assertIdentical(t, c, priorBytes)
	if got := runs.Load(); got != 0 {
		t.Fatalf("unchanged scenarios must never ship; worker saw %d run requests", got)
	}
	if report.CachedResults != len(scs) || report.Executed != 0 || report.Shards != 0 {
		t.Fatalf("want all %d results cached, report %+v", len(scs), report)
	}
}

func TestCancelAbandonsRun(t *testing.T) {
	_, s1 := startWorker(t, WorkerOpts{ID: "w1",
		Fault: NewFaultPlan(
			FaultRule{Kind: FaultDelay, Nth: 1, Delay: 20 * time.Second},
			FaultRule{Kind: FaultDelay, Nth: 2, Delay: 20 * time.Second},
			FaultRule{Kind: FaultDelay, Nth: 3, Delay: 20 * time.Second},
			FaultRule{Kind: FaultDelay, Nth: 4, Delay: 20 * time.Second},
		)})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	_, _, err := New(testConfig(t, s1.URL), testOpts()).Run(ctx, testScenarios(), nil)
	if err == nil {
		t.Fatal("cancelled run should return an error, not an artifact")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v to unwind; in-flight dispatches were not abandoned", elapsed)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	w, srv := startWorker(t, WorkerOpts{ID: "w1"})
	w.Drain()

	cl := newClient(srv.URL, nil)
	if err := cl.health(context.Background()); err == nil {
		t.Fatal("draining worker must fail heartbeats")
	}
	job := JobFor(1, 1, testScenarios()[:1], testOpts())
	if _, err := cl.run(context.Background(), job); err == nil {
		t.Fatal("draining worker must refuse new shards")
	}
	info, err := cl.info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Draining {
		t.Fatal("draining worker should advertise it on /v1/info")
	}
}

func TestJobSpecRoundTrip(t *testing.T) {
	opts := campaign.RunnerOpts{BaseSeed: 7, StreakK: 3, Trace: true, Metrics: true, Explain: true}
	scs := testScenarios()
	job := JobFor(2, 1, scs[:3], opts)

	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.ResolveScenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range got {
		if sc.Key() != scs[i].Key() {
			t.Fatalf("scenario %d resolved to %q, want %q", i, sc.Key(), scs[i].Key())
		}
		if sc.Scale != scs[i].Scale || sc.Horizon != scs[i].Horizon {
			t.Fatalf("scenario %d lost scale/horizon over the wire", i)
		}
	}
	ropts := back.RunnerOpts()
	if ropts.BaseSeed != 7 || ropts.EffectiveStreakK() != 3 || !ropts.Trace || !ropts.Metrics || !ropts.Explain {
		t.Fatalf("runner opts did not survive the round trip: %+v", ropts)
	}
	if ropts.EffectiveChecker() != opts.EffectiveChecker() {
		t.Fatalf("checker lens did not survive the round trip")
	}
}

func TestResolveUnknownNames(t *testing.T) {
	for _, ref := range []ScenarioRef{
		{Topology: "nope", Workload: "tpch", Config: "bugs"},
		{Topology: "smp8", Workload: "nope", Config: "bugs"},
		{Topology: "smp8", Workload: "tpch", Config: "nope"},
	} {
		if _, err := ref.Resolve(); err == nil {
			t.Fatalf("ref %+v should not resolve", ref)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("kill:nth=1; delay:nth=3,ms=250 ;corrupt:nth=2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "kill:nth=1;delay:nth=3,ms=250;corrupt:nth=2"; got != want {
		t.Fatalf("plan round-trip: got %q want %q", got, want)
	}
	// Ordinals are consumed in request order, not rule order.
	if r := p.next(); r == nil || r.Kind != FaultKill {
		t.Fatalf("request 1: want kill, got %+v", r)
	}
	if r := p.next(); r == nil || r.Kind != FaultCorrupt {
		t.Fatalf("request 2: want corrupt, got %+v", r)
	}
	if r := p.next(); r == nil || r.Kind != FaultDelay || r.Delay != 250*time.Millisecond {
		t.Fatalf("request 3: want 250ms delay, got %+v", r)
	}
	if r := p.next(); r != nil {
		t.Fatalf("request 4: want no fault, got %+v", r)
	}

	if p, err := ParseFaultPlan(""); err != nil || p.String() != "none" {
		t.Fatalf("empty plan: %v %q", err, p.String())
	}
	if r := (*FaultPlan)(nil).next(); r != nil {
		t.Fatalf("nil plan fired %+v", r)
	}

	for _, bad := range []string{
		"explode:nth=1", "kill", "kill:nth=0", "kill:n=1",
		"delay:nth=1", "delay:nth=1,ms=0", "kill:nth=x",
		// ms= past the largest time.Duration used to wrap silently
		// (this one to 448.384µs, which String then printed as ms=0).
		"delay:nth=1,ms=18446744073710", "delay:nth=1,ms=9223372036855",
		"kill:nth=1,ms=5",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("plan %q should not parse", bad)
		} else if !strings.Contains(err.Error(), "dist:") {
			t.Fatalf("plan %q error %q lacks package prefix", bad, err)
		}
	}
}
