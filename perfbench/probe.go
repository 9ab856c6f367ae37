package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/explain"
	"repro/internal/latency"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// tracer collects the traced run's layer measurements in memory:
// samples (mostly span durations) per name and totals per counter name. The benchmark
// records them around its own calls into each layer; the program is not
// instrumented. A nil tracer records nothing. Safe for concurrent use
// (the fleet's worker handlers record from server goroutines).
type tracer struct {
	mu     sync.Mutex
	spans  map[string][]float64
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]float64{}, counts: map[string]float64{}}
}

// span records one duration in milliseconds under name.
func (t *tracer) span(name string, d time.Duration) { t.sample(name, ms(d)) }

// sample records one measurement under name.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], v)
	t.mu.Unlock()
}

// add accumulates v into the counter name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.spans[name]...)
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// timeBuild times the machine layer's set-up of one scenario exactly as
// the campaign runner performs it: topology build, machine.New and the
// policy's Apply.
func timeBuild(sc campaign.Scenario, opts campaign.RunnerOpts) (time.Duration, error) {
	seed := campaign.DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed)
	t0 := time.Now()
	m := machine.New(sc.Topology.Build(), sc.Config.Config, seed)
	detach, err := sc.Config.Apply(m.Sched)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sc.Key(), err)
	}
	detach()
	return d, nil
}

// buildProbe records machine.build_ms over the scenario list, cycling
// it until enough samples exist to report the p90.
func buildProbe(scs []campaign.Scenario, opts campaign.RunnerOpts, tr *tracer) error {
	const want = 200
	for i := 0; i < want; i++ {
		d, err := timeBuild(scs[i%len(scs)], opts)
		if err != nil {
			return err
		}
		tr.span("machine.build_ms", d)
	}
	return nil
}

// forkProbe records machine.fork_ms the way the forked lattice runner
// forks: one fx-none world per (topology, workload, seed) cell, set up
// as campaign.RunForked sets it up, forked once per lattice point.
func forkProbe(scs []campaign.Scenario, opts campaign.RunnerOpts, tr *tracer) {
	cells := map[string][]campaign.Scenario{}
	var order []string
	for _, sc := range scs {
		k := sc.CellKey()
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], sc)
	}
	for _, k := range order {
		sc := cells[k][0]
		cfg := sc.Config.Config
		cfg.Features = sched.Features{}
		base := machine.New(sc.Topology.Build(), cfg,
			campaign.DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed))
		col := latency.NewCollector(latency.Config{StreakK: opts.EffectiveStreakK()})
		base.Sched.SetLatencyProbe(col)
		ck := checker.New(base.Sched, nil, opts.EffectiveChecker())
		ck.ObserveLatency(col)
		ck.Start()
		for range cells[k] {
			t0 := time.Now()
			base.Fork()
			tr.span("machine.fork_ms", time.Since(t0))
		}
		ck.Stop()
	}
}

// rebuild runs one scenario from public constructors, in the campaign
// runner's exact order, so the probe can time its phases and wrap its
// hooks. With startChecker false the checker is built but never
// started: the checker-off control of checker.overhead_pct, whose
// result is not comparable and is not returned.
type rebuild struct {
	result  campaign.Result
	hostNs  time.Duration // build + run + collect
	replays []float64     // per-episode replay ms, explain only
}

func rebuildScenario(sc campaign.Scenario, opts campaign.RunnerOpts, startChecker bool, tr *tracer) (rebuild, error) {
	var rb rebuild
	t0 := time.Now()
	seed := campaign.DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed)
	topo := sc.Topology.Build()
	m := machine.New(topo, sc.Config.Config, seed)
	detach, err := sc.Config.Apply(m.Sched)
	if err != nil {
		return rb, fmt.Errorf("%s: %w", sc.Key(), err)
	}
	defer detach()
	col := latency.NewCollector(latency.Config{StreakK: opts.EffectiveStreakK()})
	m.Sched.SetLatencyProbe(col)
	ck := checker.New(m.Sched, nil, opts.EffectiveChecker())
	ck.ObserveLatency(col)
	var hooks *episodeTimer
	if opts.Explain {
		exo := explain.NewObserver(m, explain.Config{
			Checker: opts.EffectiveChecker(),
			StreakK: opts.EffectiveStreakK(),
		})
		hooks = &episodeTimer{inner: exo, m: m, tr: tr}
		ck.SetEpisodeHook(hooks)
		col.SetStreakHook(hooks.onStreak)
		m.Sched.SetLatencyProbe(&streakCloser{LatencyProbe: col, h: hooks})
	}
	if startChecker {
		ck.Start()
	}
	out := sc.Workload.Run(&campaign.RunContext{
		M: m, Topo: topo, Seed: seed, Scale: sc.Scale, Horizon: sc.Horizon,
	})
	ck.Stop()
	rb.result = collectResult(sc, seed, m, ck, col, out)
	if hooks != nil {
		hooks.closeStreak()
		rb.result.Explain = hooks.inner.Report()
		rb.replays = hooks.replays(rb.result.Explain)
	}
	rb.hostNs = time.Since(t0)
	return rb, nil
}

// collectResult assembles a campaign.Result from public getters, field
// for field as the campaign runner does; probes compare its encoding
// with the pool's result so a drifting rebuild cannot go unnoticed.
func collectResult(sc campaign.Scenario, seed int64, m *machine.Machine,
	ck *checker.Checker, col *latency.Collector, out campaign.Outcome) campaign.Result {
	var idle sim.Time
	var classes map[string]int
	var idleByClass map[string]int64
	if len(ck.Violations()) > 0 {
		classes = map[string]int{}
		idleByClass = map[string]int64{}
		for cl, n := range ck.EpisodesByClass() {
			classes[string(cl)] = n
		}
		for cl, d := range ck.IdleByClass() {
			idleByClass[string(cl)] = int64(d)
			idle += d
		}
	}
	return campaign.Result{
		Key:                   sc.Key(),
		Topology:              sc.Topology.Name,
		Workload:              sc.Workload.Name,
		Config:                sc.Config.Name,
		Seed:                  sc.Seed,
		EngineSeed:            seed,
		MakespanNs:            int64(out.Makespan),
		Completed:             out.Completed,
		Events:                m.Eng.Processed(),
		Counters:              m.Sched.Counters(),
		CheckerChecks:         ck.Checks(),
		CheckerCandidates:     ck.Candidates(),
		CheckerTransients:     ck.Transients(),
		Violations:            len(ck.Violations()),
		IdleWhileOverloadedNs: int64(idle),
		EpisodeClasses:        classes,
		IdleNsByClass:         idleByClass,
		WakeLatency:           col.WakeDigest(),
		RunqWait:              col.WaitDigest(),
		WakeStreaks:           col.StreakStats(),
		Extra:                 out.Extra,
	}
}

// sameResult reports whether two results encode to the same bytes.
func sameResult(a, b *campaign.Result) (bool, error) {
	ab, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	bb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(ab) == string(bb), nil
}

// episodeTimer wraps the explain observer's checker hook and streak
// hook. A checker episode replays synchronously inside OnConfirmed. A
// streak episode replays in an engine callback the observer schedules
// at the next event boundary, so its span runs from the hook to the
// main world's next latency event (streakCloser), which comes only
// after that callback returns. Hooks that replay nothing (the episode
// cap, an unforkable world, a transient) take microseconds against a
// replay's milliseconds; replays keeps only as many of the longest
// spans as the report counts replayed episodes.
type episodeTimer struct {
	inner *explain.Observer
	m     *machine.Machine
	tr    *tracer

	checkerSpans, streakSpans []float64
	streakAt                  time.Time
}

func (h *episodeTimer) OnCandidate(detectedAt, onsetAt sim.Time, idle, busy topology.CoreID) {
	// An extra fork of the main world, timed and dropped: the explain
	// layer forks here too, and forking never touches the source world.
	t0 := time.Now()
	if forked(h.m) {
		h.tr.span("machine.fork_ms", time.Since(t0))
	}
	h.inner.OnCandidate(detectedAt, onsetAt, idle, busy)
}

func (h *episodeTimer) OnTransient() { h.inner.OnTransient() }

func (h *episodeTimer) OnConfirmed(v checker.Violation) {
	t0 := time.Now()
	h.inner.OnConfirmed(v)
	h.checkerSpans = append(h.checkerSpans, ms(time.Since(t0)))
}

func (h *episodeTimer) onStreak(start, at sim.Time) {
	h.closeStreak()
	h.inner.OnStreak(start, at)
	h.streakAt = time.Now()
}

func (h *episodeTimer) closeStreak() {
	if !h.streakAt.IsZero() {
		h.streakSpans = append(h.streakSpans, ms(time.Since(h.streakAt)))
		h.streakAt = time.Time{}
	}
}

func (h *episodeTimer) replays(r *explain.ScenarioExplain) []float64 {
	return append(longest(h.checkerSpans, r.CheckerEpisodes), longest(h.streakSpans, r.StreakEpisodes)...)
}

func longest(xs []float64, n int) []float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[:min(n, len(s))]
}

// forked reports whether m could be forked; worlds with attached
// placement policies or queued completion hooks cannot, and Fork
// panics on them (the explain layer absorbs the panic the same way).
func forked(m *machine.Machine) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	m.Fork()
	return true
}

// streakCloser is the main world's latency probe during an explain
// rebuild: it closes a pending streak-replay span at the first latency
// event after the hook, then delegates.
type streakCloser struct {
	sched.LatencyProbe
	h *episodeTimer
}

func (p *streakCloser) WaitEnd(at sim.Time, t *sched.Thread, cpu topology.CoreID, wait sim.Time, wakeup bool) {
	p.h.closeStreak()
	p.LatencyProbe.WaitEnd(at, t, cpu, wait, wakeup)
}

func (p *streakCloser) WakeupPlaced(at sim.Time, t *sched.Thread, cpu topology.CoreID, busy, idleAllowed bool) {
	p.h.closeStreak()
	p.LatencyProbe.WakeupPlaced(at, t, cpu, busy, idleAllowed)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
