// Command perfbench is the repository's benchmark: it runs one named
// workload of the campaign/bisect/dist harness in this process, checks
// every output against an oracle, and prints the workload's metrics.
//
//	perfbench --workload lattice --seed 42 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics: medians
// over as many passes as fit in --seconds, after one warm-up pass. A
// traced run (--trace 1) alternates untraced and traced passes, then
// probes each layer by timing the benchmark's own calls into it, and
// reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is 0 only when every output matched its oracle.
//
// See README.md for the workloads, the oracles and how to read a layer
// regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/explain"
	"repro/internal/sched"
)

const (
	// setupReps is how many set-up samples a run takes; setup_s is
	// their median.
	setupReps = 25
	// minSetupSample is the shortest set-up sample: a set-up quicker
	// than this (serve-mix builds its scenario list in tens of
	// microseconds) is repeated back to back and timed as a batch. It is
	// as long as the yardstick, so a sample spans many of the host's
	// scheduling slices and timer and scheduling noise does not swamp it.
	minSetupSample = 32 * time.Millisecond
	// minPasses is the fewest measured passes of each kind in a run,
	// however short --seconds is.
	minPasses = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", pinnedSeed, "workload base seed; the committed oracles pin seed 42")
	seconds := fs.Float64("seconds", 10, "how long the measured passes run")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root holding baselines/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload {%s} [--seed n] [--seconds s] [--trace 0|1]\n",
			strings.Join(names, "|"))
		return 2
	}
	e := &env{root: *root, seed: *seed, procs: runtime.NumCPU()}
	rep, err := measure(w, e, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d scenarios failed or mismatched their oracle\n",
			w.name, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // printed above the result line
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints one line per metric, then the JSON result as the last
// line.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-30s %14.6g (%d of %d scenarios)\n", "failed_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// passStats is the host cost of one pass.
type passStats struct {
	wall, cpu  float64 // seconds, as measured
	scale      float64 // yardstick scale of the host's speed around the pass
	peakRSS    float64 // MiB, the pass's peak resident set
	allocBytes uint64
	events     uint64
	gcs        uint32
	gcPauseNs  uint64
}

func timedPass(inst instance, tr *tracer, y *yardstick) (passStats, passOut, error) {
	y0 := y.measure()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	resetPeakRSS()
	t0 := time.Now()
	out, err := inst.pass(tr)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	peak := maxRSSMB()
	runtime.ReadMemStats(&m1)
	return passStats{
		wall:       wall,
		cpu:        c1 - c0,
		scale:      y.scale(y0, y.measure()),
		peakRSS:    peak,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		events:     out.events,
		gcs:        m1.NumGC - m0.NumGC,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}, out, err
}

// setUp sets the workload up setupReps times, keeping the last
// instance, and returns each set-up's duration in seconds. Yardsticks
// run between the samples, and each sample is scaled by the two around
// it, as passes are.
func setUp(w workload, e *env, y *yardstick) (instance, []float64, error) {
	var inst instance
	var times []float64
	y0 := y.measure()
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		// Each sample starts from a collected heap, so where the
		// collector happens to run does not land in one sample's time.
		runtime.GC()
		n := 0
		t0 := time.Now()
		for {
			in, err := w.setup(e)
			if err != nil {
				return nil, nil, err
			}
			n++
			if time.Since(t0) >= minSetupSample {
				inst = in
				break
			}
			in.close()
		}
		d := time.Since(t0).Seconds() / float64(n)
		y1 := y.measure()
		times = append(times, d*y.scale(y0, y1))
		y0 = y1
	}
	return inst, times, nil
}

// runPass runs one pass. A pass that errors counts every scenario it
// would have checked as failed, so the run still reports.
func runPass(inst instance, tr *tracer, y *yardstick, log io.Writer) (passStats, passOut, bool) {
	st, out, err := timedPass(inst, tr, y)
	if err != nil {
		fmt.Fprintf(log, "perfbench: pass failed: %v\n", err)
		n := inst.size()
		return st, passOut{scenarios: n, failed: n}, false
	}
	return st, out, true
}

func measure(w workload, e *env, dur time.Duration, traced bool, log io.Writer) (*report, error) {
	y, err := newYardstick(e.procs)
	if err != nil {
		return nil, err
	}
	inst, setups, err := setUp(w, e, y)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	// One warm-up pass: lazy set-up and caches fill before timing. Its
	// output is checked like any other. The first failed pass ends the
	// measuring; the run is wrong either way.
	_, warm, ok := runPass(inst, nil, y, log)
	outs := []passOut{warm}
	// keep records a pass's output. Only the latest keeps its results
	// (the probes and layer counts read them): holding every pass's
	// would grow the live heap the program's collector paces against.
	keep := func(out passOut) {
		outs[len(outs)-1].results = nil
		outs[len(outs)-1].artifact = nil
		outs = append(outs, out)
	}
	var plain, withTrace []passStats
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	for ok && (len(plain) < minPasses || time.Since(start) < dur) {
		var st passStats
		var out passOut
		st, out, ok = runPass(inst, nil, y, log)
		plain = append(plain, st)
		keep(out)
		if ok && traced {
			st, out, ok = runPass(inst, tr, y, log)
			withTrace = append(withTrace, st)
			keep(out)
		}
	}

	rep := &report{notes: []string{fmt.Sprintf("workload %s, seed %d, %d set-ups, %d passes (+%d traced), %d procs",
		w.name, e.seed, len(setups), len(plain), len(withTrace), e.procs), hostNote(plain)}}
	last := outs[len(outs)-1]
	if traced && ok {
		n, failed, err := inst.probe(tr, last)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		rep.Attempted += n
		rep.Failed += failed
	}
	want, err := inst.reference()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, out := range outs {
		rep.Attempted += out.scenarios
		rep.Failed += min(out.scenarios, out.failed+mismatches(out.fp, want, out.scenarios))
	}
	rep.Correct = rep.Failed == 0

	if traced {
		rep.Metrics = layerMetrics(tr, last, plain, withTrace, log)
	} else {
		rep.Metrics = endToEndMetrics(plain, setups)
	}
	return rep, nil
}

func endToEndMetrics(plain []passStats, setups []float64) map[string]metric {
	var wall, cpu, rate, alloc, rss []float64
	for _, p := range plain {
		rss = append(rss, p.peakRSS)
		wall = append(wall, p.wall*p.scale)
		cpu = append(cpu, p.cpu*p.scale)
		rate = append(rate, ratio(float64(p.events), p.wall*p.scale))
		alloc = append(alloc, float64(p.allocBytes)/(1<<20))
	}
	vals := map[string]float64{
		"wall_s":           median(wall),
		"cpu_s":            median(cpu),
		"sim_events_per_s": median(rate),
		"setup_s":          median(setups),
		"peak_rss_mb":      median(rss),
		"alloc_mb":         median(alloc),
	}
	return withUnits(endToEnd, vals)
}

// hostNote reports the unscaled pass times next to the yardstick, so a
// reader can tell a slow host from a slow program.
func hostNote(plain []passStats) string {
	var wall, ys []float64
	for _, p := range plain {
		wall = append(wall, p.wall)
		ys = append(ys, yardstickRef/p.scale)
	}
	return fmt.Sprintf("unscaled wall %.4gs per pass; yardstick %.4gms (reference %.4gms)",
		median(wall), median(ys)*1000, yardstickRef*1000)
}

func withUnits(specs []metricSpec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// layerMetrics derives the per-layer metrics from the traced run: counts
// from the last pass's results, timings from the tracer.
func layerMetrics(tr *tracer, last passOut, plain, withTrace []passStats, log io.Writer) map[string]metric {
	vals := map[string]float64{}
	var c sched.Counters
	var events uint64
	for i := range last.results {
		r := &last.results[i]
		rc := r.Counters
		c.BalanceCalls += rc.BalanceCalls
		c.PeriodicBalanceCalls += rc.PeriodicBalanceCalls
		c.NewIdleBalanceCalls += rc.NewIdleBalanceCalls
		c.NohzBalancePasses += rc.NohzBalancePasses
		c.Migrations += rc.Migrations
		c.Wakeups += rc.Wakeups
		c.WakeupsOnBusy += rc.WakeupsOnBusy
		events += r.Events
		if r.WakeLatency != nil {
			vals["latency.wake_samples"] += float64(r.WakeLatency.Count)
		}
		if r.WakeStreaks != nil {
			vals["latency.streaks"] += float64(r.WakeStreaks.Streaks)
		}
		vals["checker.checks"] += float64(r.CheckerChecks)
		vals["checker.violations"] += float64(r.Violations)
		addExplain(vals, r.Explain)
	}
	vals["sched.balance_calls"] = float64(c.BalanceCalls)
	vals["sched.periodic_balance_calls"] = float64(c.PeriodicBalanceCalls)
	vals["sched.newidle_balance_calls"] = float64(c.NewIdleBalanceCalls)
	vals["sched.nohz_balance_passes"] = float64(c.NohzBalancePasses)
	vals["sched.migrations"] = float64(c.Migrations)
	vals["sched.wakeups"] = float64(c.Wakeups)
	vals["sched.wakeups_on_busy"] = float64(c.WakeupsOnBusy)
	vals["sched.balance_per_event"] = ratio(float64(c.BalanceCalls), float64(events))
	vals["sim.events"] = float64(last.events)
	vals["sim.host_ns_per_event"] = ratio(tr.count("probe.host_ns"), tr.count("probe.events"))
	vals["explain.useful_frac"] = ratio(vals["explain.diverged"], vals["explain.fix_replays"])
	delete(vals, "explain.fix_replays")
	delete(vals, "explain.diverged")

	var warn []string
	for _, name := range []string{"machine.build_ms", "machine.fork_ms", "explain.replay_ms",
		"campaign.scenario_ms", "dist.shard_rtt_ms", "dist.server_ms"} {
		xs := tr.samples(name)
		for _, p := range []float64{50, 90} {
			v, ok := percentile(xs, p)
			key := fmt.Sprintf("%s.p%g", name, p)
			if len(xs) > 0 && !ok {
				// Too few samples beyond it: not a reportable percentile.
				warn = append(warn, fmt.Sprintf("%s: %d samples, too few beyond p%g", key, len(xs), p))
				v = 0
			}
			vals[key] = v
		}
	}
	for _, name := range []string{"bisect.analyze_ms", "campaign.encode_ms", "campaign.decode_ms",
		"campaign.artifact_kb", "shard.merge_ms", "shard.plan_ms", "shard.cached_frac", "shard.incremental_s"} {
		vals[name] = median(tr.samples(name))
	}

	var plainWall, tracedWall []float64
	var gcs, pauseMs float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall)
		gcs += float64(p.gcs)
		pauseMs += float64(p.gcPauseNs) / 1e6
	}
	for _, p := range withTrace {
		tracedWall = append(tracedWall, p.wall)
	}
	vals["runtime.gc_cycles"] = ratio(gcs, float64(len(plain)))
	vals["runtime.gc_pause_ms"] = ratio(pauseMs, float64(len(plain)))
	base := median(plainWall)
	vals["bench.trace_overhead_pct"] = ratio(median(tracedWall)-base, base) * 100
	if nf := tr.samples("bisect.nofork_ms"); len(nf) > 0 {
		vals["bisect.fork_speedup_x"] = ratio(median(nf)/1000, base)
	}
	off := tr.count("checker.off_ns")
	vals["checker.overhead_pct"] = ratio(tr.count("checker.on_ns")-off, off) * 100

	for _, name := range []string{"dist.dispatches", "dist.failures", "dist.rejected", "dist.stolen"} {
		vals[name] = ratio(tr.count(name), float64(len(withTrace)))
	}
	n := tr.count("dist.requests")
	vals["dist.request_kb"] = ratio(tr.count("dist.request_bytes"), n) / 1024
	vals["dist.response_kb"] = ratio(tr.count("dist.response_bytes"), n) / 1024
	for _, w := range warn {
		fmt.Fprintln(log, "perfbench: warning:", w)
	}
	return withUnits(perLayer, vals)
}

// addExplain accumulates one scenario's explain report into vals.
func addExplain(vals map[string]float64, r *explain.ScenarioExplain) {
	if r == nil {
		return
	}
	vals["explain.episodes"] += float64(len(r.Episodes))
	vals["explain.replay_events"] += float64(explainEvents(r))
	vals["explain.fork_unavailable"] += float64(r.ForkUnavailable)
	vals["obs.prov_records"] += float64(r.ProvRecords)
	vals["obs.prov_dropped"] += float64(r.ProvDropped)
	for _, ep := range r.Episodes {
		for _, f := range ep.Fixes {
			vals["explain.fix_replays"]++
			if f.FirstDivergence != nil {
				vals["explain.diverged"]++
			}
		}
	}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS starts a new peak-resident-set window: on Linux, writing
// 5 to clear_refs resets the high-water mark getrusage reports. A
// pass's own peak, rather than the run's, leaves out the garbage
// collector's rare overshoots, whose largest grows with the run's
// length. Where the kernel refuses, peaks stay cumulative over the run.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.Write([]byte("5")) // best effort: see above
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
