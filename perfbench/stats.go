package main

import (
	"math"
	"regexp"
	"sort"
)

// metricName and metricUnit are the grammar every reported metric obeys:
// a name starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'; a unit has at most 16 letters, digits, '_',
// '/', '%', '.' and '-'.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricSpec declares one reported metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user
// running the workload sees. Timings are medians over the run's passes.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"sim_events_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// emits every one; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"sched.balance_calls", "count", "lower"},
	{"sched.periodic_balance_calls", "count", "lower"},
	{"sched.newidle_balance_calls", "count", "lower"},
	{"sched.nohz_balance_passes", "count", "lower"},
	{"sched.balance_per_event", "1/event", "lower"},
	{"sched.migrations", "count", "lower"},
	{"sched.wakeups", "count", "lower"},
	{"sched.wakeups_on_busy", "count", "lower"},
	{"latency.wake_samples", "count", "lower"},
	{"latency.streaks", "count", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"machine.build_ms.p50", "ms", "lower"},
	{"machine.build_ms.p90", "ms", "lower"},
	{"machine.fork_ms.p50", "ms", "lower"},
	{"machine.fork_ms.p90", "ms", "lower"},
	{"bisect.fork_speedup_x", "x", "higher"},
	{"bisect.analyze_ms", "ms", "lower"},
	{"checker.checks", "count", "lower"},
	{"checker.violations", "count", "lower"},
	{"checker.overhead_pct", "%", "lower"},
	{"explain.episodes", "count", "lower"},
	{"explain.replay_events", "count", "lower"},
	{"explain.replay_ms.p50", "ms", "lower"},
	{"explain.replay_ms.p90", "ms", "lower"},
	{"explain.fork_unavailable", "count", "lower"},
	{"explain.useful_frac", "frac", "higher"},
	{"obs.prov_records", "count", "lower"},
	{"obs.prov_dropped", "count", "lower"},
	{"campaign.scenario_ms.p50", "ms", "lower"},
	{"campaign.scenario_ms.p90", "ms", "lower"},
	{"campaign.encode_ms", "ms", "lower"},
	{"campaign.decode_ms", "ms", "lower"},
	{"campaign.artifact_kb", "KiB", "lower"},
	{"shard.merge_ms", "ms", "lower"},
	{"shard.plan_ms", "ms", "lower"},
	{"shard.cached_frac", "frac", "higher"},
	{"shard.incremental_s", "s", "lower"},
	{"dist.dispatches", "count", "lower"},
	{"dist.failures", "count", "lower"},
	{"dist.rejected", "count", "lower"},
	{"dist.stolen", "count", "lower"},
	{"dist.shard_rtt_ms.p50", "ms", "lower"},
	{"dist.shard_rtt_ms.p90", "ms", "lower"},
	{"dist.server_ms.p50", "ms", "lower"},
	{"dist.server_ms.p90", "ms", "lower"},
	{"dist.request_kb", "KiB", "lower"},
	{"dist.response_kb", "KiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// minBeyond is how many samples must lie above a percentile before it
// is reported: fewer, and the value is one or two samples' noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and whether at least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer with no samples).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
