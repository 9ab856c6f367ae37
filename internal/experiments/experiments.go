// Package experiments reproduces every table and figure of the paper's
// evaluation. The per-bug speedup tables (Tables 1, 3 and the §3.1
// lu+4R row behind Table 4) render from one campaign, the
// campaign.PaperMatrix sweep (Paper); the other experiments build fresh
// machines (one per configuration), run the corresponding workload, and
// return structured results plus a paper-style formatted table. The
// benchmark harness (bench_test.go) and the wastedcores CLI are thin
// wrappers over this package.
//
// Table 2's four fix combinations are independent runs on the campaign
// worker pool (campaign.ForEach): each run owns its machine and seed,
// so results are identical to sequential execution — only faster.
package experiments

import "repro/internal/sim"

// Options tunes experiment runs.
type Options struct {
	// Seed drives all randomized workload synthesis; for the paper
	// campaign it is the base seed every scenario's seed derives from.
	Seed int64
	// Scale shrinks workloads for fast runs (1.0 = paper-scale
	// simulation, tests and benches use less).
	Scale float64
	// Horizon bounds each individual run in virtual time.
	Horizon sim.Time
	// Workers sizes the worker pool for the paper campaign and Table 2
	// (0 = GOMAXPROCS, 1 = sequential). Results do not depend on it.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Horizon == 0 {
		o.Horizon = 200 * sim.Second
	}
	return o
}
