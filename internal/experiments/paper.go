package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Paper runs campaign.PaperMatrix, the sweep Tables 1, 3 and 4 render
// from. opts.Seed is the campaign base seed: every scenario derives its
// engine seed from it and the scenario's cell key.
func Paper(opts Options) (*campaign.Campaign, error) {
	opts = opts.withDefaults()
	m := campaign.PaperMatrix()
	m.Scale, m.Horizon = opts.Scale, opts.Horizon
	return campaign.Run(m, campaign.RunnerOpts{Workers: opts.Workers, BaseSeed: opts.Seed})
}

// SpeedupRow is one application's execution time with a bug and with
// its fix, and the speedup factor.
type SpeedupRow struct {
	App     string
	WithBug sim.Time
	Fixed   sim.Time
	Speedup float64
	// Complete is false when a run hit the horizon.
	Complete bool
}

// SpeedupTable is one of the paper's per-bug speedup tables.
type SpeedupTable struct {
	Title, Setup string
	Rows         []SpeedupRow
}

// Table1 renders the paper's Table 1 from a paper campaign: every NAS
// application launched with "numactl --cpunodebind=1,2" and as many
// threads as cores on those two nodes (16), forked on node 1. Nodes 1
// and 2 are two hops apart on the Bulldozer machine, so with the
// Scheduling Group Construction bug all threads stay on node 1; with
// the fix they spread over both nodes.
func Table1(c *campaign.Campaign) SpeedupTable {
	return SpeedupTable{
		Title: "Table 1: NAS execution time with/without the Scheduling Group Construction bug",
		Setup: "(16 threads, numactl --cpunodebind=1,2)",
		Rows:  speedups(c, "nas-pin:", "fix-gc", 0),
	}
}

// Table3 renders the paper's Table 3 from a paper campaign: disable and
// re-enable one core, then launch each NAS application with 64 threads
// (the machine's default configuration). With the bug, domain
// regeneration drops the NUMA levels and all threads stay on the node
// where they were forked — one node instead of eight. Super-linear
// slowdowns (up to 138x for lu) come from spinning on locks and
// barriers while holders sit in runqueues. Times run from launch.
func Table3(c *campaign.Campaign) SpeedupTable {
	return SpeedupTable{
		Title: "Table 3: NAS execution time with/without the Missing Scheduling Domains bug",
		Setup: "(64 threads, after disabling and re-enabling one core)",
		Rows:  speedups(c, "nas-hotplug:", "fix-md", campaign.HotplugSettle),
	}
}

// LuR renders the §3.1 lu + 4xR experiment from a paper campaign: with
// the Group Imbalance bug lu (60 threads) crowds away from the four R
// nodes and its spin synchronization collapses ("lu ran 13x faster
// after fixing the Group Imbalance bug"). Times run from lu's launch.
func LuR(c *campaign.Campaign) SpeedupTable {
	return SpeedupTable{
		Title: "§3.1: lu with/without the Group Imbalance bug, next to four R processes",
		Setup: "(60 threads, R on nodes 0, 2, 4 and 6)",
		Rows:  speedups(c, "nas-4r:", "fix-gi", campaign.RWarmup),
	}
}

// speedups is the one lookup behind every SpeedupTable: for each NAS
// application, in suite order, whose workload prefix+<app> c holds, it
// pairs the studied kernel's result with fix's. lead is the workload's
// lead-in before launch, subtracted so times run from launch.
func speedups(c *campaign.Campaign, prefix, fix string, lead sim.Time) []SpeedupRow {
	var rows []SpeedupRow
	for _, app := range workload.NASSuite() {
		key := func(config string) string {
			return fmt.Sprintf("bulldozer8/%s%s/%s/s1", prefix, app.Name, config)
		}
		bug, fixed := c.Result(key("bugs")), c.Result(key(fix))
		if bug == nil || fixed == nil {
			continue
		}
		tb, tf := sim.Time(bug.MakespanNs)-lead, sim.Time(fixed.MakespanNs)-lead
		rows = append(rows, SpeedupRow{
			App:      app.Name,
			WithBug:  tb,
			Fixed:    tf,
			Speedup:  stats.Speedup(tb.Seconds(), tf.Seconds()),
			Complete: bug.Completed && fixed.Completed,
		})
	}
	return rows
}

// Max is the table's largest speedup (0 when it has no rows).
func (t SpeedupTable) Max() float64 {
	m := 0.0
	for _, r := range t.Rows {
		m = max(m, r.Speedup)
	}
	return m
}

// String renders the table in the paper's layout.
func (t SpeedupTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", t.Title, t.Setup)
	fmt.Fprintf(&b, "%-12s %14s %14s %10s\n", "Application", "Time w/ bug", "Time w/o bug", "Speedup")
	for _, r := range t.Rows {
		note := ""
		if !r.Complete {
			note = " (timeout)"
		}
		fmt.Fprintf(&b, "%-12s %14s %14s %9.2fx%s\n",
			r.App, fmtTime(r.WithBug), fmtTime(r.Fixed), r.Speedup, note)
	}
	return b.String()
}

func fmtTime(t sim.Time) string {
	return stats.FormatSeconds(t.Seconds())
}
