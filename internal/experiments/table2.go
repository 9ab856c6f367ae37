package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Table2Row is one fix-configuration's result for the commercial-database
// experiment (paper Table 2): TPC-H query #18 and the full benchmark,
// with percentage change against the no-fixes baseline.
type Table2Row struct {
	Config  string
	Q18     sim.Time
	Full    sim.Time
	Q18Pct  float64
	FullPct float64
	// Complete is false when any run hit the horizon.
	Complete bool
}

// table2Configs are the paper's four rows.
func table2Configs() []struct {
	Name string
	F    sched.Features
} {
	return []struct {
		Name string
		F    sched.Features
	}{
		{"None", sched.Features{}},
		{"Group Imbalance", sched.Features{FixGroupImbalance: true}},
		{"Overload-on-Wakeup", sched.Features{FixOverloadWakeup: true}},
		{"Both", sched.Features{FixGroupImbalance: true, FixOverloadWakeup: true}},
	}
}

// Table2 reproduces the paper's Table 2: a 64-worker database (containers
// of unequal size in distinct autogroups) running TPC-H alongside
// transient kernel noise, under each combination of the Group Imbalance
// and Overload-on-Wakeup fixes.
func Table2(opts Options) []Table2Row {
	opts = opts.withDefaults()
	configs := table2Configs()
	// The four fix combinations are independent runs; the percentage
	// columns against the no-fixes baseline are computed afterwards.
	rows := campaign.ForEach(len(configs), opts.Workers, func(i int) Table2Row {
		q18, full, ok := runTPCH(opts, configs[i].F)
		return Table2Row{Config: configs[i].Name, Q18: q18, Full: full, Complete: ok}
	})
	base := rows[0]
	for i := 1; i < len(rows); i++ {
		rows[i].Q18Pct = stats.PercentChange(base.Q18.Seconds(), rows[i].Q18.Seconds())
		rows[i].FullPct = stats.PercentChange(base.Full.Seconds(), rows[i].Full.Seconds())
	}
	return rows
}

// runTPCH runs the full 22-query benchmark once and returns Q18's latency
// and the total.
func runTPCH(opts Options, f sched.Features) (q18, full sim.Time, ok bool) {
	topo := topology.Bulldozer8()
	cfg := sched.DefaultConfig()
	cfg.Features = f
	m := machine.New(topo, cfg, opts.Seed)
	db := workload.NewTPCH(m, workload.TPCHOpts{
		Containers: []int{32, 16, 16},
		Autogroups: true,
		Scale:      opts.Scale,
		Seed:       opts.Seed,
	})
	noise := workload.StartNoise(m, workload.DefaultNoiseOpts())
	defer noise.Stop()
	m.Run(50 * sim.Millisecond) // let the pool spread and park
	lats, done := db.RunAll(opts.Horizon)
	if !done {
		return 0, 0, false
	}
	for q, l := range lats {
		full += l
		if q == workload.Q18Index {
			q18 = l
		}
	}
	return q18, full, true
}

// FormatTable2 renders rows in the paper's Table 2 layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: impact of the bug fixes on the commercial database (TPC-H)\n\n")
	fmt.Fprintf(&b, "%-22s %22s %22s\n", "Bug fixes", "TPC-H request #18", "Full TPC-H benchmark")
	for i, r := range rows {
		q18 := fmtTime(r.Q18)
		full := fmtTime(r.Full)
		if i > 0 {
			q18 = fmt.Sprintf("%s (%+.1f%%)", q18, r.Q18Pct)
			full = fmt.Sprintf("%s (%+.1f%%)", full, r.FullPct)
		}
		note := ""
		if !r.Complete {
			note = " (timeout)"
		}
		fmt.Fprintf(&b, "%-22s %22s %22s%s\n", r.Config, q18, full, note)
	}
	return b.String()
}
