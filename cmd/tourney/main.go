// Command tourney runs scheduler-policy tournaments: every registered
// policy in the lineup runs every (topology, workload, seed) cell of
// the matrix through the campaign worker pool, and the analyzer names
// the per-cell winner circles on four axes — makespan, p99 wakeup
// latency, wakeup streaks, migrations — plus the non-monotone policy
// pairs where neither side dominates across cells.
//
// Where bisect sweeps the 2^4 fix lattice, tourney sweeps the policy
// registry: the lattice's endpoints (bugs, fixed), the power-saving
// and modular-redesign variants, both global-queue designs, and the
// placement-axis variants, all through one campaign. Engine seeds
// derive from the cell key with the policy excluded, so every policy
// in a cell faces the same workload jitter stream.
//
// Usage:
//
//	tourney [flags]
//
// Examples:
//
//	tourney -preset smoke -out tourney.json
//	tourney -preset default -workers 8
//	tourney -policies bugs,fixed,globalq-shared -topos bulldozer8
//	tourney -preset smoke -baseline baselines/tourney-smoke.json
//	tourney -list
//
// Flags:
//
//	-preset name     tournament preset: smoke (18 scenarios), default, full
//	-policies csv    override the policy lineup (at least two; see -list)
//	-topos csv       override topologies
//	-loads csv       override workloads
//	-seeds csv       override workload seeds
//	-workers n       worker pool size (default GOMAXPROCS)
//	-seed n          campaign base seed (default 42)
//	-scale f         workload scale factor (default per preset)
//	-horizon s       per-scenario virtual-time bound in seconds
//	-verdict-tol pct verdict winner-circle tolerance percent (default 5,
//	                 plus a 100µs absolute slack on the p99-wake axis)
//	-streak-k n      wakeup-streak threshold (default 4)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare against a previous tourney artifact: campaign
//	                 metrics via the campaign comparator AND policy
//	                 verdicts via the verdict differ; exit 3 if either
//	                 regressed
//	-tolerance pct   baseline metric-regression tolerance percent (default 2)
//	-diff-out file   also write the -baseline comparison report to this file
//	-list            print registered policies, topologies and workloads
//	-q               suppress the verdict summary
//
// Exit codes follow the harness convention (README, "Exit codes"):
// 3 means -baseline found a metric or verdict regression.
package main

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/sim"
	"repro/internal/tourney"
)

func main() { cli.Main("tourney", run) }

func run(c *cli.Cmd, args []string) error {
	var (
		dims cli.Dims
		opt  cli.Run
		out  cli.Output
		gate cli.Gate
		prog cli.Progress
	)
	fs := c.FlagSet()
	preset := fs.String("preset", "default", "tournament preset: smoke, default, full")
	verdictTol := fs.Float64("verdict-tol", 0, "verdict winner-circle tolerance percent (0 = default 5)")
	list := fs.Bool("list", false, "print registered policies, topologies and workloads")
	dims.Register(fs)
	dims.RegisterPolicies(fs)
	opt.Register(fs, 0)
	opt.RegisterWorkers(fs)
	out.Register(fs, "suppress the verdict summary")
	gate.Register(fs, "compare against this tourney artifact", "baseline metric-regression tolerance percent")
	if err := c.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(c.Stdout, "policies:   %s\ntopologies: %s\nworkloads:  %s (plus %s)\n",
			campaign.ConfigNames(), campaign.TopologyNames(), campaign.WorkloadNames(), campaign.WorkloadFamilies)
		return nil
	}
	if err := cli.NoArgs(fs); err != nil {
		return err
	}
	o, ok := tourney.OptionsByName(*preset)
	if !ok {
		return cli.Usagef("unknown preset %q (want smoke, default or full)", *preset)
	}
	if err := dims.Apply(&o.Topologies, &o.Workloads, &o.Policies, &o.Seeds); err != nil {
		return err
	}
	opt.Shape(&o.Scale, &o.Horizon)
	if *verdictTol > 0 {
		o.TolerancePct = *verdictTol
	}
	o.Workers, o.BaseSeed, o.StreakK = opt.Workers, opt.Seed, opt.StreakK
	o.OnResult = prog.OnResult

	c.Logf("running %d scenarios (%d cells x %d policies, base seed %d, scale %g)",
		o.Matrix().Size(), o.Matrix().Size()/len(o.Policies), len(o.Policies), o.BaseSeed, o.Scale)
	if err := prog.Start(c, o.Matrix().Size(), o.Workers, out.Quiet); err != nil {
		return err
	}
	r, err := tourney.Run(o)
	if err != nil {
		return err
	}
	prog.Finish()
	if err := out.Write(c, r); err != nil {
		return err
	}
	if gate.Baseline == "" {
		return nil
	}
	return compareBaseline(c, gate, r)
}

// compareBaseline gates the run against a committed tourney artifact on
// two levels: raw campaign metrics (the same comparator campaign and
// bisect use) and policy verdicts (winner circles and cell sets). A
// regression on either level is cli.ErrRegression.
func compareBaseline(c *cli.Cmd, gate cli.Gate, r *tourney.Report) error {
	path := gate.Baseline
	base, err := tourney.Load(path)
	if err != nil {
		return err
	}
	// Metrics and verdicts are only comparable across equal tournament
	// parameters: a different lens changes numbers legitimately.
	switch {
	case base.CheckerSNs != r.CheckerSNs || base.CheckerMNs != r.CheckerMNs:
		return fmt.Errorf("baseline %s used checker lens S=%v M=%v, this run S=%v M=%v; not comparable",
			path, sim.Time(base.CheckerSNs), sim.Time(base.CheckerMNs),
			sim.Time(r.CheckerSNs), sim.Time(r.CheckerMNs))
	case base.ScaleMilli != r.ScaleMilli:
		return fmt.Errorf("baseline %s ran at scale %g, this run at %g; not comparable",
			path, float64(base.ScaleMilli)/1000, float64(r.ScaleMilli)/1000)
	case base.BaseSeed != r.BaseSeed:
		return fmt.Errorf("baseline %s used base seed %d, this run %d; not comparable",
			path, base.BaseSeed, r.BaseSeed)
	case base.StreakK != 0 && base.StreakK != r.StreakK:
		return fmt.Errorf("baseline %s used streak threshold K=%d, this run K=%d; not comparable",
			path, base.StreakK, r.StreakK)
	case base.TolerancePct != r.TolerancePct || base.LatencySlackNs != r.LatencySlackNs:
		return fmt.Errorf("baseline %s used verdict tolerance %g%% slack %v, this run %g%% %v; not comparable",
			path, base.TolerancePct, sim.Time(base.LatencySlackNs),
			r.TolerancePct, sim.Time(r.LatencySlackNs))
	}
	verdictDiffs := tourney.CompareVerdicts(base, r)
	extra := "policy verdicts: unchanged\n"
	if len(verdictDiffs) > 0 {
		extra = fmt.Sprintf("policy verdicts: %d changed\n", len(verdictDiffs))
		for _, d := range verdictDiffs {
			extra += "  " + d + "\n"
		}
	}
	return gate.Check(c, base.Campaign, r.Campaign, extra, len(verdictDiffs) > 0)
}
