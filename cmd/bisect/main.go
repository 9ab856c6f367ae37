// Command bisect walks the 2^4 bug-fix lattice: for every (topology,
// workload, seed) cell it runs all 16 combinations of the paper's four
// fixes through the campaign worker pool, then names the minimal fix
// set(s) that eliminate each idle-while-overloaded episode class, the
// non-monotone interactions (fix combinations that re-introduce
// violations, like the min-load fix under affinity pinning), and the
// minimal sets recovering best-case makespan.
//
// The sweep distributes like any campaign: -shard i/n runs a
// deterministic slice of the lattice matrix and writes a *campaign*
// shard artifact (a shard cannot be analyzed — its lattice is
// incomplete by construction), and -merge reconstructs the full
// campaign from shard artifacts and analyzes it, validating lattice
// completeness, into the byte-identical report a single process would
// have produced. -incremental re-runs only scenarios whose identity
// changed since a prior bisect artifact, splicing its embedded campaign
// for the rest.
//
// Usage:
//
//	bisect [flags]
//	bisect -merge [flags] shard1.json shard2.json ...
//
// Examples:
//
//	bisect -preset smoke -out bisect.json
//	bisect -preset default -workers 8
//	bisect -topos bulldozer8 -loads nas-pin:lu -seeds 1,2,3
//	bisect -preset smoke -baseline bisect.json
//	bisect -preset smoke -shard 1/3 -out shard1.json
//	bisect -preset smoke -merge -out bisect.json shard1.json shard2.json shard3.json
//	bisect -preset smoke -incremental bisect.json -out bisect.json
//
// Flags:
//
//	-preset name     sweep preset: smoke (32 scenarios), default, full
//	-topos csv       override topologies (see campaign -list)
//	-loads csv       override workloads
//	-seeds csv       override workload seeds
//	-shard i/n       run only the i-th of n shards; writes a campaign artifact
//	-merge           merge shard artifacts (positional args) and analyze
//	-incremental f   prior bisect artifact: execute only new/changed scenarios
//	-workers n       worker pool size (default GOMAXPROCS)
//	-seed n          campaign base seed (default 42)
//	-scale f         workload scale factor (default per preset)
//	-horizon s       per-scenario virtual-time bound in seconds
//	-perftol pct     perf-verdict makespan tolerance percent (default 10)
//	-lattol pct      latency-verdict p99 wakeup-delay tolerance percent
//	                 (default 10, plus a 100µs absolute slack)
//	-streak-k n      wakeup-streak threshold for the episode-level
//	                 overload-on-wakeup witness (default 4)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare the embedded campaign against a previous
//	                 bisect artifact's; exit 3 on regression
//	-tolerance pct   baseline regression tolerance percent (default 2)
//	-seed-bands file widen per-metric tolerances to the cross-seed spread
//	                 observed in this multi-seed variance artifact
//	-diff-out file   also write the -baseline comparison report to this file
//	-trace-out file  export one scenario as Chrome trace-event / Perfetto
//	                 JSON (a deterministic side run; the artifact is
//	                 unaffected); open the file at ui.perfetto.dev
//	-trace-key key   scenario to export (default: first key)
//	-telemetry-addr a  serve live progress as expvar on this address
//	-explain         record decision provenance and counterfactually replay
//	                 each confirmed episode under every single fix; the
//	                 report cross-checks per-episode attributions against
//	                 the lattice's minimal fix sets (explain_check), and
//	                 -trace-out exports gain provenance/episode tracks
//	-no-fork         simulate every lattice point from scratch instead
//	                 of forking each cell's shared prefix (the escape
//	                 hatch for validating the fork runner: both paths
//	                 must produce byte-identical artifacts)
//	-q               suppress the verdict summary
//
// Exit codes follow the harness convention (README, "Exit codes"):
// 3 means -baseline found a regression.
package main

import (
	"fmt"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() { cli.Main("bisect", run) }

func run(c *cli.Cmd, args []string) error {
	var (
		dims  cli.Dims
		opt   cli.Run
		out   cli.Output
		gate  cli.Gate
		prog  cli.Progress
		trace cli.TraceExport
	)
	fs := c.FlagSet()
	preset := fs.String("preset", "default", "sweep preset: smoke, default, full")
	shardSpec := fs.String("shard", "", "run only shard i of n (\"i/n\"); writes a campaign artifact")
	mergeMode := fs.Bool("merge", false, "merge shard artifacts (positional args) and analyze")
	incremental := fs.String("incremental", "", "prior bisect artifact: execute only new/changed scenarios")
	perfTol := fs.Float64("perftol", 0, "perf-verdict makespan tolerance percent (0 = default 10)")
	latTol := fs.Float64("lattol", 0, "latency-verdict p99 tolerance percent (0 = default 10)")
	noFork := fs.Bool("no-fork", false, "simulate every lattice point from scratch (bypass the checkpoint/fork runner)")
	dims.Register(fs)
	opt.Register(fs, 0)
	opt.RegisterWorkers(fs)
	opt.RegisterExplain(fs)
	out.Register(fs, "suppress the verdict summary")
	gate.Register(fs, "compare against this bisect artifact", "baseline regression tolerance percent")
	gate.RegisterBands(fs)
	prog.Register(fs)
	trace.Register(fs)
	if err := c.Parse(fs, args); err != nil {
		return err
	}
	defer prog.Close()

	o, ok := bisect.OptionsByName(*preset)
	if !ok {
		return cli.Usagef("unknown preset %q (want smoke, default or full)", *preset)
	}
	if err := dims.Apply(&o.Topologies, &o.Workloads, nil, &o.Seeds); err != nil {
		return err
	}
	opt.Shape(&o.Scale, &o.Horizon)
	if *perfTol > 0 {
		o.PerfTolerancePct = *perfTol
	}
	if *latTol > 0 {
		o.LatencyTolerancePct = *latTol
	}
	o.Workers, o.BaseSeed, o.StreakK, o.Explain = opt.Workers, opt.Seed, opt.StreakK, opt.Explain
	o.NoFork = *noFork
	o.OnResult = prog.OnResult
	opts := opt.Opts()
	opts.Checker = o.Checker
	opts.OnResult = prog.OnResult
	scenarios := o.Matrix().Scenarios()

	if *shardSpec != "" {
		// A shard of the lattice is a campaign artifact, not a report:
		// analysis needs the whole lattice, which only -merge restores.
		if *mergeMode || *incremental != "" || gate.Baseline != "" {
			return cli.Usagef("-shard does not combine with -merge, -incremental or -baseline; merge the shards first")
		}
		sp, err := shard.ParseSpec(*shardSpec)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		part, err := sp.Select(scenarios)
		if err != nil {
			// A spec that parses but cannot partition this matrix (index
			// out of range for it, duplicate keys) is still a bad
			// invocation.
			return cli.Usagef("%v", err)
		}
		c.Logf("shard %s holds %d of %d scenarios (campaign artifact only; -merge analyzes)",
			sp, len(part), len(scenarios))
		if err := prog.Start(c, len(part), o.Workers, out.Quiet); err != nil {
			return err
		}
		art, err := campaign.RunScenarios(part, opts)
		if err != nil {
			return err
		}
		prog.Finish()
		if err := out.Write(c, art); err != nil {
			return err
		}
		return trace.Write(c, scenarios, opts)
	}

	var r *bisect.Report
	var err error
	switch {
	case *mergeMode:
		if *incremental != "" {
			return cli.Usagef("-merge does not combine with -incremental")
		}
		if fs.NArg() == 0 {
			return cli.Usagef("-merge needs shard artifact files as arguments")
		}
		parts := make([]*campaign.Campaign, 0, fs.NArg())
		for _, path := range fs.Args() {
			part, err := loadShardArtifact(path)
			if err != nil {
				return err
			}
			parts = append(parts, part)
		}
		merged, err := shard.Merge(parts...)
		if err != nil {
			return err
		}
		c.Logf("merged %d shard artifacts into %d scenarios; analyzing", fs.NArg(), len(merged.Results))
		r, err = bisect.Analyze(merged, o)
		if err != nil {
			return err
		}
	case *incremental != "":
		if fs.NArg() > 0 {
			return cli.Usagef("unexpected arguments %q (artifact files only follow -merge)", fs.Args())
		}
		prior, err := bisect.Load(*incremental)
		if err != nil {
			return err
		}
		diff := shard.Plan(scenarios, prior.Campaign, opts)
		c.Logf("incremental vs %s: %s", *incremental, diff.Summary())
		if err := prog.Start(c, len(diff.ToRun), o.Workers, out.Quiet); err != nil {
			return err
		}
		art, err := diff.Execute(opts)
		if err != nil {
			return err
		}
		if r, err = bisect.Analyze(art, o); err != nil {
			return err
		}
	default:
		if fs.NArg() > 0 {
			return cli.Usagef("unexpected arguments %q (artifact files only follow -merge)", fs.Args())
		}
		c.Logf("running %d scenarios (%d cells x %d lattice points, base seed %d, scale %g)",
			len(scenarios), len(scenarios)/bisect.NumSets, bisect.NumSets, o.BaseSeed, o.Scale)
		if err := prog.Start(c, len(scenarios), o.Workers, out.Quiet); err != nil {
			return err
		}
		if r, err = bisect.Run(o); err != nil {
			return err
		}
	}
	prog.Finish()
	if err := trace.Write(c, scenarios, opts); err != nil {
		return err
	}
	if err := out.Write(c, r); err != nil {
		return err
	}
	if gate.Baseline == "" {
		return nil
	}
	base, err := bisect.Load(gate.Baseline)
	if err != nil {
		return err
	}
	// Metrics are only comparable across equal sweep parameters: a
	// different checker lens, scale or base seed changes episode counts
	// and makespans legitimately, not as regressions.
	switch {
	case base.CheckerSNs != r.CheckerSNs || base.CheckerMNs != r.CheckerMNs:
		return fmt.Errorf("baseline %s used checker lens S=%v M=%v, this run S=%v M=%v; not comparable",
			gate.Baseline, sim.Time(base.CheckerSNs), sim.Time(base.CheckerMNs),
			sim.Time(r.CheckerSNs), sim.Time(r.CheckerMNs))
	case base.ScaleMilli != r.ScaleMilli:
		return fmt.Errorf("baseline %s ran at scale %g, this run at %g; not comparable",
			gate.Baseline, float64(base.ScaleMilli)/1000, float64(r.ScaleMilli)/1000)
	case base.BaseSeed != r.BaseSeed:
		return fmt.Errorf("baseline %s used base seed %d, this run %d; not comparable",
			gate.Baseline, base.BaseSeed, r.BaseSeed)
	case base.StreakK != 0 && base.StreakK != r.StreakK:
		return fmt.Errorf("baseline %s used streak threshold K=%d, this run K=%d; not comparable",
			gate.Baseline, base.StreakK, r.StreakK)
	case base.Campaign.Explain != r.Campaign.Explain:
		return fmt.Errorf("baseline %s ran with explain=%v, this run with explain=%v; not comparable",
			gate.Baseline, base.Campaign.Explain, r.Campaign.Explain)
	}
	return gate.Check(c, base.Campaign, r.Campaign, "", false)
}

// loadShardArtifact reads a merge input: a campaign shard artifact, or a
// full bisect artifact whose embedded campaign is used (so a previous
// report can fill shards that did not re-run). Trying bisect first
// matters — a bisect report also parses as an empty campaign artifact.
func loadShardArtifact(path string) (*campaign.Campaign, error) {
	if r, err := bisect.Load(path); err == nil {
		return r.Campaign, nil
	}
	return campaign.Load(path)
}
