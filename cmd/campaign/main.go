// Command campaign runs a scenario campaign: the cross-product of
// topologies, workloads, scheduler configurations and seeds, executed on
// a sharded worker pool, with the §4.1 sanity checker watching every
// run. The aggregate JSON artifact is byte-identical for any -workers
// value, so artifacts from different machines diff cleanly, and
// -baseline compares a run against a previous artifact to catch
// makespan or idle-while-overloaded regressions.
//
// Beyond one process, -shard i/n runs a deterministic slice of the
// matrix (key-ordered round-robin, so a CI matrix of n jobs agrees on
// the partition with no coordination), -merge reconstructs the
// single-process artifact from shard artifacts byte for byte, and
// -incremental re-runs only the scenarios whose identity changed since
// a prior artifact, splicing cached results for the rest.
//
// Usage:
//
//	campaign [flags]
//	campaign -merge [flags] shard1.json shard2.json ...
//
// Examples:
//
//	campaign -matrix default -scale 0.25 -out campaign.json
//	campaign -matrix default -scale 0.25 -baseline campaign.json
//	campaign -topos bulldozer8 -loads tpch,nas:lu -configs bugs,fixed -seeds 1,2
//	campaign -matrix default -scale 0.25 -shard 2/3 -out shard2.json
//	campaign -merge -out campaign.json shard1.json shard2.json shard3.json
//	campaign -matrix default -scale 0.25 -incremental campaign.json -out campaign.json
//
// Flags:
//
//	-matrix name     preset matrix: default (30 scenarios), smoke (8),
//	                 full (every builtin dimension, two seeds) or paper
//	                 (the 76-scenario sweep behind wastedcores' Tables 1, 3, 4)
//	-topos csv       override topologies (see -list)
//	-loads csv       override workloads
//	-configs csv     override scheduler configs
//	-seeds csv       override workload seeds
//	-shard i/n       run only the i-th of n deterministic shards
//	-merge           merge shard artifacts (positional args) instead of running
//	-incremental f   prior artifact: execute only new/changed scenarios
//	-workers n       worker pool size (default GOMAXPROCS)
//	-seed n          campaign base seed (default 42)
//	-scale f         workload scale factor (default 1.0)
//	-horizon s       per-scenario virtual-time bound in seconds (default 200)
//	-streak-k n      wakeup-streak threshold: n consecutive wakeups on busy
//	                 cores while an allowed core idles form a witnessed
//	                 streak (default 4; stamped into the artifact)
//	-trace           capture violation-window traces
//	-explain         record decision provenance and counterfactually replay
//	                 each confirmed episode under every single fix (stamped
//	                 into the artifact; also annotates -trace-out exports
//	                 with provenance and episode tracks)
//	-metrics         sample scheduler/machine metrics in virtual time into
//	                 per-result snapshots (stamped into the artifact)
//	-metrics-cadence-ms f  metrics sampling interval in virtual ms (default 10)
//	-trace-out file  export one scenario as Chrome trace-event / Perfetto
//	                 JSON (a deterministic side run — the artifact is
//	                 unaffected); open the file at ui.perfetto.dev
//	-trace-key key   scenario to export (default: first key)
//	-telemetry-addr a  serve live progress as expvar on this address
//	                 (e.g. ":8331"; variable "campaign" at /debug/vars)
//	-out file        write the JSON artifact here ("-" for stdout)
//	-baseline file   compare against a previous artifact; exit 3 on regression
//	-tolerance pct   regression tolerance percent (default 2)
//	-seed-bands file widen per-metric tolerances to the cross-seed spread
//	                 observed in this multi-seed variance artifact (build
//	                 one with e.g. -seeds 1,2,3,4,5,6,7,8)
//	-diff-out file   also write the -baseline comparison report to this file
//	-q               suppress the summary table
//	-list            print builtin topologies/workloads/configs and exit
//
// Exit codes follow the harness convention (README, "Exit codes"):
// 3 means -baseline found a regression.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/shard"
)

func main() { cli.Main("campaign", run) }

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
	matrixName := fs.String("matrix", "default", "preset matrix: default, smoke, full, paper")
	shardSpec := fs.String("shard", "", "run only shard i of n (\"i/n\")")
	mergeMode := fs.Bool("merge", false, "merge shard artifacts (positional args) instead of running")
	incremental := fs.String("incremental", "", "prior artifact: execute only new/changed scenarios")
	list := fs.Bool("list", false, "list builtin dimensions and exit")
	dims.Register(fs)
	dims.RegisterConfigs(fs)
	opt.Register(fs, 200)
	opt.RegisterWorkers(fs)
	opt.RegisterCapture(fs)
	out.Register(fs, "suppress the summary table")
	gate.Register(fs, "compare against this artifact", "regression tolerance percent")
	gate.RegisterBands(fs)
	prog.Register(fs)
	trace.Register(fs)
	if err := c.Parse(fs, args); err != nil {
		return err
	}
	defer prog.Close()
	if *list {
		fmt.Fprintf(c.Stdout, "topologies: %s\nworkloads:  %s (plus %s)\nconfigs:    %s\nmatrices:   default, smoke, full, paper\n",
			campaign.TopologyNames(), campaign.WorkloadNames(), campaign.WorkloadFamilies, campaign.ConfigNames())
		return nil
	}

	var art *campaign.Campaign
	if *mergeMode {
		switch {
		case *shardSpec != "" || *incremental != "":
			return cli.Usagef("-merge does not combine with -shard or -incremental")
		case trace.Out != "":
			return cli.Usagef("-trace-out needs a scenario matrix; it does not combine with -merge")
		case fs.NArg() == 0:
			return cli.Usagef("-merge needs shard artifact files as arguments")
		}
		merged, err := shard.MergeFiles(fs.Args()...)
		if err != nil {
			return err
		}
		c.Logf("merged %d shard artifacts into %d scenarios", fs.NArg(), len(merged.Results))
		art = merged
	} else {
		if fs.NArg() > 0 {
			return cli.Usagef("unexpected arguments %q (artifact files only follow -merge)", fs.Args())
		}
		m, ok := campaign.MatrixByName(*matrixName)
		if !ok {
			return cli.Usagef("unknown matrix preset %q (want default, smoke, full or paper)", *matrixName)
		}
		if err := dims.Apply(&m.Topologies, &m.Workloads, &m.Configs, &m.Seeds); err != nil {
			return err
		}
		opt.Shape(&m.Scale, &m.Horizon)
		if m.Scale == 0 {
			m.Scale = 1
		}

		scenarios := m.Scenarios()
		if *shardSpec != "" {
			sp, err := shard.ParseSpec(*shardSpec)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			scenarios, err = sp.Select(scenarios)
			if err != nil {
				// A spec that parses but cannot partition this matrix
				// (index out of range for it, duplicate keys) is still a
				// bad invocation, not a runtime failure.
				return cli.Usagef("%v", err)
			}
			c.Logf("shard %s holds %d of %d scenarios", sp, len(scenarios), m.Size())
		}
		opts := opt.Opts()
		opts.OnResult = prog.OnResult

		// Ctrl-C / SIGTERM cancels the run: the worker pool stops feeding
		// scenarios, drains the in-flight ones, and campaign exits 1
		// without writing a partial artifact.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		var err error
		if *incremental != "" {
			var prior *campaign.Campaign
			if prior, err = campaign.Load(*incremental); err != nil {
				return err
			}
			diff := shard.Plan(scenarios, prior, opts)
			c.Logf("incremental vs %s: %s", *incremental, diff.Summary())
			if err := prog.Start(c, len(diff.ToRun), opts.Workers, out.Quiet); err != nil {
				return err
			}
			art, err = diff.ExecuteCtx(ctx, opts)
		} else {
			c.Logf("running %d scenarios on %d workers (base seed %d, scale %g)",
				len(scenarios), cli.Workers(opts.Workers), opts.BaseSeed, m.Scale)
			if err := prog.Start(c, len(scenarios), opts.Workers, out.Quiet); err != nil {
				return err
			}
			art, err = campaign.RunScenariosCtx(ctx, scenarios, opts)
		}
		if err != nil {
			if ctx.Err() != nil {
				return errors.New("interrupted: in-flight scenarios drained, no artifact written")
			}
			return err
		}
		prog.Finish()
		if err := trace.Write(c, scenarios, opts); err != nil {
			return err
		}
	}

	if err := out.Write(c, art); err != nil {
		return err
	}
	if gate.Baseline == "" {
		return nil
	}
	base, err := campaign.Load(gate.Baseline)
	if err != nil {
		return err
	}
	return gate.Check(c, base, art, "", false)
}
