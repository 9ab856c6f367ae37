// Command campaignd runs a campaign distributed across campaignw
// workers: it plans shards from the scenario matrix (reusing the
// incremental fingerprint so unchanged cells never ship), dispatches
// them over HTTP, verifies every check-in, and merges the shard
// artifacts into the canonical campaign artifact — byte-identical to
// what `campaign` itself would write for the same matrix and options,
// regardless of worker count, failures, retries or stealing.
//
// Fault tolerance is built in: failed or expired shards retry on other
// workers under exponential backoff, stragglers are re-dispatched to
// idle workers (first verified result wins), incompatible workers are
// rejected at check-in rather than merged, worker liveness rides on
// heartbeats, and when no worker is reachable the coordinator degrades
// to local in-process execution.
//
// Usage:
//
//	campaignd -workers http://host1:9301,http://host2:9301 [flags]
//
// Examples:
//
//	campaignd -workers http://127.0.0.1:9301,http://127.0.0.1:9302 \
//	    -matrix smoke -scale 0.1 -out campaign.json
//	campaignd -workers http://127.0.0.1:9301 -matrix default \
//	    -incremental campaign.json -out campaign.json
//
// Flags (matrix and option flags match `campaign`):
//
//	-workers csv     worker base URLs; empty runs everything locally
//	-shard-size n    scenarios per shard (default 4)
//	-shard-timeout s per-dispatch deadline in seconds (default 120)
//	-straggler-after s  in-flight age before an idle worker steals a
//	                 shard (default 10)
//	-retries n       dispatch attempts per shard before degrading to
//	                 local execution (default 4)
//	-heartbeat-ms n  worker liveness probe interval (default 500)
//	-no-local        fail instead of degrading to local execution
//	-matrix, -topos, -loads, -configs, -seeds, -seed, -scale, -horizon,
//	-streak-k, -trace, -explain, -metrics, -metrics-cadence-ms,
//	-incremental, -out, -baseline, -tolerance, -diff-out, -q
//	                 exactly as in `campaign`
//	-local-workers n pool size for locally executed shards (0 = GOMAXPROCS)
//
// SIGINT/SIGTERM cancel the run: in-flight dispatches are abandoned,
// the local pool drains, and campaignd exits 1 without writing a
// partial artifact.
//
// Exit codes follow the harness convention (README, "Exit codes"):
// an interrupt exits 1, and 3 means -baseline found a regression.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/dist"
)

func main() { cli.Main("campaignd", run) }

func run(c *cli.Cmd, args []string) error {
	var (
		dims cli.Dims
		opt  cli.Run
		out  cli.Output
		gate cli.Gate
	)
	fs := c.FlagSet()
	matrixName := fs.String("matrix", "default", "preset matrix: default, smoke, full, paper")
	incremental := fs.String("incremental", "", "prior artifact: execute only new/changed scenarios")
	workerURLs := fs.String("workers", "", "comma-separated worker base URLs")
	shardSize := fs.Int("shard-size", 4, "scenarios per shard")
	shardTmo := fs.Float64("shard-timeout", 120, "per-dispatch deadline in seconds")
	straggler := fs.Float64("straggler-after", 10, "in-flight seconds before an idle worker steals a shard")
	retries := fs.Int("retries", 4, "dispatch attempts per shard before local degradation")
	heartbeat := fs.Int("heartbeat-ms", 500, "worker liveness probe interval in ms")
	noLocal := fs.Bool("no-local", false, "fail instead of degrading to local execution")
	fs.IntVar(&opt.Workers, "local-workers", 0, "pool size for locally executed shards (0 = GOMAXPROCS)")
	dims.Register(fs)
	dims.RegisterConfigs(fs)
	opt.Register(fs, 200)
	opt.RegisterCapture(fs)
	out.Register(fs, "suppress the summary table and progress logs")
	gate.Register(fs, "compare against this artifact", "regression tolerance percent")
	gate.RegisterBands(fs)
	if err := c.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.NoArgs(fs); err != nil {
		return err
	}
	if *shardSize < 1 {
		return cli.Usagef("-shard-size must be >= 1")
	}
	if *retries < 1 {
		return cli.Usagef("-retries must be >= 1")
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

	var prior *campaign.Campaign
	if *incremental != "" {
		p, err := campaign.Load(*incremental)
		if err != nil {
			return err
		}
		prior = p
	}

	logf := func(format string, args ...any) {
		if !out.Quiet {
			c.Logf(format, args...)
		}
	}
	cfg := dist.Config{
		Workers:        cli.SplitCSV(*workerURLs),
		ShardSize:      *shardSize,
		ShardTimeout:   time.Duration(*shardTmo * float64(time.Second)),
		MaxAttempts:    *retries,
		HeartbeatEvery: time.Duration(*heartbeat) * time.Millisecond,
		StragglerAfter: time.Duration(*straggler * float64(time.Second)),
		DisableLocal:   *noLocal,
		Logf:           logf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf("dispatching %d scenarios to %d workers (shard size %d, base seed %d, scale %g)",
		len(scenarios), len(cfg.Workers), *shardSize, opt.Seed, m.Scale)
	art, report, err := dist.New(cfg, opt.Opts()).Run(ctx, scenarios, prior)
	if err != nil {
		if ctx.Err() != nil {
			return errors.New("interrupted: in-flight shards abandoned, no artifact written")
		}
		return err
	}
	logf("%s", formatReport(report))

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

func formatReport(r *dist.Report) string {
	s := fmt.Sprintf("%d shards, %d dispatches (%d failed, %d rejected), %d stolen, %d duplicates discarded, %d local, %d cached",
		r.Shards, r.Dispatches, r.Failures, r.Rejected, r.Stolen, r.Duplicates, r.LocalShards, r.CachedResults)
	if r.Degraded {
		s += " — degraded to fully local execution"
	}
	return s
}
