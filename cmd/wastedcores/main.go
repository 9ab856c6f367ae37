// Command wastedcores regenerates every table and figure of "The Linux
// Scheduler: a Decade of Wasted Cores" (EuroSys 2016) on the simulated
// machine.
//
// Usage:
//
//	wastedcores [flags] <experiment>...
//
// Experiments: table1 table2 table3 table4 table5 attribution fig1 fig2
// fig3 fig4 fig5 check scaling all
//
// Tables 1, 3 and 4 render from one run of the paper campaign
// (campaign -matrix paper) per invocation, however many of them are
// named.
//
// Flags:
//
//	-scale f   workload scale factor (default 1.0; smaller is faster)
//	-seed n    deterministic seed (default 42); for the paper campaign,
//	           the base seed every scenario's engine seed derives from
//	-svg dir   also write heatmaps as SVG files into dir
//
// Exit codes follow the harness convention (README, "Exit codes"): 2
// for an unknown experiment or a bad flag, 1 when an experiment fails
// (for "all", when any step failed; the others still run).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/globalq"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

// allOrder is the order "all" runs every experiment in.
var allOrder = []string{"table5", "fig4", "fig1", "table1", "table2",
	"table3", "table4", "attribution", "fig2", "fig3", "fig5", "check", "scaling"}

func main() { cli.Main("wastedcores", run) }

func run(c *cli.Cmd, args []string) error {
	fs := c.FlagSet()
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	seed := fs.Int64("seed", 42, "deterministic seed")
	svgDir := fs.String("svg", "", "write heatmaps as SVG files into this directory")
	fs.Usage = func() { usage(fs) }
	if err := c.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return cli.Usagef("")
	}
	for _, name := range fs.Args() {
		if name != "all" && !slices.Contains(allOrder, name) {
			return cli.Usagef("unknown experiment %q", name)
		}
	}
	x := &runner{out: c.Stdout, opts: experiments.Options{Seed: *seed, Scale: *scale}, svgDir: *svgDir}
	for _, name := range fs.Args() {
		if name != "all" {
			if err := x.run(name); err != nil {
				return err
			}
			continue
		}
		failed := 0
		for _, step := range allOrder {
			fmt.Fprintf(x.out, "==== %s ====\n\n", step)
			if err := x.run(step); err != nil {
				c.Logf("%s: %v", step, err)
				failed++
			}
			fmt.Fprintln(x.out)
		}
		if failed > 0 {
			return fmt.Errorf("all: %d of %d experiments failed", failed, len(allOrder))
		}
	}
	return nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprint(fs.Output(), `usage: wastedcores [flags] <experiment>...

experiments:
  table1   NAS with/without the Scheduling Group Construction bug
  table2   TPC-H under the Group Imbalance / Overload-on-Wakeup fixes
  table3   NAS with/without the Missing Scheduling Domains bug
  table4   summary of the four bugs with measured maximum impact
  table5   the simulated machine (paper's hardware table)
  attribution  minimal fix sets from the 2^4 lattice vs the paper's fixes
  fig1     scheduling-domain hierarchy of the 32-core machine
  fig2     Group Imbalance heatmaps (make + 2xR)
  fig3     Overload-on-Wakeup trace (TPC-H)
  fig4     the 8-node machine topology
  fig5     cores considered by core 0 after a hotplug cycle
  check    run the online sanity checker against a buggy machine
  scaling  shared vs per-core runqueue switch-overhead model (the §2.2 premise)
  all      everything above

Tables 1, 3 and 4 render from one run of the 76-scenario paper campaign
(campaign -matrix paper); -seed is its base seed, from which every
scenario derives its engine seed.

flags:
`)
	fs.PrintDefaults()
}

// runner runs experiments for one invocation, sharing one paper
// campaign between the tables that render from it.
type runner struct {
	out    io.Writer
	opts   experiments.Options
	svgDir string
	paper  *campaign.Campaign
}

func (x *runner) paperCampaign() (*campaign.Campaign, error) {
	if x.paper == nil {
		c, err := experiments.Paper(x.opts)
		if err != nil {
			return nil, err
		}
		x.paper = c
	}
	return x.paper, nil
}

func (x *runner) run(name string) error {
	out, opts := x.out, x.opts
	switch name {
	case "table1", "table3", "table4":
		c, err := x.paperCampaign()
		if err != nil {
			return err
		}
		switch name {
		case "table1":
			fmt.Fprintln(out, experiments.Table1(c))
		case "table3":
			fmt.Fprintln(out, experiments.Table3(c))
		default:
			fmt.Fprintln(out, experiments.FormatTable4(experiments.Table4(c, experiments.Table2(opts))))
		}
	case "table2":
		fmt.Fprintln(out, experiments.FormatTable2(experiments.Table2(opts)))
	case "table5":
		fmt.Fprintln(out, experiments.Table5())
	case "attribution":
		rows, _, err := experiments.Attribution(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatAttribution(rows))
	case "fig1":
		fmt.Fprintln(out, experiments.Fig1())
	case "fig2":
		res := experiments.Fig2(opts)
		fmt.Fprintln(out, "Figure 2a: runqueue sizes with the Group Imbalance bug")
		fmt.Fprint(out, res.BugSize.ASCII(2))
		fmt.Fprintln(out, "\nFigure 2b: runqueue loads with the bug")
		fmt.Fprint(out, res.BugLoad.ASCII(0))
		fmt.Fprintln(out, "\nFigure 2c: runqueue sizes with the fix")
		fmt.Fprint(out, res.FixSize.ASCII(2))
		fmt.Fprintf(out, "\nmake completion: %v with bug, %v with fix (%.1f%% faster; paper: 13%%)\n",
			res.MakeBug, res.MakeFix, 100*(1-res.MakeFix.Seconds()/res.MakeBug.Seconds()))
		fmt.Fprintf(out, "underloaded nodes with bug: %d (paper: 2)\n", res.IdleNodesObserved)
		for _, svg := range []struct {
			name string
			h    *viz.Heatmap
		}{{"fig2a.svg", res.BugSize}, {"fig2b.svg", res.BugLoad}, {"fig2c.svg", res.FixSize}} {
			if err := x.writeSVG(svg.name, svg.h); err != nil {
				return err
			}
		}
	case "fig3":
		res := experiments.Fig3(opts)
		fmt.Fprintln(out, "Figure 3: runqueue sizes during TPC-H (Overload-on-Wakeup bug)")
		fmt.Fprint(out, res.Heat.ASCII(2))
		fmt.Fprintf(out, "\nwakeups on busy cores: %d; on idle cores: %d; wasted core time: %v\n",
			res.WakeupsOnBusy, res.WakeupsOnIdle, res.WastedCoreTime)
		fmt.Fprint(out, res.Episodes)
		return x.writeSVG("fig3.svg", res.Heat)
	case "fig4":
		fmt.Fprintln(out, experiments.Fig4())
	case "fig5":
		res := experiments.Fig5(opts)
		fmt.Fprintln(out, "Figure 5: cores considered by core 0, with the bug")
		fmt.Fprint(out, res.ChartBug)
		fmt.Fprintln(out, "\nwith the fix:")
		fmt.Fprint(out, res.ChartFix)
		fmt.Fprintf(out, "\ncoverage: %d cores with bug (one node), %d with fix\n",
			res.CoverageBug, res.CoverageFix)
	case "check":
		runChecker(out, opts)
	case "scaling":
		// The §2.2 premise: why per-core runqueues exist at all.
		fmt.Fprintln(out, globalq.ScalingTable([]int{2, 8, 16, 32, 64, 128}, 4, 20*sim.Millisecond))
	}
	return nil
}

// runChecker demonstrates the §4.1 tool: a machine with the Missing
// Scheduling Domains bug, a pinned workload, and the sanity checker
// catching the long-term invariant violation — then profiling the
// load-balancing decisions to explain it.
func runChecker(out io.Writer, opts experiments.Options) {
	topo := topology.Bulldozer8()
	m := machine.New(topo, sched.DefaultConfig(), opts.Seed)
	if err := m.DisableCore(63); err != nil {
		panic(err)
	}
	if err := m.EnableCore(63); err != nil {
		panic(err)
	}
	rec := trace.NewRecorder(1 << 18)
	m.Sched.Attach(rec)
	c := checker.New(m.Sched, rec, checker.Config{S: 250 * sim.Millisecond})
	c.Start()
	app, _ := workload.NASAppByName("ep")
	app.Launch(m, workload.NASLaunchOpts{Threads: 32, SpawnCore: 0, Seed: opts.Seed, Scale: opts.Scale})
	m.Run(3 * sim.Second)
	fmt.Fprintf(out, "sanity checker: %d checks, %d candidate violations, %d transients, %d confirmed\n",
		c.Checks(), c.Candidates(), c.Transients(), len(c.Violations()))
	for i, v := range c.Violations() {
		if i >= 5 {
			fmt.Fprintf(out, "... and %d more\n", len(c.Violations())-5)
			break
		}
		fmt.Fprintf(out, "  %s\n", v)
	}
	if rec.Len() > 0 {
		fmt.Fprintln(out, "\nprofiling captured during the violations (§4.1):")
		fmt.Fprint(out, viz.SummarizeBalance(rec.Events(), -1))
		if msg, found := viz.DiagnoseGroupImbalance(rec.Events()); found {
			fmt.Fprintln(out, msg)
		}
	}
}

// writeSVG writes h into the -svg directory, if one was given.
func (x *runner) writeSVG(name string, h *viz.Heatmap) error {
	if x.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(x.svgDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(x.svgDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.SVG(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(x.out, "wrote %s\n", path)
	return nil
}
