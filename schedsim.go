// Package schedsim is the public API of this reproduction of "The Linux
// Scheduler: a Decade of Wasted Cores" (Lozi et al., EuroSys 2016).
//
// It exposes, as a single import, what a user needs to
//
//   - build a simulated multicore NUMA machine running the paper's CFS
//     model (NewMachine, Bulldozer8, DefaultConfig),
//   - toggle each of the paper's four scheduler bugs and fixes (Features),
//   - run the paper's workloads (NASSuite, LaunchMake, LaunchR, NewTPCH,
//     StartNoise) or build custom ones (NewProgram, process/thread
//     spawning),
//   - detect invariant violations with the online sanity checker
//     (NewChecker, §4.1),
//   - record and visualize scheduling activity (NewRecorder,
//     RQSizeHeatmap, §4.2),
//   - and sweep whole scenario campaigns — topology x workload x config
//     x seed cross-products — on a parallel worker pool with
//     byte-reproducible JSON artifacts (RunCampaign,
//     DefaultCampaignMatrix).
//
// The paper's tables and figures are regenerated by the wastedcores
// command (internal/experiments), not through this package.
//
// A minimal session:
//
//	m := schedsim.NewMachine(schedsim.Bulldozer8(), schedsim.DefaultConfig(), 1)
//	p := m.NewProc("app", schedsim.ProcOpts{})
//	p.Spawn(schedsim.NewProgram().Compute(10*schedsim.Millisecond).Build(),
//	        schedsim.SpawnOpts{})
//	m.RunUntilDone(schedsim.Second, p)
//
// Determinism: identical seeds produce identical runs, event for event.
package schedsim

import (
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Time is a point or duration in virtual time (nanosecond resolution).
type Time = sim.Time

// Duration units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Machine topology.
type (
	// Topology describes cores, SMT siblings, NUMA nodes and hop
	// distances.
	Topology = topology.Topology
	// CoreID identifies a logical CPU.
	CoreID = topology.CoreID
	// NodeID identifies a NUMA node.
	NodeID = topology.NodeID
)

// Topology constructors.
var (
	// Bulldozer8 is the paper's 64-core, 8-node machine (Table 5, Fig 4).
	Bulldozer8 = topology.Bulldozer8
	// SMP builds a single-node machine with n cores.
	SMP = topology.SMP
	// TwoNode builds a two-node machine.
	TwoNode = topology.TwoNode
)

// Scheduler configuration and state.
type (
	// Config carries the CFS tunables and feature flags.
	Config = sched.Config
	// Features selects the four bug fixes independently.
	Features = sched.Features
	// Scheduler is the CFS model (usually accessed via Machine.Sched).
	Scheduler = sched.Scheduler
	// CPUSet is an affinity mask (tasksets, §3.2).
	CPUSet = sched.CPUSet
)

// Scheduler constructors.
var (
	// DefaultConfig returns kernel-default tunables with all four bugs
	// present — the kernel the paper studied.
	DefaultConfig = sched.DefaultConfig
	// AllFixes returns a Features value with every fix enabled.
	AllFixes = sched.AllFixes
)

// Machine and workload programs.
type (
	// Machine is a complete simulated system.
	Machine = machine.Machine
	// Proc is a process (threads sharing an autogroup).
	Proc = machine.Proc
	// ProcOpts configures process creation.
	ProcOpts = machine.ProcOpts
	// SpawnOpts configures thread creation.
	SpawnOpts = machine.SpawnOpts
	// Program is an executable instruction list.
	Program = machine.Program
	// Builder assembles Programs.
	Builder = machine.Builder
)

// Machine constructors.
var (
	// NewMachine builds a machine over a topology with a seed.
	NewMachine = machine.New
	// NewProgram starts a program builder.
	NewProgram = machine.NewProgram
)

// Workloads.
type (
	// NASApp parametrizes one synthetic NAS program.
	NASApp = workload.NASApp
	// NASLaunchOpts configures a NAS run.
	NASLaunchOpts = workload.NASLaunchOpts
	// MakeOpts configures the kernel-make-like job (§3.1).
	MakeOpts = workload.MakeOpts
	// TPCH is the running database instance (§3.3).
	TPCH = workload.TPCH
	// TPCHOpts configures the database.
	TPCHOpts = workload.TPCHOpts
	// Noise emits transient kernel threads (§3.3).
	Noise = workload.Noise
	// NoiseOpts configures the noise generator.
	NoiseOpts = workload.NoiseOpts
)

// Workload constructors.
var (
	// NASSuite returns the nine NPB-like applications.
	NASSuite = workload.NASSuite
	// NASAppByName finds a suite entry.
	NASAppByName = workload.NASAppByName
	// LaunchMake starts the make-like job.
	LaunchMake = workload.LaunchMake
	// LaunchR starts a single-threaded CPU hog in its own autogroup.
	LaunchR = workload.LaunchR
	// NewTPCH builds the worker-pool database.
	NewTPCH = workload.NewTPCH
	// StartNoise begins transient kernel-thread bursts.
	StartNoise = workload.StartNoise
	// NodeSet builds the taskset covering whole NUMA nodes.
	NodeSet = workload.NodeSet
	// DefaultTPCHOpts returns the paper's database configuration.
	DefaultTPCHOpts = workload.DefaultTPCHOpts
	// DefaultNoiseOpts returns §3.3-scale background noise.
	DefaultNoiseOpts = workload.DefaultNoiseOpts
	// DefaultMakeOpts returns the Figure 2 make parameters.
	DefaultMakeOpts = workload.DefaultMakeOpts
)

// Tools: the sanity checker (§4.1) and the visualizer (§4.2).
type (
	// Checker verifies the work-conserving invariant online.
	Checker = checker.Checker
	// CheckerConfig tunes S, M and the profiling window.
	CheckerConfig = checker.Config
	// Recorder captures scheduler events.
	Recorder = trace.Recorder
	// Event is one trace event.
	Event = trace.Event
	// Heatmap is a cores x time intensity chart.
	Heatmap = viz.Heatmap
)

// Tool constructors.
var (
	// NewChecker attaches a sanity checker to a scheduler.
	NewChecker = checker.New
	// NewRecorder allocates a fixed-capacity trace buffer.
	NewRecorder = trace.NewRecorder
	// RQSizeHeatmap builds the Figure 2a/3 chart from events.
	RQSizeHeatmap = viz.RQSizeHeatmap
)

// The campaign subsystem: declarative scenario matrices executed on a
// sharded worker pool with byte-reproducible aggregate artifacts.
type (
	// CampaignMatrix declares a topology x workload x config x seed
	// cross-product.
	CampaignMatrix = campaign.Matrix
	// CampaignRunnerOpts tunes campaign execution (workers, base seed,
	// checker cadence, trace capture).
	CampaignRunnerOpts = campaign.RunnerOpts
	// Campaign is the aggregate artifact of one matrix run.
	Campaign = campaign.Campaign
)

// Campaign runner and presets.
var (
	// RunCampaign executes a whole matrix on a worker pool.
	RunCampaign = campaign.Run
	// DefaultCampaignMatrix is the standard 30-scenario sweep.
	DefaultCampaignMatrix = campaign.DefaultMatrix
)
