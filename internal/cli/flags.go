package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Dims holds the comma-separated dimension overrides: -topos, -loads
// and -seeds, plus -configs or tourney's -policies where a command has
// a config axis.
type Dims struct {
	topos, loads, configs, seeds string
	policies                     bool // configs came from -policies
}

// Register adds -topos, -loads and -seeds.
func (d *Dims) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.topos, "topos", "", "comma-separated topology overrides")
	fs.StringVar(&d.loads, "loads", "", "comma-separated workload overrides")
	fs.StringVar(&d.seeds, "seeds", "", "comma-separated workload seed overrides")
}

// RegisterConfigs adds -configs.
func (d *Dims) RegisterConfigs(fs *flag.FlagSet) {
	fs.StringVar(&d.configs, "configs", "", "comma-separated config overrides")
}

// RegisterPolicies adds -policies, a tournament lineup of at least two.
func (d *Dims) RegisterPolicies(fs *flag.FlagSet) {
	d.policies = true
	fs.StringVar(&d.configs, "policies", "", "comma-separated policy lineup overrides")
}

// Apply replaces each overridden dimension; the others keep the
// preset's values. configs is nil for a command without a config axis.
// Every error is a usage error.
func (d *Dims) Apply(topos *[]campaign.TopologySpec, loads *[]campaign.Workload, configs *[]campaign.ConfigSpec, seeds *[]int64) error {
	if err := override(topos, d.topos, "topology", campaign.TopologyByName, campaign.TopologyNames); err != nil {
		return err
	}
	if err := override(loads, d.loads, "workload", campaign.WorkloadByName, func() string {
		return campaign.WorkloadNames() + ", plus " + campaign.WorkloadFamilies
	}); err != nil {
		return err
	}
	if configs != nil {
		kind := "config"
		if d.policies {
			kind = "policy"
		}
		if err := override(configs, d.configs, kind, campaign.ConfigByName, campaign.ConfigNames); err != nil {
			return err
		}
		if d.policies && d.configs != "" && len(*configs) < 2 {
			return Usagef("a tournament needs at least two policies, got %d", len(*configs))
		}
	}
	if d.seeds != "" {
		*seeds = nil
		for _, s := range SplitCSV(d.seeds) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return Usagef("bad seed %q: %v", s, err)
			}
			*seeds = append(*seeds, n)
		}
	}
	return nil
}

// override resolves a CSV of names into dst unless csv is empty.
func override[T any](dst *[]T, csv, kind string, resolve func(string) (T, bool), have func() string) error {
	if csv == "" {
		return nil
	}
	*dst = nil
	for _, name := range SplitCSV(csv) {
		v, ok := resolve(name)
		if !ok {
			return Usagef("unknown %s %q (have: %s)", kind, name, have())
		}
		*dst = append(*dst, v)
	}
	return nil
}

// SplitCSV splits on commas, trimming space and dropping empty items.
func SplitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Run holds the flags that seed, size and instrument a sweep; each
// command registers the subset it has.
type Run struct {
	Seed    int64
	Scale   float64
	Horizon float64 // virtual seconds
	StreakK int
	Workers int

	Trace, Explain, Metrics bool
	CadenceMs               float64
}

// Register adds -seed, -scale, -horizon (defaulting to horizon virtual
// seconds; 0 defers to the preset) and -streak-k.
func (r *Run) Register(fs *flag.FlagSet, horizon float64) {
	fs.Int64Var(&r.Seed, "seed", 42, "campaign base seed")
	fs.Float64Var(&r.Scale, "scale", 0, "workload scale factor (0 = preset default)")
	usage := "per-scenario horizon in virtual seconds"
	if horizon == 0 {
		usage += " (0 = preset default)"
	}
	fs.Float64Var(&r.Horizon, "horizon", horizon, usage)
	fs.IntVar(&r.StreakK, "streak-k", 0, "wakeup-streak threshold (0 = default 4)")
}

// RegisterWorkers adds -workers, the scenario pool size.
func (r *Run) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&r.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
}

// RegisterExplain adds -explain.
func (r *Run) RegisterExplain(fs *flag.FlagSet) {
	fs.BoolVar(&r.Explain, "explain", false, "record decision provenance and replay episodes counterfactually")
}

// RegisterCapture adds -explain, -trace, -metrics and -metrics-cadence-ms.
func (r *Run) RegisterCapture(fs *flag.FlagSet) {
	r.RegisterExplain(fs)
	fs.BoolVar(&r.Trace, "trace", false, "capture violation-window traces")
	fs.BoolVar(&r.Metrics, "metrics", false, "sample virtual-time metrics into per-result snapshots")
	fs.Float64Var(&r.CadenceMs, "metrics-cadence-ms", 0, "metrics sampling interval in virtual ms (0 = 10)")
}

// Shape overrides a preset's scale and horizon where -scale and
// -horizon are set.
func (r *Run) Shape(scale *float64, horizon *sim.Time) {
	if r.Scale > 0 {
		*scale = r.Scale
	}
	if r.Horizon > 0 {
		*horizon = sim.Time(r.Horizon * float64(sim.Second))
	}
}

// Workers resolves a pool-size flag: n, or GOMAXPROCS when n <= 0.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Opts builds the runner options the flags select.
func (r *Run) Opts() campaign.RunnerOpts {
	return campaign.RunnerOpts{
		Workers:        r.Workers,
		BaseSeed:       r.Seed,
		Trace:          r.Trace,
		StreakK:        r.StreakK,
		Metrics:        r.Metrics,
		MetricsCadence: sim.Time(r.CadenceMs * float64(sim.Millisecond)),
		Explain:        r.Explain,
	}
}

// Artifact is what a command writes: a human summary and the JSON bytes.
type Artifact interface {
	FormatSummary() string
	EncodeJSON() ([]byte, error)
}

// Output holds -out and -q.
type Output struct {
	Path  string
	Quiet bool
}

// Register adds -out, and -q with the command's own usage line.
func (o *Output) Register(fs *flag.FlagSet, quietUsage string) {
	fs.StringVar(&o.Path, "out", "", "write JSON artifact to this file (\"-\" for stdout)")
	fs.BoolVar(&o.Quiet, "q", false, quietUsage)
}

// Write prints a's summary unless -q — on stderr when the artifact
// itself goes to stdout, so stdout carries only the JSON — and writes
// the artifact to -out when set.
func (o Output) Write(c *Cmd, a Artifact) error {
	if !o.Quiet {
		w := c.Stdout
		if o.Path == "-" {
			w = c.Stderr
		}
		fmt.Fprint(w, a.FormatSummary())
	}
	if o.Path == "" {
		return nil
	}
	data, err := a.EncodeJSON()
	if err != nil {
		return err
	}
	return c.WriteFile(o.Path, data)
}

// Gate holds the -baseline regression gate: -baseline, -tolerance,
// -diff-out and, where registered, -seed-bands.
type Gate struct {
	Baseline  string
	Tolerance float64
	Bands     string
	DiffOut   string
}

// Register adds -baseline, -tolerance and -diff-out, with the command's
// own usage lines for the first two.
func (g *Gate) Register(fs *flag.FlagSet, baselineUsage, toleranceUsage string) {
	fs.StringVar(&g.Baseline, "baseline", "", baselineUsage)
	fs.Float64Var(&g.Tolerance, "tolerance", 2, toleranceUsage)
	fs.StringVar(&g.DiffOut, "diff-out", "", "write the baseline comparison report to this file")
}

// RegisterBands adds -seed-bands.
func (g *Gate) RegisterBands(fs *flag.FlagSet) {
	fs.StringVar(&g.Bands, "seed-bands", "", "artifact whose cross-seed spread widens per-metric tolerances")
}

// Check compares cur against base at -tolerance, widened by the
// -seed-bands spread, appends extra to the report, prints it and
// writes it to -diff-out. It returns ErrRegression when a metric
// regressed or when regressed is set (a command's own finding, like
// tourney's verdict changes).
func (g Gate) Check(c *Cmd, base, cur *campaign.Campaign, extra string, regressed bool) error {
	opts := campaign.CompareOpts{TolerancePct: g.Tolerance}
	if g.Bands != "" {
		src, err := campaign.Load(g.Bands)
		if err != nil {
			return err
		}
		opts.Bands = campaign.SeedBands(src)
	}
	cmp := campaign.CompareWithOpts(base, cur, opts)
	report := campaign.FormatComparison(cmp) + extra
	fmt.Fprint(c.Stdout, report)
	if g.DiffOut != "" {
		if err := os.WriteFile(g.DiffOut, []byte(report), 0o644); err != nil {
			return err
		}
	}
	if !cmp.Clean() || regressed {
		return ErrRegression
	}
	return nil
}

// Progress is the wall-clock progress line on stderr plus, with
// -telemetry-addr, a live expvar endpoint. It never touches artifact
// bytes.
type Progress struct {
	addr  string
	c     *Cmd
	quiet bool
	tel   *obs.Telemetry
	stop  func() error
}

// Register adds -telemetry-addr.
func (p *Progress) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.addr, "telemetry-addr", "", "serve live expvar progress on this address")
}

// Start counts toward total scenarios run on workers (0 = GOMAXPROCS)
// and serves the expvar endpoint when -telemetry-addr is set; quiet
// suppresses the progress lines. Call it before the run's first
// OnResult, and Close when done.
func (p *Progress) Start(c *Cmd, total, workers int, quiet bool) error {
	p.c, p.quiet = c, quiet
	p.tel = obs.NewTelemetry(total, Workers(workers))
	if p.addr == "" {
		return nil
	}
	addr, stop, err := p.tel.Serve(p.addr)
	if err != nil {
		return err
	}
	p.stop = stop
	c.Logf("telemetry at http://%s/debug/vars", addr)
	return nil
}

// OnResult is the runner's progress hook (safe for concurrent use); it
// does nothing before Start.
func (p *Progress) OnResult(r campaign.Result) {
	if p.tel == nil {
		return
	}
	p.tel.Observe(r.Events)
	if !p.quiet {
		if line, ok := p.tel.MaybeLine(); ok {
			p.c.Logf("%s", line)
		}
	}
}

// Finish prints the final progress line.
func (p *Progress) Finish() {
	if p.tel != nil && !p.quiet && p.tel.Done() > 0 {
		p.c.Logf("%s", p.tel.Line())
	}
}

// Close shuts the expvar endpoint down, if Start opened one.
func (p *Progress) Close() {
	if p.stop != nil {
		_ = p.stop() // the command is done; a failed shutdown changes nothing it reports
	}
}

// TraceExport holds -trace-out and -trace-key.
type TraceExport struct {
	Out, Key string
}

// Register adds -trace-out and -trace-key.
func (t *TraceExport) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Out, "trace-out", "", "export one scenario as Perfetto JSON to this file")
	fs.StringVar(&t.Key, "trace-key", "", "scenario key to export with -trace-out (default: first)")
}

// Write exports the -trace-key scenario (default: the first) as
// Perfetto JSON to -trace-out: a deterministic side run that leaves the
// artifact untouched. It does nothing without -trace-out.
func (t TraceExport) Write(c *Cmd, scenarios []campaign.Scenario, opts campaign.RunnerOpts) error {
	if t.Out == "" {
		return nil
	}
	sc, err := campaign.SelectExportScenario(scenarios, t.Key)
	if err != nil {
		return err
	}
	f, err := os.Create(t.Out)
	if err != nil {
		return err
	}
	exp, err := campaign.ExportPerfetto(sc, opts, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	c.Logf("wrote Perfetto trace %s (scenario %s, %d events) — open at ui.perfetto.dev", t.Out, exp.Key, exp.Events)
	if exp.Dropped > 0 {
		c.Logf("warning: trace dropped %d events (capture buffer full); timeline has gaps", exp.Dropped)
	}
	return nil
}
