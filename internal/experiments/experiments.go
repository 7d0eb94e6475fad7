// Package experiments regenerates every figure of the paper's evaluation
// (§6): it schedules the benchmark workloads with default Storm and with
// R-Storm, executes both on the simulator, and reports the comparison the
// corresponding figure makes. rstorm-sim -matrix and the repository-level
// benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/metrics"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// Options tunes experiment execution. Zero values take defaults that keep
// a full figure run in the tens of seconds of wall-clock time.
type Options struct {
	// Duration is the simulated time per run. Default 30s.
	Duration time.Duration
	// MetricsWindow is the throughput bucket. Default 10s (the paper's
	// reporting unit).
	MetricsWindow time.Duration
	// Seed drives the simulator RNG. Default 1.
	Seed int64
	// Percentiles turns on the simulator's latency histograms
	// (simulator.Config.LatencyHistograms) in experiments that support
	// them, adding latency-percentile rows to the report. Off by default;
	// leaving it off keeps every report byte-identical to before the
	// observability layer existed.
	Percentiles bool
	// Shards selects the simulator kernel (simulator.Config.Shards): 0
	// runs the legacy single-threaded kernel; >= 1 runs the sharded
	// conservative-parallel kernel on that many workers. Sharded results
	// are identical for every Shards >= 1, so reports vary only between
	// the two kernels, never across worker counts. Experiments that
	// require the single-ordered-loop observability path (the journal)
	// ignore it.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 30 * time.Second
	}
	if o.MetricsWindow == 0 {
		o.MetricsWindow = 10 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Row is one measured comparison within a figure.
type Row struct {
	// Label names the quantity, e.g. "throughput (tuples/10s)".
	Label string
	// Baseline is default Storm's measurement; RStorm is R-Storm's.
	Baseline float64
	RStorm   float64
	// ImprovementPct is how much better R-Storm is, in percent.
	ImprovementPct float64
}

// Report is a regenerated figure.
type Report struct {
	// ID is the figure identifier, e.g. "fig8a".
	ID string
	// Title describes the experiment.
	Title string
	// PaperClaim quotes what the paper reports for this figure.
	PaperClaim string
	// Rows are the summary comparisons.
	Rows []Row
	// Series holds named throughput timelines (tuples per window) for
	// timeline figures; keys are like "default" and "r-storm".
	Series map[string][]float64
	// Window is the bucket duration of Series.
	Window time.Duration
}

// Experiment is a runnable figure regeneration.
type Experiment struct {
	// ID is the figure identifier ("fig8a" … "fig13", "ablationA" …).
	ID string
	// Title describes the workload and setting.
	Title string
	// PaperClaim quotes the paper's reported result.
	PaperClaim string
	// Run executes the experiment.
	Run func(Options) (*Report, error)
}

// runSpec describes one scheduler's execution of a set of topologies.
type runSpec struct {
	name      string
	scheduler core.Scheduler
}

// outcome bundles a finished simulation with its assignments.
type outcome struct {
	result      *simulator.Result
	assignments map[string]*core.Assignment
}

// simulate schedules topos in order with the given scheduler (applying
// each assignment to shared state, as Nimbus would) and runs them together
// under the fault schedule (nil for a fault-free run).
func simulate(
	c *cluster.Cluster,
	topos []*topology.Topology,
	sched core.Scheduler,
	cfg simulator.Config,
	schedule faults.Schedule,
) (*outcome, error) {
	state := core.NewGlobalState(c)
	sim, err := simulator.New(c, cfg)
	if err != nil {
		return nil, err
	}
	assignments := make(map[string]*core.Assignment, len(topos))
	for _, topo := range topos {
		a, err := sched.Schedule(topo, c, state)
		if err != nil {
			return nil, fmt.Errorf("%s scheduling %q: %w", sched.Name(), topo.Name(), err)
		}
		if err := state.Apply(topo, a); err != nil {
			return nil, fmt.Errorf("apply %q: %w", topo.Name(), err)
		}
		if err := sim.AddTopology(topo, a); err != nil {
			return nil, fmt.Errorf("add %q: %w", topo.Name(), err)
		}
		assignments[topo.Name()] = a
	}
	if err := schedule.Apply(sim); err != nil {
		return nil, err
	}
	result, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &outcome{result: result, assignments: assignments}, nil
}

// throughputComparison builds the standard single-topology figure: one
// throughput row plus nodes-used and utilization rows, with both timelines.
func throughputComparison(
	id, title, claim string,
	c *cluster.Cluster,
	build func() (*topology.Topology, error),
	cfg simulator.Config,
) (*Report, error) {
	topoA, err := build()
	if err != nil {
		return nil, err
	}
	topoB, err := build()
	if err != nil {
		return nil, err
	}
	base, err := simulate(c, []*topology.Topology{topoA}, core.EvenScheduler{}, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", id, err)
	}
	rstorm, err := simulate(c, []*topology.Topology{topoB}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s r-storm: %w", id, err)
	}
	bt := base.result.Topology(topoA.Name())
	rt := rstorm.result.Topology(topoB.Name())
	report := &Report{
		ID:         id,
		Title:      title,
		PaperClaim: claim,
		Window:     cfg.MetricsWindow,
		Series: map[string][]float64{
			"default": bt.SinkSeries,
			"r-storm": rt.SinkSeries,
		},
		Rows: []Row{
			{
				Label:          fmt.Sprintf("throughput (tuples/%s)", cfg.MetricsWindow),
				Baseline:       bt.MeanSinkThroughput,
				RStorm:         rt.MeanSinkThroughput,
				ImprovementPct: metrics.ImprovementPct(bt.MeanSinkThroughput, rt.MeanSinkThroughput),
			},
			{
				Label:          "nodes used",
				Baseline:       float64(bt.NodesUsed),
				RStorm:         float64(rt.NodesUsed),
				ImprovementPct: metrics.ImprovementPct(float64(bt.NodesUsed), float64(rt.NodesUsed)),
			},
			{
				Label:          "mean CPU utilization of used nodes (%)",
				Baseline:       base.result.MeanUtilizationUsed * 100,
				RStorm:         rstorm.result.MeanUtilizationUsed * 100,
				ImprovementPct: metrics.ImprovementPct(base.result.MeanUtilizationUsed, rstorm.result.MeanUtilizationUsed),
			},
		},
	}
	return report, nil
}
