package experiments

import (
	"fmt"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/metrics"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// elasticityWindow is the control-loop granularity of the elasticity
// experiment. It is deliberately finer than Options.MetricsWindow (the
// paper's 10 s reporting bucket): the figure of interest here is the
// DRS-style convergence timeline, which needs sub-second resolution.
const elasticityWindow = 500 * time.Millisecond

// steadyMean averages the last third of a throughput series — the
// post-convergence steady state the recovery comparison is made over.
func steadyMean(series []float64) float64 {
	n := len(series)
	if n == 0 {
		return 0
	}
	tail := n / 3
	if tail < 1 {
		tail = 1
	}
	return metrics.Mean(series[n-tail:])
}

// Elasticity regenerates the adaptive-scheduling figure (DESIGN.md): the
// ElasticChain workload with mis-declared demands, run three ways —
// honestly-declared R-Storm (the oracle), mis-declared static R-Storm (the
// paper's scheduler, trusting the lie), and mis-declared R-Storm with the
// adaptive feedback loop closing on measured demands.
func Elasticity() Experiment {
	return Experiment{
		ID:    "elasticity",
		Title: "Adaptive feedback scheduling under mis-declared demands",
		PaperClaim: "(beyond the paper: DRS-style loop — adaptive recovers >=90% of the " +
			"honest-declaration schedule; incremental rebalance moves a strict subset of tasks)",
		Run: runElasticity,
	}
}

func runElasticity(o Options) (*Report, error) {
	o = o.withDefaults()
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	cfg := simulator.Config{
		Duration:      o.Duration,
		MetricsWindow: elasticityWindow,
		Seed:          o.Seed,
		Shards:        o.Shards,
	}

	honest, err := workloads.ElasticChain(true)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate(c, []*topology.Topology{honest}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("elasticity oracle: %w", err)
	}

	lyingStatic, err := workloads.ElasticChain(false)
	if err != nil {
		return nil, err
	}
	static, err := simulate(c, []*topology.Topology{lyingStatic}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("elasticity static: %w", err)
	}

	lyingAdaptive, err := workloads.ElasticChain(false)
	if err != nil {
		return nil, err
	}
	adaptiveOut, err := simulateAdaptive(c, lyingAdaptive, cfg, adaptive.LoopConfig{}, nil)
	if err != nil {
		return nil, fmt.Errorf("elasticity adaptive: %w", err)
	}

	name := honest.Name()
	oracleSeries := oracle.result.Topology(name).SinkSeries
	staticSeries := static.result.Topology(name).SinkSeries
	adaptiveSeries := adaptiveOut.Result.Topology(name).SinkSeries
	oracleSteady := steadyMean(oracleSeries)
	staticSteady := steadyMean(staticSeries)
	adaptiveSteady := steadyMean(adaptiveSeries)
	totalTasks := honest.TotalTasks()
	moves := adaptiveOut.TotalMoves()

	unit := fmt.Sprintf("steady-state throughput (tuples/%s)", elasticityWindow)
	return &Report{
		ID:    "elasticity",
		Title: "Adaptive feedback scheduling under mis-declared demands",
		PaperClaim: "adaptive recovers >=90% of the oracle; static does not; " +
			"incremental migration beats full teardown",
		Window: elasticityWindow,
		Series: map[string][]float64{
			"oracle (honest decl)": oracleSeries,
			"static (mis-decl)":    staticSeries,
			"adaptive (mis-decl)":  adaptiveSeries,
		},
		Rows: []Row{
			{
				// Baseline = static mis-declared, RStorm = adaptive.
				Label:          unit + ": static vs adaptive",
				Baseline:       staticSteady,
				RStorm:         adaptiveSteady,
				ImprovementPct: metrics.ImprovementPct(staticSteady, adaptiveSteady),
			},
			{
				// Baseline = oracle; recovery ratio is the headline.
				Label:          unit + ": oracle vs adaptive (recovery)",
				Baseline:       oracleSteady,
				RStorm:         adaptiveSteady,
				ImprovementPct: metrics.ImprovementPct(oracleSteady, adaptiveSteady),
			},
			{
				Label:          unit + ": oracle vs static (the gap left open)",
				Baseline:       oracleSteady,
				RStorm:         staticSteady,
				ImprovementPct: metrics.ImprovementPct(oracleSteady, staticSteady),
			},
			{
				// Baseline = tasks a full teardown restarts; RStorm = the
				// incremental loop's total migrations.
				Label:          "tasks migrated: full reschedule vs incremental",
				Baseline:       float64(totalTasks),
				RStorm:         float64(moves),
				ImprovementPct: metrics.ImprovementPct(float64(totalTasks), float64(moves)),
			},
			{
				Label:    "rebalance rounds until convergence",
				Baseline: 0,
				RStorm:   float64(len(adaptiveOut.Events)),
			},
		},
	}, nil
}

// simulateAdaptive schedules topo from its (mis-)declarations, then runs it
// under the adaptive control loop configured by loopCfg, with the fault
// schedule (nil for none) installed before the loop starts.
func simulateAdaptive(
	c *cluster.Cluster,
	topo *topology.Topology,
	cfg simulator.Config,
	loopCfg adaptive.LoopConfig,
	schedule faults.Schedule,
) (*adaptive.LoopResult, error) {
	sched := core.NewResourceAwareScheduler()
	state := core.NewGlobalState(c)
	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		return nil, fmt.Errorf("scheduling %q: %w", topo.Name(), err)
	}
	if err := state.Apply(topo, a); err != nil {
		return nil, fmt.Errorf("apply %q: %w", topo.Name(), err)
	}
	sim, err := simulator.New(c, cfg)
	if err != nil {
		return nil, err
	}
	if err := sim.AddTopology(topo, a); err != nil {
		return nil, err
	}
	if err := schedule.Apply(sim); err != nil {
		return nil, err
	}
	loop := adaptive.NewLoop(sim, c, sched, loopCfg)
	if err := loop.Manage(topo, a); err != nil {
		return nil, err
	}
	return loop.Run()
}
