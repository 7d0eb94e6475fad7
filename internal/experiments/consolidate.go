package experiments

import (
	"fmt"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/core"
	"rstorm/internal/metrics"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// consolidateWindow is the control-loop granularity of the consolidation
// experiment: fine enough that the cold-topology (imbalance) trigger's
// hysteresis clears early in the run.
const consolidateWindow = 500 * time.Millisecond

// Consolidate regenerates the traffic-aware consolidation figure
// (DESIGN.md §5): the ChattyChain workload with CPU demands declared an
// order of magnitude too high, run two ways — static R-Storm (trusting
// the lie, it spreads the chain one task per node, so every hot edge
// crosses the wire and throughput is NIC-bound) and the adaptive loop
// with the measured-traffic network-cost objective (the cold-topology
// imbalance trigger fires, and the incremental pass co-locates the chatty
// edges, cutting the inter-node tuple fraction and recovering the
// latency/throughput the wire was eating).
func Consolidate() Experiment {
	return Experiment{
		ID:    "consolidate",
		Title: "Traffic-aware consolidation of a cold, spread-out chain",
		PaperClaim: "(beyond the paper: measured edge rates drive a network-cost " +
			"objective — consolidation cuts the inter-node tuple fraction and " +
			"recovers the throughput the wire was eating)",
		Run: runConsolidate,
	}
}

func runConsolidate(o Options) (*Report, error) {
	o = o.withDefaults()
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	cfg := simulator.Config{
		Duration:      o.Duration,
		MetricsWindow: consolidateWindow,
		Seed:          o.Seed,
		Shards:        o.Shards,
	}
	loopCfg := adaptive.LoopConfig{
		Controller: adaptive.ControllerConfig{TrafficObjective: true},
	}

	lyingStatic, err := workloads.ChattyChain(false)
	if err != nil {
		return nil, err
	}
	static, err := simulate(c, []*topology.Topology{lyingStatic}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("consolidate static: %w", err)
	}

	lyingAdaptive, err := workloads.ChattyChain(false)
	if err != nil {
		return nil, err
	}
	adaptiveOut, err := simulateAdaptive(c, lyingAdaptive, cfg, loopCfg, nil)
	if err != nil {
		return nil, fmt.Errorf("consolidate adaptive: %w", err)
	}

	name := lyingStatic.Name()
	staticTR := static.result.Topology(name)
	adaptiveTR := adaptiveOut.Result.Topology(name)
	staticSteady := steadyMean(staticTR.SinkSeries)
	adaptiveSteady := steadyMean(adaptiveTR.SinkSeries)

	unit := fmt.Sprintf("steady-state throughput (tuples/%s)", consolidateWindow)
	return &Report{
		ID:    "consolidate",
		Title: "Traffic-aware consolidation of a cold, spread-out chain",
		PaperClaim: "static spreads the hot edges across the wire; the traffic " +
			"objective co-locates them, cutting the inter-node tuple fraction",
		Window: consolidateWindow,
		Series: map[string][]float64{
			"static (spread)":        staticTR.SinkSeries,
			"adaptive (consolidate)": adaptiveTR.SinkSeries,
		},
		Rows: []Row{
			{
				// Baseline = static spread placement, RStorm = adaptive.
				Label:          unit + ": static vs adaptive",
				Baseline:       staticSteady,
				RStorm:         adaptiveSteady,
				ImprovementPct: metrics.ImprovementPct(staticSteady, adaptiveSteady),
			},
			{
				// Lower is better: the consolidation headline.
				Label:          "inter-node tuple fraction (%)",
				Baseline:       staticTR.InterNodeFraction() * 100,
				RStorm:         adaptiveTR.InterNodeFraction() * 100,
				ImprovementPct: metrics.ImprovementPct(adaptiveTR.InterNodeFraction(), staticTR.InterNodeFraction()),
			},
			{
				Label:          "mean spout-to-sink latency (ms)",
				Baseline:       float64(staticTR.MeanLatency) / float64(time.Millisecond),
				RStorm:         float64(adaptiveTR.MeanLatency) / float64(time.Millisecond),
				ImprovementPct: metrics.ImprovementPct(float64(adaptiveTR.MeanLatency), float64(staticTR.MeanLatency)),
			},
			{
				// Baseline = tasks a full teardown restarts; RStorm = the
				// incremental loop's total migrations.
				Label:    "tasks migrated: full reschedule vs incremental",
				Baseline: float64(lyingStatic.TotalTasks()),
				RStorm:   float64(adaptiveOut.TotalMoves()),
			},
			{
				Label:    "rebalance rounds until convergence",
				Baseline: 0,
				RStorm:   float64(len(adaptiveOut.Events)),
			},
		},
	}, nil
}
