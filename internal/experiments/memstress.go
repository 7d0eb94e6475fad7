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

// memStressWindow is the control-loop (and OOM-enforcement) granularity of
// the memory-stress experiment — fine enough that the adaptive loop can
// see a node filling up and act windows before the OOM killer would.
const memStressWindow = 500 * time.Millisecond

// memStressDuration gives the working sets time to ramp, the control loop
// time to converge, and still leaves a clean final third for the
// steady-state comparison regardless of Options.Duration (the scenario's
// timeline is intrinsic to its growth constants, not to the caller's
// preferred run length).
const memStressDuration = 30 * time.Second

// MemoryStress regenerates the runtime-memory-model figure (DESIGN.md §4):
// the MemStressChain workload with a mis-declared, runtime-growing memory
// footprint, run three ways under OOM enforcement — honestly-declared
// R-Storm (the oracle), mis-declared static R-Storm (whose packed node
// OOM-thrashes as the working sets grow), and mis-declared R-Storm with
// the adaptive loop measuring resident memory and migrating tasks off the
// filling node before the kills start.
func MemoryStress() Experiment {
	return Experiment{
		ID:    "memstress",
		Title: "Runtime memory model: OOM enforcement vs adaptive memory correction",
		PaperClaim: "(beyond the paper: memory is enforced at runtime, not admission time — " +
			"static mis-declaration OOM-thrashes; the adaptive loop corrects the " +
			"mis-declaration from measured residents and recovers >=90% of the oracle)",
		Run: runMemoryStress,
	}
}

func runMemoryStress(o Options) (*Report, error) {
	o = o.withDefaults()
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	cfg := simulator.Config{
		Duration:      memStressDuration,
		MetricsWindow: memStressWindow,
		Seed:          o.Seed,
		MemoryModel:   true,
		Shards:        o.Shards,
	}
	// The adaptive loop projects measured memory growth far forward (the
	// working sets ramp for many windows), triggers well under the OOM
	// threshold, and places tasks only where the memory fill keeps
	// headroom for further growth.
	loopCfg := adaptive.LoopConfig{
		Profiler: adaptive.ProfilerConfig{
			MemLookaheadWindows: 40,
		},
		Controller: adaptive.ControllerConfig{
			MemHigh:     0.7,
			MemHeadroom: 0.8,
		},
	}

	honest, err := workloads.MemStressChain(true)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate(c, []*topology.Topology{honest}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("memstress oracle: %w", err)
	}

	lyingStatic, err := workloads.MemStressChain(false)
	if err != nil {
		return nil, err
	}
	static, err := simulate(c, []*topology.Topology{lyingStatic}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("memstress static: %w", err)
	}

	lyingAdaptive, err := workloads.MemStressChain(false)
	if err != nil {
		return nil, err
	}
	adaptiveOut, err := simulateAdaptive(c, lyingAdaptive, cfg, loopCfg, nil)
	if err != nil {
		return nil, fmt.Errorf("memstress adaptive: %w", err)
	}

	name := honest.Name()
	oracleSeries := oracle.result.Topology(name).SinkSeries
	staticSeries := static.result.Topology(name).SinkSeries
	adaptiveSeries := adaptiveOut.Result.Topology(name).SinkSeries
	oracleSteady := steadyMean(oracleSeries)
	staticSteady := steadyMean(staticSeries)
	adaptiveSteady := steadyMean(adaptiveSeries)

	unit := fmt.Sprintf("steady-state throughput (tuples/%s)", memStressWindow)
	return &Report{
		ID:    "memstress",
		Title: "Runtime memory model: OOM enforcement vs adaptive memory correction",
		PaperClaim: "static mis-declaration OOM-thrashes; adaptive migrates off the " +
			"filling node, takes zero OOM kills, and recovers >=90% of the oracle",
		Window: memStressWindow,
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
				// Baseline = static's OOM kills; RStorm = adaptive's.
				Label:    "tasks OOM-killed: static vs adaptive",
				Baseline: float64(static.result.TasksOOMKilled),
				RStorm:   float64(adaptiveOut.Result.TasksOOMKilled),
			},
			{
				Label:    "tasks migrated by the adaptive loop",
				Baseline: float64(honest.TotalTasks()),
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
