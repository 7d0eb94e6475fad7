package experiments

import (
	"fmt"
	"sort"
	"time"

	"rstorm/internal/core"
	"rstorm/internal/metrics"
	"rstorm/internal/nimbus"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// multitenantWindow is the control-plane granularity of the multi-tenant
// experiment: admission/eviction decisions land on these boundaries, and
// the starvation-vs-recovery timeline needs sub-second resolution.
const multitenantWindow = 500 * time.Millisecond

// prodPriority is the production tenant's priority in the
// priority+eviction arm (batch tenants run at zero).
const prodPriority = 8

// MultiTenant regenerates the multi-tenant control-plane figure
// (DESIGN.md §6): four low-priority batch tenants load the cluster near
// its memory capacity; mid-run a burst arrives — one more batch tenant,
// then the production tenant. Under FIFO admission (every priority zero)
// the production tenant is infeasible and starves behind the queue.
// Under priority-aware admission it preempts: the cluster pass evicts the
// newest low-priority tenants, the simulator tears them down mid-run, and
// the production tenant runs at its dedicated-cluster rate; when a
// surviving batch tenant later finishes, an evicted victim is readmitted
// in full on the recovered capacity.
func MultiTenant() Experiment {
	return Experiment{
		ID:    "multitenant",
		Title: "Multi-tenant control plane: priority-aware admission and eviction",
		PaperClaim: "(beyond the paper: production Storm's topology priorities + eviction, " +
			"per Ghaderi et al.'s online-arrival setting — priority recovers >=90% of the " +
			"dedicated-cluster oracle; FIFO starves the production tenant)",
		Run: runMultiTenant,
	}
}

// tenantRun is one arm's outcome.
type tenantRun struct {
	result     *simulator.Result
	evictions  []nimbus.EvictionEvent
	readmitted int
}

func runMultiTenant(o Options) (*Report, error) {
	o = o.withDefaults()
	cfg := simulator.Config{
		Duration:      o.Duration,
		MetricsWindow: multitenantWindow,
		Seed:          o.Seed,
		Shards:        o.Shards,
	}
	// Epoch boundaries: the burst arrives a third in, a batch tenant
	// finishes two thirds in. Both snap to window boundaries.
	t1 := (o.Duration / 3).Truncate(multitenantWindow)
	t2 := (2 * o.Duration / 3).Truncate(multitenantWindow)
	if t1 < multitenantWindow || t2 <= t1 {
		return nil, fmt.Errorf("multitenant: duration %v too short for its epochs", o.Duration)
	}

	// Oracle: the production tenant alone on a dedicated cluster.
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	prodAlone, err := workloads.ProdTenant(0)
	if err != nil {
		return nil, err
	}
	oracle, err := simulate(c, []*topology.Topology{prodAlone}, core.NewResourceAwareScheduler(), cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("multitenant oracle: %w", err)
	}

	fifo, err := driveTenants(cfg, t1, t2, 0)
	if err != nil {
		return nil, fmt.Errorf("multitenant fifo: %w", err)
	}
	prio, err := driveTenants(cfg, t1, t2, prodPriority)
	if err != nil {
		return nil, fmt.Errorf("multitenant priority: %w", err)
	}

	// A tenant never admitted (FIFO's starved prod) has no simulator run:
	// its timeline is the flat zero it earned.
	windows := int(o.Duration / multitenantWindow)
	seriesOf := func(r *simulator.Result, name string) []float64 {
		if tr := r.Topology(name); tr != nil {
			return tr.SinkSeries
		}
		return make([]float64, windows)
	}
	oracleSeries := seriesOf(oracle.result, "prod")
	fifoSeries := seriesOf(fifo.result, "prod")
	prioSeries := seriesOf(prio.result, "prod")
	oracleSteady := steadyMean(oracleSeries)
	fifoSteady := steadyMean(fifoSeries)
	prioSteady := steadyMean(prioSeries)

	// Sum batch tenants in sorted name order: the report quotes this
	// float, so its bits must not depend on map traversal.
	batchSteady := func(r *tenantRun) float64 {
		names := make([]string, 0, len(r.result.Topologies))
		for name := range r.result.Topologies {
			if name != "prod" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		var sum float64
		for _, name := range names {
			sum += steadyMean(r.result.Topologies[name].SinkSeries)
		}
		return sum
	}

	unit := fmt.Sprintf("prod steady-state throughput (tuples/%s)", multitenantWindow)
	return &Report{
		ID:    "multitenant",
		Title: "Multi-tenant control plane: priority-aware admission and eviction",
		PaperClaim: "priority+eviction recovers >=90% of the dedicated-cluster oracle; " +
			"FIFO admission starves the production tenant",
		Window: multitenantWindow,
		Series: map[string][]float64{
			"prod oracle (dedicated)":  oracleSeries,
			"prod fifo (starved)":      fifoSeries,
			"prod priority (evicting)": prioSeries,
		},
		Rows: []Row{
			{
				// Baseline = FIFO admission, RStorm = priority+eviction.
				Label:          unit + ": fifo vs priority",
				Baseline:       fifoSteady,
				RStorm:         prioSteady,
				ImprovementPct: metrics.ImprovementPct(fifoSteady, prioSteady),
			},
			{
				// Baseline = dedicated oracle; recovery is the headline.
				Label:          unit + ": oracle vs priority (recovery)",
				Baseline:       oracleSteady,
				RStorm:         prioSteady,
				ImprovementPct: metrics.ImprovementPct(oracleSteady, prioSteady),
			},
			{
				Label:    "evictions applied",
				Baseline: float64(len(fifo.evictions)),
				RStorm:   float64(len(prio.evictions)),
			},
			{
				Label:    "victims readmitted on capacity recovery",
				Baseline: float64(fifo.readmitted),
				RStorm:   float64(prio.readmitted),
			},
			{
				// What the privilege costs the batch tier.
				Label:          fmt.Sprintf("batch aggregate steady throughput (tuples/%s)", multitenantWindow),
				Baseline:       batchSteady(fifo),
				RStorm:         batchSteady(prio),
				ImprovementPct: metrics.ImprovementPct(batchSteady(fifo), batchSteady(prio)),
			},
		},
	}, nil
}

// driveTenants runs one arm of the scenario end-to-end through the real
// control plane: Nimbus owns admission, priority ordering and eviction;
// the driver mirrors its decisions onto the simulator's tenancy epochs.
// prodPrio is the production tenant's priority (zero = the FIFO arm).
func driveTenants(cfg simulator.Config, t1, t2 time.Duration, prodPrio int) (*tenantRun, error) {
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	n, err := nimbus.New(c, core.NewResourceAwareScheduler())
	if err != nil {
		return nil, err
	}
	for _, id := range c.NodeIDs() {
		if _, err := n.StartSupervisor(id); err != nil {
			return nil, err
		}
	}
	sim, err := simulator.New(c, cfg)
	if err != nil {
		return nil, err
	}

	topos := make(map[string]*topology.Topology)
	submit := func(topo *topology.Topology, err error) error {
		if err != nil {
			return err
		}
		topos[topo.Name()] = topo
		return n.SubmitTopology(topo)
	}

	// t=0: the batch tier fills the cluster.
	for _, name := range []string{"batch-a", "batch-b", "batch-c", "batch-d"} {
		if err := submit(workloads.BatchTenant(name)); err != nil {
			return nil, err
		}
	}
	for _, name := range n.RunSchedulingRound() {
		if err := sim.AddTopology(topos[name], n.Assignment(name)); err != nil {
			return nil, err
		}
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}

	// applyRound mirrors one Nimbus scheduling round onto the simulator:
	// victims torn down first, admissions (including revived victims)
	// submitted after, both in the round's deterministic order.
	readmitted := 0
	applyRound := func() error {
		known := len(n.Evictions())
		scheduled := n.RunSchedulingRound()
		for _, e := range n.Evictions()[known:] {
			if err := sim.KillTopology(e.Victim); err != nil {
				return fmt.Errorf("kill %q: %w", e.Victim, err)
			}
		}
		for _, name := range scheduled {
			if err := sim.SubmitTopology(topos[name], n.Assignment(name)); err != nil {
				return fmt.Errorf("submit %q: %w", name, err)
			}
		}
		for _, e := range n.Evictions() {
			for _, name := range scheduled {
				if name == e.Victim {
					readmitted++
				}
			}
		}
		return nil
	}

	// t1: the burst — one more batch tenant, then the production tenant
	// (submitted last, so FIFO puts it at the back of the queue).
	if err := sim.RunTo(t1); err != nil {
		return nil, err
	}
	if err := submit(workloads.BatchTenant("batch-e")); err != nil {
		return nil, err
	}
	if err := submit(workloads.ProdTenant(prodPrio)); err != nil {
		return nil, err
	}
	if err := applyRound(); err != nil {
		return nil, err
	}

	// t2: a surviving batch tenant finishes; the next round readmits
	// pending work onto the recovered capacity.
	if err := sim.RunTo(t2); err != nil {
		return nil, err
	}
	if n.Assignment("batch-a") != nil {
		if err := n.KillTopology("batch-a"); err != nil {
			return nil, err
		}
		if err := sim.KillTopology("batch-a"); err != nil {
			return nil, err
		}
	}
	if err := applyRound(); err != nil {
		return nil, err
	}

	res, err := sim.Finish()
	if err != nil {
		return nil, err
	}
	return &tenantRun{result: res, evictions: n.Evictions(), readmitted: readmitted}, nil
}
