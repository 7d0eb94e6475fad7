package main

import (
	"fmt"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// paper-emulab: the paper's network-bound micro-benchmarks (Fig. 8) on
// Emulab12 and the two Yahoo topologies sharing Emulab24 (Fig. 13), each
// under default Storm and R-Storm, on the single-threaded legacy kernel.
const (
	paperDuration = 3 * time.Second
	paperWindow   = time.Second
	paperSlice    = 100 * time.Millisecond
)

// paperCase is one figure: its cluster, its topologies, the topology whose
// sink throughput the paper compares, and the paper's reported gain.
type paperCase struct {
	figure    string
	cluster   func() (*cluster.Cluster, error)
	topos     func() ([]*topology.Topology, error)
	compare   string
	timeout   time.Duration
	paperGain string
}

// networkBound adapts a micro-benchmark builder to the network-bound
// profile and a one-topology list.
func networkBound(build func(workloads.Bound) (*topology.Topology, error)) func() ([]*topology.Topology, error) {
	return func() ([]*topology.Topology, error) {
		t, err := build(workloads.NetworkBound)
		return []*topology.Topology{t}, err
	}
}

func paperCases() []paperCase {
	return []paperCase{
		{"fig8a", cluster.Emulab12, networkBound(workloads.LinearTopology), "", 0, "~+50%"},
		{"fig8b", cluster.Emulab12, networkBound(workloads.DiamondTopology), "", 0, "~+30%"},
		{"fig8c", cluster.Emulab12, networkBound(workloads.StarTopology), "", 0, "~+47%"},
		{"fig13", cluster.Emulab24, func() ([]*topology.Topology, error) {
			pl, err := workloads.PageLoadTopology()
			if err != nil {
				return nil, err
			}
			pr, err := workloads.ProcessingTopologyScaled(2)
			return []*topology.Topology{pl, pr}, err
		}, "pageload", 2 * time.Second, "~+53% (PageLoad)"},
	}
}

// paperSchedulers are the two arms every figure compares.
func paperSchedulers() []core.Scheduler {
	return []core.Scheduler{core.EvenScheduler{}, core.NewResourceAwareScheduler()}
}

// setupScheduled builds a cluster and topologies, schedules and applies
// every topology with sched, and constructs the simulation up to Start.
func (r *recorder) setupScheduled(pc paperCase, sched core.Scheduler, cfg simulator.Config) (*simulator.Simulation, []*topology.Topology, error) {
	c, err := r.buildCluster(pc.cluster)
	if err != nil {
		return nil, nil, err
	}
	topos, err := r.buildTopologies(pc.topos)
	if err != nil {
		return nil, nil, err
	}
	state := core.NewGlobalState(c)
	assigns := make([]*core.Assignment, len(topos))
	for i, topo := range topos {
		a, err := r.schedule(sched, topo, c, state)
		if err != nil {
			return nil, nil, fmt.Errorf("%s scheduling %q: %w", sched.Name(), topo.Name(), err)
		}
		if err := r.apply(state, topo, a); err != nil {
			return nil, nil, err
		}
		assigns[i] = a
	}
	sim, err := r.newSim(c, cfg, topos, assigns)
	return sim, topos, err
}

// buildTopologies is buildTopology for a builder returning several topologies.
func (r *recorder) buildTopologies(build func() ([]*topology.Topology, error)) ([]*topology.Topology, error) {
	sp := r.tr.begin("topology.build")
	defer r.tr.end(sp)
	return build()
}

func paperEmulabPass(r *recorder, setupOnly bool) (time.Duration, error) {
	var setup time.Duration
	for ci, pc := range paperCases() {
		var baseline float64
		for si, sched := range paperSchedulers() {
			key := pc.figure + "/" + sched.Name()
			cfg := simulator.Config{
				Duration:      paperDuration,
				MetricsWindow: paperWindow,
				TupleTimeout:  pc.timeout,
				Seed:          subSeed(r.seed, 2*ci+si),
			}
			r.tr.newOp()
			t0 := time.Now()
			sim, topos, err := r.setupScheduled(pc, sched, cfg)
			setup += time.Since(t0)
			if err != nil {
				return setup, fmt.Errorf("%s set-up: %w", key, err)
			}
			if setupOnly {
				continue
			}
			res, err := r.drive(sim, paperSlice)
			if err != nil {
				r.op(false, "%s: %v", key, err)
				continue
			}
			name := pc.compare
			if name == "" {
				name = topos[0].Name()
			}
			tput := res.Topology(name).MeanSinkThroughput
			ok := r.sameDigest(key, digest(res))
			if !ok {
				r.op(false, "%s: result digest differs from the first pass", key)
				continue
			}
			if si == 0 {
				baseline = tput
				r.op(true, "")
				continue
			}
			ratio := tput / baseline
			r.note(pc.figure, "%s %s: R-Storm/default mean sink throughput = %.3f (%+.1f%%); paper reports %s",
				pc.figure, name, ratio, 100*(ratio-1), pc.paperGain)
			r.op(ratio > 1, "%s %s: R-Storm %.1f does not beat default %.1f tuples/window", pc.figure, name, tput, baseline)
		}
	}
	return setup, nil
}
