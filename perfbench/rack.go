package main

import (
	"fmt"
	"runtime"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// rack400: a shuffle pipeline on 8 racks x 50 nodes, pinned rack by rack
// so every lane of the sharded kernel carries load, run at Shards = nproc.
// A slice is 200 ms of simulated time: both CPUs must finish every window
// barrier in it, so shorter slices let a short stall on either CPU set the
// tail of the slice times.
const (
	rackCount    = 8
	rackNodes    = 50
	rackPar      = 32
	rackDuration = 2 * time.Second
	rackWindow   = 500 * time.Millisecond
	rackSlice    = 200 * time.Millisecond
)

func rackCluster() (*cluster.Cluster, error) {
	return cluster.TwoRack(rackCount, rackNodes, cluster.EmulabNodeSpec())
}

func rackTopology() (*topology.Topology, error) {
	p := topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 256}
	b := topology.NewBuilder("rack400")
	b.SetSpout("s", rackPar).SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
	b.SetBolt("m", rackPar).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
	b.SetBolt("z", rackPar).ShuffleGrouping("m").SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
	return b.Build()
}

// rackRoundRobin places task i in rack i mod racks, one task per node;
// offset rotates which nodes of each rack are used.
func rackRoundRobin(topo *topology.Topology, c *cluster.Cluster, offset int) *core.Assignment {
	racks := c.Racks()
	a := core.NewAssignment(topo.Name(), "rack-round-robin")
	for _, task := range topo.Tasks() {
		nodes := c.NodesInRack(racks[task.ID%len(racks)])
		node := nodes[(task.ID/len(racks)+offset)%len(nodes)]
		a.Place(task.ID, core.Placement{Node: node, Slot: 0})
	}
	return a
}

// lanesLoaded is the share of racks hosting at least one task: the
// sharded kernel runs one lane per rack, so below 1.0 some lanes idle.
func lanesLoaded(a *core.Assignment, c *cluster.Cluster) float64 {
	used := map[cluster.RackID]bool{}
	for _, p := range a.Placements {
		used[c.Node(p.Node).Rack] = true
	}
	return float64(len(used)) / float64(len(c.Racks()))
}

// setupRack builds the rack400 simulation at the given shard count and
// simulated duration, up to Start, and returns it with its placement's
// lane load.
func (r *recorder) setupRack(shards int, duration time.Duration) (*simulator.Simulation, float64, error) {
	c, err := r.buildCluster(rackCluster)
	if err != nil {
		return nil, 0, err
	}
	topo, err := r.buildTopology(rackTopology)
	if err != nil {
		return nil, 0, err
	}
	a := rackRoundRobin(topo, c, int(uint64(subSeed(r.seed, 0))%rackNodes))
	if err := r.apply(core.NewGlobalState(c), topo, a); err != nil {
		return nil, 0, err
	}
	cfg := simulator.Config{
		Duration:      duration,
		MetricsWindow: rackWindow,
		Seed:          subSeed(r.seed, 1),
		Shards:        shards,
	}
	sim, err := r.newSim(c, cfg, []*topology.Topology{topo}, []*core.Assignment{a})
	return sim, lanesLoaded(a, c), err
}

func rack400Pass(r *recorder, setupOnly bool) (time.Duration, error) {
	r.tr.newOp()
	t0 := time.Now()
	sim, loaded, err := r.setupRack(runtime.NumCPU(), rackDuration)
	setup := time.Since(t0)
	if err != nil {
		return setup, err
	}
	// Placement guard: a sharded measurement whose lanes sit idle measures
	// the wrong thing, so the workload fails instead of timing it.
	if loaded != 1 {
		return setup, fmt.Errorf("rack placement loads %.3f of the lanes, want 1.0", loaded)
	}
	if setupOnly {
		return setup, nil
	}
	res, err := r.drive(sim, rackSlice)
	if err != nil {
		r.op(false, "rack400: %v", err)
		return setup, nil
	}
	r.op(r.sameDigest("rack400", digest(res)), "rack400: result digest differs from the first pass")
	return setup, nil
}
