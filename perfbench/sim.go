package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// The helpers below wrap each public call a workload makes in a span, so
// the traced run sees every layer boundary. Untraced, a span costs one
// branch.

func (r *recorder) buildCluster(build func() (*cluster.Cluster, error)) (*cluster.Cluster, error) {
	sp := r.tr.begin("cluster.build")
	defer r.tr.end(sp)
	return build()
}

func (r *recorder) buildTopology(build func() (*topology.Topology, error)) (*topology.Topology, error) {
	sp := r.tr.begin("topology.build")
	defer r.tr.end(sp)
	return build()
}

func (r *recorder) schedule(s core.Scheduler, topo *topology.Topology, c *cluster.Cluster, state *core.GlobalState) (*core.Assignment, error) {
	sp := r.tr.begin("core.Schedule")
	defer r.tr.end(sp)
	return s.Schedule(topo, c, state)
}

func (r *recorder) apply(state *core.GlobalState, topo *topology.Topology, a *core.Assignment) error {
	sp := r.tr.begin("core.Apply")
	defer r.tr.end(sp)
	return state.Apply(topo, a)
}

// newSim constructs a simulation and adds every topology with its
// assignment, stopping short of Start. Traced, it also counts the heap
// allocations the construction made.
func (r *recorder) newSim(c *cluster.Cluster, cfg simulator.Config, topos []*topology.Topology, assigns []*core.Assignment) (*simulator.Simulation, error) {
	sp := r.tr.begin("simulator.setup")
	defer r.tr.end(sp)
	var before runtime.MemStats
	if r.tr.on {
		runtime.ReadMemStats(&before)
	}
	s := r.tr.begin("simulator.New")
	sim, err := simulator.New(c, cfg)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	for i, topo := range topos {
		s := r.tr.begin("simulator.AddTopology")
		err := sim.AddTopology(topo, assigns[i])
		r.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("add %q: %w", topo.Name(), err)
		}
	}
	if r.tr.on {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.addLayer("simulator.setup_allocs", float64(after.Mallocs-before.Mallocs))
	}
	return sim, nil
}

// sliceWarmup is the simulated time after which a traced run counts slice
// allocations: by then the event, tuple and tree pools have grown to their
// steady population.
const sliceWarmup = time.Second

// drive runs a prepared simulation from Start to Finish in fixed
// simulated-time RunTo slices, timing each slice as one step.
func (r *recorder) drive(sim *simulator.Simulation, slice time.Duration) (*simulator.Result, error) {
	top := r.tr.begin("simulator.run")
	defer r.tr.end(top)
	duration := sim.Config().Duration
	t0 := time.Now()
	sp := r.tr.begin("simulator.Start")
	err := sim.Start()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var mem runtime.MemStats
	for t := slice; t < duration; t += slice {
		countAllocs := r.tr.on && t > sliceWarmup
		var mallocs uint64
		if countAllocs {
			runtime.ReadMemStats(&mem)
			mallocs = mem.Mallocs
		}
		ts := time.Now()
		sp := r.tr.begin("simulator.RunTo")
		err := sim.RunTo(t)
		r.tr.end(sp)
		r.step(time.Since(ts))
		if err != nil {
			return nil, err
		}
		if countAllocs {
			runtime.ReadMemStats(&mem)
			r.addLayer("simulator.slice_allocs_sum", float64(mem.Mallocs-mallocs))
			r.addLayer("simulator.slices_counted", 1)
		}
	}
	sp = r.tr.begin("simulator.Finish")
	res, err := sim.Finish()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.addWork(processed(res), time.Since(t0))
	r.countResult(res)
	return res, nil
}

// processed sums TuplesProcessed over the result's topologies.
func processed(res *simulator.Result) int64 {
	var n int64
	for _, tr := range res.Topologies {
		n += tr.TuplesProcessed
	}
	return n
}

// countResult adds a result's exact counters to the per-layer table. They
// label the simulated work: a change that only speeds up the simulator
// must leave them equal.
func (r *recorder) countResult(res *simulator.Result) {
	var sent, remote int64
	for _, tr := range res.Topologies {
		r.addLayer("simulator.tuples_processed", float64(tr.TuplesProcessed))
		r.addLayer("simulator.tuples_delivered", float64(tr.TuplesDelivered))
		sent += tr.TuplesSent
		remote += tr.TuplesSentRemote
	}
	r.addLayer("simulator.tuples_sent", float64(sent))
	r.addLayer("simulator.tuples_sent_remote", float64(remote))
	r.addLayer("simulator.tuples_replayed", float64(res.TuplesReplayed))
	r.addLayer("simulator.tuples_migrated", float64(res.TuplesMigrated))
}

// digest hashes every field of a Result in a fixed order. Two runs of the
// same inputs must produce the same digest.
func digest(res *simulator.Result) uint64 {
	h := fnv.New64a()
	writeResult(h, res)
	return h.Sum64()
}

func writeResult(w io.Writer, res *simulator.Result) {
	fmt.Fprintf(w, "%v %v %d %d %v %d %d %d %d %d\n", res.Duration, res.Window, res.WarmupWindows,
		res.NodesUsed, res.MeanUtilizationUsed, res.TuplesDropped, res.TuplesMigrated,
		res.TasksOOMKilled, res.TuplesReplayed, res.TreesLost)
	names := make([]string, 0, len(res.Topologies))
	for n := range res.Topologies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tr := res.Topologies[n]
		fmt.Fprintf(w, "%s %s %v %v %d %d %d %d %d %d %v %v %v %v %v %v %d %v\n",
			tr.Name, tr.Scheduler, tr.SinkSeries, tr.MeanSinkThroughput,
			tr.TuplesEmitted, tr.TuplesProcessed, tr.TuplesDelivered, tr.TuplesExpired,
			tr.TuplesSent, tr.TuplesSentRemote, tr.MeanLatency, tr.LatencyP50, tr.LatencyP95,
			tr.LatencyP99, tr.LatencyMax, tr.LatencyP99Series, tr.NodesUsed, tr.RecoveryTime)
		comps := make([]string, 0, len(tr.ComponentSeries))
		for c := range tr.ComponentSeries {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		for _, c := range comps {
			fmt.Fprintf(w, "  %s %v\n", c, tr.ComponentSeries[c])
		}
	}
	writeNodeMap(w, res.NodeUtilization)
	writeNodeMap(w, res.NICUtilization)
	for _, f := range res.Faults {
		fmt.Fprintf(w, "fault %s\n", f)
	}
	ids := make([]string, 0, len(res.NodeDowntime))
	for id := range res.NodeDowntime {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "down %s %v\n", id, res.NodeDowntime[cluster.NodeID(id)])
	}
}

func writeNodeMap(w io.Writer, m map[cluster.NodeID]float64) {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "%s=%v ", id, m[cluster.NodeID(id)])
	}
	fmt.Fprintln(w)
}

// subSeed derives a distinct, non-zero simulator seed for run i.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x>>1) | 1
}
