package main

import (
	"fmt"
	"math/rand"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// adaptive-chaos: the adaptive control loop over Emulab24 with
// at-least-once replay and a crash/recover fault schedule. A pass is a
// sequence of tenant epochs; between epochs one tenant is submitted or
// killed, and each epoch is one adaptive.Loop run over the epoch's tenant
// set. Loop.Run owns the simulation from Start to Finish, so tenants
// change between runs, not inside one.
const (
	chaosDuration = 3 * time.Second
	chaosWindow   = 250 * time.Millisecond
)

// chaosTenant is one tenant the epochs submit and kill, with its priority.
type chaosTenant struct {
	name     string
	priority int
	build    func() (*topology.Topology, error)
}

func chaosTenants() []chaosTenant {
	return []chaosTenant{
		{"chain", 2, chainTopology},
		{"elastic", 0, func() (*topology.Topology, error) { return workloads.ElasticChain(false) }},
		{"chatty", 1, func() (*topology.Topology, error) { return workloads.ChattyChain(false) }},
	}
}

// chainTopology is an honestly declared three-stage chain, the tenant
// present in every epoch.
func chainTopology() (*topology.Topology, error) {
	b := topology.NewBuilder("chain")
	b.SetSpout("s", 2).SetCPULoad(20).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("work", 4).ShuffleGrouping("s").SetCPULoad(25).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 300 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("z", 2).ShuffleGrouping("work").SetCPULoad(10).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	return b.Build()
}

// chaosEpochSets returns a pass's tenant sets. The chain runs in every
// epoch; epoch 1 submits one of the other two tenants, epoch 2 submits the
// second, epoch 3 kills the first. Which goes first alternates between
// variants, so every run submits each tenant first equally often.
func chaosEpochSets(variant int) [][]chaosTenant {
	all := chaosTenants()
	chain, a, b := all[0], all[1], all[2]
	if variant%2 == 1 {
		a, b = b, a
	}
	return [][]chaosTenant{{chain}, {chain, a}, {chain, a, b}, {chain, b}}
}

// setupChaos prepares one epoch: tenants scheduled by R-Storm, the fault
// schedule injected, and the loop built and managing every tenant.
func (r *recorder) setupChaos(tenants []chaosTenant, variant int, rng *rand.Rand) (*adaptive.Loop, error) {
	c, err := r.buildCluster(cluster.Emulab24)
	if err != nil {
		return nil, err
	}
	sched := core.NewResourceAwareScheduler()
	state := core.NewGlobalState(c)
	topos := make([]*topology.Topology, len(tenants))
	assigns := make([]*core.Assignment, len(tenants))
	for i, t := range tenants {
		if topos[i], err = r.buildTopology(t.build); err != nil {
			return nil, err
		}
		if assigns[i], err = r.schedule(sched, topos[i], c, state); err != nil {
			return nil, fmt.Errorf("scheduling %q: %w", t.name, err)
		}
		if err := r.apply(state, topos[i], assigns[i]); err != nil {
			return nil, err
		}
	}
	cfg := simulator.Config{
		Duration:      chaosDuration,
		MetricsWindow: chaosWindow,
		Seed:          rng.Int63() | 1,
		Replay:        true,
	}
	sim, err := r.newSim(c, cfg, topos, assigns)
	if err != nil {
		return nil, err
	}
	// Crash the node hosting most of the chain's tasks in the second quarter
	// of the run and bring it back a third of the run later. The victim
	// follows from the placement, not the seed, so every seed loses the
	// same capacity.
	victim := busiestNode(topos[0], assigns[0])
	crashAt := chaosCrashAt(variant, rng)
	for _, f := range []faults.Fault{
		{Kind: faults.Crash, Node: victim, At: crashAt},
		{Kind: faults.Recover, Node: victim, At: crashAt + chaosDuration/3},
	} {
		sp := r.tr.begin("simulator.InjectFault")
		err := sim.InjectFault(f)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := r.tr.begin("adaptive.NewLoop")
	loop := adaptive.NewLoop(sim, c, sched, adaptive.LoopConfig{FlapDamping: 3, MoveBudget: 8})
	r.tr.end(sp)
	for i, t := range tenants {
		if err := loop.ManageWithPriority(topos[i], assigns[i], t.priority); err != nil {
			return nil, err
		}
	}
	return loop, nil
}

// chaosVariants is how many scenario sets a run cycles through: pass i
// runs variant i mod chaosVariants. Variant v crashes the victim in the
// v-th of chaosVariants equal slices of the second quarter of the run, at
// a seeded point inside the slice, so every run covers the same range of
// crash times and the seed moves only the points within it. Every visit
// after a variant's first is checked against its first result.
const chaosVariants = 16

func chaosCrashAt(variant int, rng *rand.Rand) time.Duration {
	slice := chaosDuration / 4 / chaosVariants
	at := chaosDuration/4 + time.Duration(variant)*slice + time.Duration(rng.Int63n(int64(slice)))
	return at.Truncate(time.Millisecond)
}

// busiestNode returns the node hosting the most tasks of the assignment,
// the smallest ID on ties.
func busiestNode(topo *topology.Topology, a *core.Assignment) cluster.NodeID {
	counts := map[cluster.NodeID]int{}
	for _, task := range topo.Tasks() {
		counts[a.Placements[task.ID].Node]++
	}
	ids := a.NodesUsed()
	best := ids[0]
	for _, id := range ids[1:] {
		if counts[id] > counts[best] {
			best = id
		}
	}
	return best
}

func adaptiveChaosPass(r *recorder, setupOnly bool) (time.Duration, error) {
	variant := r.pass % chaosVariants
	rng := rand.New(rand.NewSource(subSeed(r.seed, variant)))
	var setup time.Duration
	for e, tenants := range chaosEpochSets(variant) {
		key := fmt.Sprintf("variant%d/epoch%d", variant, e)
		r.tr.newOp()
		t0 := time.Now()
		loop, err := r.setupChaos(tenants, variant, rng)
		setup += time.Since(t0)
		if err != nil {
			return setup, fmt.Errorf("%s set-up: %w", key, err)
		}
		if setupOnly {
			continue
		}
		ts := time.Now()
		sp := r.tr.begin("adaptive.Loop.Run")
		res, err := loop.Run()
		r.tr.end(sp)
		d := time.Since(ts)
		r.step(d)
		if err != nil {
			r.op(false, "%s: %v", key, err)
			continue
		}
		r.addWork(processed(res.Result), d)
		r.countResult(res.Result)
		r.addLayer("adaptive.loop_ns", float64(d))
		r.addLayer("adaptive.runs", 1)
		r.addLayer("adaptive.epochs", float64(chaosDuration/chaosWindow-1))
		r.addLayer("adaptive.rebalances", float64(len(res.Events)))
		r.addLayer("adaptive.moves", float64(res.TotalMoves()))
		r.op(r.sameDigest(key, digest(res.Result)), "%s: result digest differs from the first pass", key)
	}
	return setup, nil
}
