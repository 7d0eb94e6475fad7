package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/nimbus"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// nimbus-churn: Nimbus with the heartbeat failure detector on the rack400
// cluster, driven by a seeded closed-loop stream of submits, kills,
// supervisor crashes and recoveries. Each step is one action, a heartbeat
// from every live supervisor, one scheduling round and one heartbeat tick.
// The live set is held between churnLiveLo and churnLiveHi topologies so
// the pending queue stays bounded.
const (
	churnSteps   = 300
	churnLiveLo  = 24
	churnLiveHi  = 40
	churnMaxDown = 4
)

// churn is one pass's control-plane state and its view of the cluster.
type churn struct {
	r     *recorder
	rng   *rand.Rand
	c     *cluster.Cluster
	n     *nimbus.Nimbus
	sups  map[cluster.NodeID]*nimbus.Supervisor // supervisors started and not failed
	down  []cluster.NodeID                      // nodes whose supervisor failed
	live  []string                              // submitted and not killed, in submission order
	topos map[string]*topology.Topology
	made  int // topologies generated so far

	submitted, pendingSum, admittedSum, liveSum int
}

func (r *recorder) setupChurn() (*churn, error) {
	c, err := r.buildCluster(rackCluster)
	if err != nil {
		return nil, err
	}
	sp := r.tr.begin("nimbus.New")
	// The scheduler goes in unwrapped: failover type-asserts
	// *core.ResourceAwareScheduler, and a decorator would switch it to the
	// legacy teardown path.
	n, err := nimbus.New(c, core.NewResourceAwareScheduler())
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	n.EnableFailureDetector(nimbus.DetectorConfig{})
	ch := &churn{
		r:     r,
		rng:   rand.New(rand.NewSource(subSeed(r.seed, 0))),
		c:     c,
		n:     n,
		sups:  map[cluster.NodeID]*nimbus.Supervisor{},
		topos: map[string]*topology.Topology{},
	}
	for _, id := range c.NodeIDs() {
		if err := ch.startSupervisor(id); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

func (ch *churn) startSupervisor(id cluster.NodeID) error {
	sp := ch.r.tr.begin("nimbus.StartSupervisor")
	sv, err := ch.n.StartSupervisor(id)
	ch.r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("start supervisor %s: %w", id, err)
	}
	ch.sups[id] = sv
	return nil
}

// action performs one seeded churn event.
func (ch *churn) action() error {
	live := len(ch.live)
	x := ch.rng.Float64()
	switch {
	case live < churnLiveLo:
		return ch.submit()
	case live >= churnLiveHi:
		return ch.kill()
	case x < 0.38:
		return ch.submit()
	case x < 0.76:
		return ch.kill()
	case x < 0.88 && len(ch.down) < churnMaxDown, len(ch.down) == 0:
		return ch.crash()
	default:
		return ch.recover()
	}
}

func (ch *churn) submit() error {
	seed := subSeed(ch.r.seed, 1000+ch.made)
	ch.made++
	topo, err := ch.r.buildTopology(func() (*topology.Topology, error) {
		return workloads.RandomTopology(seed, workloads.RandomParams{})
	})
	if err != nil {
		return err
	}
	sp := ch.r.tr.begin("nimbus.SubmitTopology")
	err = ch.n.SubmitTopology(topo)
	ch.r.tr.end(sp)
	if err != nil {
		return err
	}
	ch.topos[topo.Name()] = topo
	ch.live = append(ch.live, topo.Name())
	ch.submitted++
	return nil
}

func (ch *churn) kill() error {
	i := ch.rng.Intn(len(ch.live))
	name := ch.live[i]
	sp := ch.r.tr.begin("nimbus.KillTopology")
	err := ch.n.KillTopology(name)
	ch.r.tr.end(sp)
	if err != nil {
		return err
	}
	ch.live = append(ch.live[:i], ch.live[i+1:]...)
	delete(ch.topos, name)
	return nil
}

// crash fails the supervisor of a node hosting a live topology's task,
// so the detector has something to fail over.
func (ch *churn) crash() error {
	var candidates []cluster.NodeID
	for _, name := range ch.live {
		if a := ch.n.Assignment(name); a != nil {
			for _, id := range a.NodesUsed() {
				if ch.sups[id] != nil {
					candidates = append(candidates, id)
				}
			}
		}
	}
	if len(candidates) == 0 {
		return ch.submit()
	}
	id := candidates[ch.rng.Intn(len(candidates))]
	sp := ch.r.tr.begin("nimbus.Supervisor.Fail")
	err := ch.sups[id].Fail()
	ch.r.tr.end(sp)
	if err != nil {
		return err
	}
	delete(ch.sups, id)
	ch.down = append(ch.down, id)
	return nil
}

func (ch *churn) recover() error {
	i := ch.rng.Intn(len(ch.down))
	id := ch.down[i]
	if err := ch.startSupervisor(id); err != nil {
		return err
	}
	ch.down = append(ch.down[:i], ch.down[i+1:]...)
	return nil
}

// heartbeats has every live supervisor publish a fresh sequence number,
// in node declaration order.
func (ch *churn) heartbeats() error {
	for _, id := range ch.c.NodeIDs() {
		sv := ch.sups[id]
		if sv == nil {
			continue
		}
		sp := ch.r.tr.begin("statestore.heartbeat")
		err := sv.Heartbeat()
		ch.r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// check verifies every active assignment is complete and places no task
// on a node whose supervisor is down.
func (ch *churn) check() error {
	dead := map[cluster.NodeID]bool{}
	for _, id := range ch.down {
		dead[id] = true
	}
	admitted := 0
	for _, name := range ch.live {
		a := ch.n.Assignment(name)
		if a == nil {
			continue
		}
		admitted++
		if !a.Complete(ch.topos[name]) {
			return fmt.Errorf("assignment of %q is incomplete", name)
		}
		for task, p := range a.Placements {
			if dead[p.Node] {
				return fmt.Errorf("task %d of %q is on dead node %s", task, name, p.Node)
			}
		}
	}
	ch.admittedSum += admitted
	ch.liveSum += len(ch.live)
	ch.pendingSum += len(ch.n.Pending())
	return nil
}

// step runs one control step and returns the host time of its
// scheduling round plus heartbeat tick.
func (ch *churn) step() (time.Duration, error) {
	if err := ch.action(); err != nil {
		return 0, err
	}
	if err := ch.heartbeats(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	sp := ch.r.tr.begin("nimbus.RunSchedulingRound")
	ch.n.RunSchedulingRound()
	ch.r.tr.end(sp)
	sp = ch.r.tr.begin("nimbus.HeartbeatTick")
	ch.n.HeartbeatTick()
	ch.r.tr.end(sp)
	return time.Since(t0), nil
}

// stateDigest hashes the live topologies' encoded assignments and the
// pending queue: the same stream must end in the same cluster state.
func (ch *churn) stateDigest() (uint64, error) {
	h := fnv.New64a()
	names := append([]string(nil), ch.live...)
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s:", name)
		if a := ch.n.Assignment(name); a != nil {
			data, err := nimbus.EncodeAssignment(a)
			if err != nil {
				return 0, err
			}
			h.Write(data)
		}
	}
	fmt.Fprintf(h, "pending=%v failovers=%d", ch.n.Pending(), len(ch.n.Failovers()))
	return h.Sum64(), nil
}

func nimbusChurnPass(r *recorder, setupOnly bool) (time.Duration, error) {
	t0 := time.Now()
	r.tr.newOp()
	ch, err := r.setupChurn()
	setup := time.Since(t0)
	if err != nil || setupOnly {
		return setup, err
	}
	for i := 0; i < churnSteps; i++ {
		r.tr.newOp()
		ts := time.Now()
		d, err := ch.step()
		total := time.Since(ts)
		if err != nil {
			r.op(false, "churn step %d: %v", i, err)
			continue
		}
		r.step(d)
		r.addWork(1, total)
		if err := ch.check(); err != nil {
			r.op(false, "churn step %d: %v", i, err)
			continue
		}
		r.op(true, "")
	}
	d, err := ch.stateDigest()
	if err != nil {
		return setup, err
	}
	r.op(r.sameDigest("nimbus-churn", d), "nimbus-churn: final cluster state differs from the first pass")
	r.addLayer("nimbus.pending_sum", float64(ch.pendingSum))
	r.addLayer("nimbus.admitted_sum", float64(ch.admittedSum))
	r.addLayer("nimbus.live_sum", float64(ch.liveSum))
	r.addLayer("nimbus.steps", churnSteps)
	r.addLayer("nimbus.submitted", float64(ch.submitted))
	r.addLayer("nimbus.failovers", float64(len(ch.n.Failovers())))
	r.note("churn", "nimbus-churn: %d submitted, mean live %.1f, mean pending %.2f, %d failovers per pass",
		ch.submitted, float64(ch.liveSum)/churnSteps, float64(ch.pendingSum)/churnSteps, len(ch.n.Failovers()))
	return setup, nil
}
