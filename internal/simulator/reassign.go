package simulator

import (
	"fmt"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// Reassign migrates a running topology onto a new assignment between
// epochs (after a RunTo, before the next). It is the simulator half of an
// incremental rebalance: only tasks whose placement changed are touched.
// It is also the one placement-change path: a failover restart passes the
// crash-dead tasks to revive in restart, and a tenant revival
// (SubmitTopology on a killed name) restarts every task through it.
//
// Migration follows Storm's rebalance semantics, scaled down to the tasks
// actually moving: a migrating task's queued input tuples fail (their trees
// release max-pending credits, so spouts replay rather than wedge; the loss
// is counted in Result.TuplesMigrated), parked producers are released, and
// the task resumes empty on its new node. Affected nodes' CPU overcommit
// stretch and their tasks' service times are refrozen, and the run's
// delivery wires are rebuilt for the new placements. Tuples already in
// flight toward a moved task are delivered normally (its queue survives the
// move; only the path metadata was stale for the transition).
//
// Tasks in restart that are currently dead are revived at their
// assignment's placement (which must be a live node). Like a migration, a
// restarted executor begins empty (working set re-warms, queue empty), and
// a restarted spout re-enters its cycle, parking until stale trees from
// before its death finish draining credits. A nil restart set restarts
// nothing.
//
// It returns the number of tasks migrated or restarted (zero when the new
// assignment is identical).
func (s *Simulation) Reassign(topoName string, a *core.Assignment, restart map[int]bool) (int, error) {
	run, err := s.pausedRun(topoName)
	if err != nil {
		return 0, err
	}
	if run == nil {
		return 0, fmt.Errorf("topology %q is not part of this simulation", topoName)
	}
	return s.applyPlacement(run, a, restart)
}

// applyPlacement validates and applies a placement change to run (see
// Reassign).
func (s *Simulation) applyPlacement(run *topoRun, a *core.Assignment, restart map[int]bool) (int, error) {
	if err := checkAssignment(run.topo, a); err != nil {
		return 0, err
	}
	// Validate every changed placement before mutating anything. A dead
	// task outside the restart set is normalized back to its actual
	// placement rather than rejected: there is no executor left to
	// migrate, and a planner working from measured availability will
	// legitimately want the failed node's tasks elsewhere. The assignment
	// is therefore mutated to record what was really applied, and the
	// returned count is the number of tasks that actually changed.
	var moving, restarting, deadStay []*simTask
	for _, st := range run.ordered {
		np := a.Placements[st.task.ID]
		revive := st.dead && restart[st.task.ID]
		if !revive && np == st.placement {
			continue
		}
		if !revive && st.dead {
			deadStay = append(deadStay, st)
			continue
		}
		if err := s.checkTarget(st.task.ID, np); err != nil {
			return 0, err
		}
		if revive {
			restarting = append(restarting, st)
		} else {
			moving = append(moving, st)
		}
	}
	// Validation passed: now (and only now) normalize dead entries and
	// adopt the assignment.
	for _, st := range deadStay {
		a.Placements[st.task.ID] = st.placement
	}
	run.assignment = a
	if len(moving) == 0 && len(restarting) == 0 {
		return 0, nil
	}

	// Flush the partial window accumulated since the last boundary before
	// anything moves, so the observer's samples attribute the pre-change
	// slice to the nodes the work actually ran on. A no-op when the epoch
	// boundary coincides with a window flush (the adaptive loop's default).
	s.flushPartialWindow()

	// Moves first, then restarts: the order fixes each destination's
	// hosting order, which OOM-kill tie-breaks follow.
	changing := append(moving, restarting...)
	affected := make(map[*simNode]bool, 2*len(changing))
	for _, st := range changing {
		old := st.node
		next := s.nodes[a.Placements[st.task.ID].Node]
		s.vacate(st)
		removeTask(old, st)
		next.tasks = append(next.tasks, st)
		next.everHosted = true
		st.node = next
		st.placement = a.Placements[st.task.ID]
		affected[old] = true
		affected[next] = true
		if st.dead {
			// A restarted executor comes back idle. Its outBuf/outIdx
			// are deliberately untouched: a stale delivery completion
			// from before the death (still draining toward dead
			// consumers) finishes its old sequence deterministically,
			// and every new emission resets the cursor itself.
			st.dead = false
			st.busy = false
			st.parked = false
		}
	}
	// Refreeze contention on every live node whose task set changed (a
	// restarted task's old node may still be dead), then re-resolve the
	// run's delivery edges for the new placements.
	s.refreeze(affected)
	s.buildRouters(run)
	if s.sharded {
		// Pending events homed by a moved task (replay backoffs, in-flight
		// arrivals) must follow it to its new lane before the next window,
		// or two lanes would mutate it.
		s.rehomeEvents()
	}
	for _, st := range restarting {
		if st.isSpout == 1 {
			st.node.lane.scheduleTask(st.node.lane.instant, evSpoutCycle, st)
		}
	}
	return len(changing), nil
}

// vacate retires st's executor from its current node — the step shared by
// a migration, a restart and a tenant kill. The input queue drains on the
// departing lane (the failed trees and released producers belong to the
// placement the tuples ran under; a dead task's queue is already empty),
// the busy time accrued here is credited to the node it ran on so
// end-of-run utilization is attributed per host, and the in-memory working
// set resets: the memory model's state-growth ramp re-warms from zero
// wherever the executor runs next (inert with the model off — handled
// feeds nothing else).
func (s *Simulation) vacate(st *simTask) {
	st.node.lane.drainQueue(st, true)
	delta := st.tracker.Busy() - st.creditedBusy
	st.node.departedWeighted += float64(delta) * st.comp.EffectiveCPUPoints()
	st.creditedBusy = st.tracker.Busy()
	st.handled = 0
}

// pausedRun checks that the simulation is paused between epochs (started,
// not finished) and returns the named topology's run, or nil if no run
// has that name.
func (s *Simulation) pausedRun(name string) (*topoRun, error) {
	if !s.started {
		return nil, fmt.Errorf("simulation not started")
	}
	if s.finished {
		return nil, fmt.Errorf("simulation already finished")
	}
	return s.findRun(name), nil
}

// findRun returns the run of the named topology, or nil.
func (s *Simulation) findRun(name string) *topoRun {
	for _, r := range s.runs {
		if r.topo.Name() == name {
			return r
		}
	}
	return nil
}

// checkAssignment verifies that a is a complete assignment for topo.
func checkAssignment(topo *topology.Topology, a *core.Assignment) error {
	if a.Topology != topo.Name() {
		return fmt.Errorf("assignment is for %q, topology is %q", a.Topology, topo.Name())
	}
	if !a.Complete(topo) {
		return fmt.Errorf("assignment for %q is incomplete", topo.Name())
	}
	return nil
}

// checkTarget refuses to place a live executor on an unknown or a dead
// node. Every entry point that places one (AddTopology, SubmitTopology,
// Reassign) validates through it: a task on a dead node would never be
// refrozen off the instant service channel, and its spout would re-emit
// forever at one virtual instant.
func (s *Simulation) checkTarget(taskID int, p core.Placement) error {
	n, ok := s.nodes[p.Node]
	if !ok {
		return fmt.Errorf("task %d placed on unknown node %q", taskID, p.Node)
	}
	if n.dead {
		return fmt.Errorf("task %d placed on dead node %q", taskID, p.Node)
	}
	return nil
}

// refreeze recomputes contention on every affected live node, in cluster
// declaration order for determinism.
func (s *Simulation) refreeze(affected map[*simNode]bool) {
	for _, id := range s.order {
		if n := s.nodes[id]; affected[n] && !n.dead {
			s.freezeNode(n)
		}
	}
}

// DeadNodes returns the nodes killed by failure injection so far, in
// cluster declaration order. Adaptive replanners zero these out of their
// availability picture.
func (s *Simulation) DeadNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for _, id := range s.order {
		if s.nodes[id].dead {
			out = append(out, id)
		}
	}
	return out
}

// removeTask deletes st from n's task list, preserving order so contention
// refreezes stay deterministic.
func removeTask(n *simNode, st *simTask) {
	for i, t := range n.tasks {
		if t == st {
			n.tasks = append(n.tasks[:i], n.tasks[i+1:]...)
			return
		}
	}
}
