package simulator

import (
	"fmt"
	"time"

	"rstorm/internal/core"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// Runtime tenancy epochs (DESIGN.md §6): the multi-tenant control plane
// admits and evicts topologies while the cluster is loaded, so the
// simulator supports Submit/Kill between RunTo epochs — the same
// pause/mutate/resume discipline as Reassign, sharing its placement path.
//
// KillTopology is Storm's topology teardown scaled to one tenant: every
// task dies in place, queued input tuples fail their trees (spout
// max-pending credits return, counted in Result.TuplesMigrated — the
// administrative drain, not a crash), parked producers are released, and
// the affected nodes' CPU contention is refrozen without the departed
// demand. The run's counters and series stay: an evicted tenant's partial
// results are history, not garbage.
//
// SubmitTopology admits a topology mid-run: a fresh topology starts from
// zero on its assigned nodes, and a previously killed one is revived —
// Reassign restarts every one of its executors empty (working sets
// re-warm, like a migration restart) on the new assignment's placements.
// Contention refreezes on every node whose task set changed.

// SubmitTopology admits a scheduled topology into a running simulation,
// between RunTo epochs. Submitting a name that was previously killed
// revives it on the new assignment; submitting a live name is an error.
// Before Start, use AddTopology.
func (s *Simulation) SubmitTopology(topo *topology.Topology, a *core.Assignment) error {
	run, err := s.pausedRun(topo.Name())
	if err != nil {
		return err
	}
	if run != nil {
		return s.revive(run, a)
	}
	// Validate before the flush below: a rejected submission must not
	// perturb observer state with a spurious partial flush.
	if err := s.checkNewRun(topo, a); err != nil {
		return err
	}
	// Flush the partial window before the cluster changes shape, so the
	// pre-admission slice is attributed to the contention it ran under.
	s.flushPartialWindow()
	run = s.addRun(topo, a)
	affected := make(map[*simNode]bool, len(run.ordered))
	for _, st := range run.ordered {
		affected[st.node] = true
	}
	s.refreeze(affected)
	for _, st := range run.ordered {
		if st.isSpout == 1 {
			st.node.lane.scheduleTask(st.node.lane.instant, evSpoutCycle, st)
		}
	}
	s.journalRecord(trace.CodeTopologySubmitted, topo.Name(), "", -1, "")
	return nil
}

// KillTopology tears a running topology down mid-run: its tasks die in
// place and their queued tuples drain through the migration path. The
// run's history (throughput series, totals) is retained for the Result,
// and the name may be revived later via SubmitTopology.
func (s *Simulation) KillTopology(name string) error {
	run, err := s.pausedRun(name)
	if err != nil {
		return err
	}
	if run == nil {
		return fmt.Errorf("topology %q is not part of this simulation", name)
	}
	if !run.live() {
		return fmt.Errorf("topology %q is already dead", name)
	}

	// Attribute the pre-kill slice of the window before anything changes.
	s.flushPartialWindow()
	affected := make(map[*simNode]bool, len(run.ordered))
	for _, st := range run.ordered {
		if st.dead {
			continue
		}
		st.dead = true
		st.busy = false
		st.parked = false
		// A teardown retires the executor exactly as a migration does,
		// minus the new node: the busy-time credit lets utilization
		// attribution survive a later revival elsewhere.
		s.vacate(st)
		affected[st.node] = true
	}
	s.refreeze(affected)
	s.journalRecord(trace.CodeTopologyKilled, name, "", -1, "")
	return nil
}

// revive restarts a fully killed topology on a new assignment: Reassign
// with every task in the restart set. Stale in-flight work from before
// the kill self-drains: queues were emptied at kill, tuples still
// traveling toward the executors dropped on arrival, and outstanding
// spout trees complete as their instances fail, returning max-pending
// credits — a revived spout whose window is still partly held by stale
// trees simply parks until they finish draining.
func (s *Simulation) revive(run *topoRun, a *core.Assignment) error {
	if run.live() {
		return fmt.Errorf("topology %q already added", run.topo.Name())
	}
	all := make(map[int]bool, len(run.ordered))
	for _, st := range run.ordered {
		all[st.task.ID] = true
	}
	if _, err := s.applyPlacement(run, a, all); err != nil {
		return err
	}
	s.journalRecord(trace.CodeTopologySubmitted, run.topo.Name(), "", -1, "revived")
	return nil
}

// live reports whether any of the run's executors is alive.
func (run *topoRun) live() bool {
	for _, st := range run.ordered {
		if !st.dead {
			return true
		}
	}
	return false
}

// Now exposes the simulation's current virtual time — epoch drivers log
// admission and eviction against it.
func (s *Simulation) Now() time.Duration { return s.now() }
