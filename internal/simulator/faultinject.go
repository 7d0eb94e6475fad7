package simulator

import (
	"fmt"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/faults"
	"rstorm/internal/trace"
)

// Fault injection (DESIGN.md §7): the simulator consumes the declarative
// fault model of internal/faults. Crash kills a node until it is
// recovered, Recover returns its capacity and refreezes contention — the
// node's dead executors stay dead until a control plane re-places or
// restarts them (Reassign's restart set) — and Slow transiently stretches
// its service times by a factor.
//
// Injection is legal both pre-start (the schedule is installed in Start)
// and mid-run between RunTo epochs, which is what lets an epoch-driven
// chaos harness script faults against a paused simulation.

// FaultRecord is one fault the simulation actually applied, logged in
// virtual-time order. No-op injections (crashing a dead node, recovering
// a healthy one) are not recorded.
type FaultRecord struct {
	Kind faults.Kind
	Node cluster.NodeID
	At   time.Duration
	// Factor is the service-time multiplier of a Slow record; 0 otherwise.
	Factor float64
}

// String renders the record in schedule syntax, parseable by
// faults.ParseSchedule.
func (fr FaultRecord) String() string {
	return faults.Fault{Kind: fr.Kind, Node: fr.Node, At: fr.At, Factor: fr.Factor}.String()
}

// spoutReplay is one failed tuple tree queued for re-emission on its
// spout. The tree's max-pending credit is held while the entry waits.
type spoutReplay struct {
	key     uint64
	attempt int
}

// InjectFault schedules a fault event. Before Start it joins the pending
// schedule, installed when the run starts; mid-run
// it is scheduled onto the live event queue and must not be in the past.
// Simulation satisfies faults.Injector, so a parsed faults.Schedule can
// be applied wholesale via Schedule.Apply(sim).
func (s *Simulation) InjectFault(f faults.Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if _, ok := s.nodes[f.Node]; !ok {
		return fmt.Errorf("unknown node %q", f.Node)
	}
	if !s.started {
		s.schedule = append(s.schedule, f)
		return nil
	}
	if s.finished {
		return fmt.Errorf("simulation already finished")
	}
	now := s.now()
	if f.At < now {
		return fmt.Errorf("fault %s is in the past (now %v)", f, now)
	}
	// The fault fires on the faulted node's lane: it mutates that lane's
	// node, tasks, and links, so it must run inside that lane's loop.
	ln := s.nodes[f.Node].lane
	ln.eng.ScheduleEvent(f.At-now, &faultEvent{ln: ln, f: f})
	return nil
}

// faultEvent applies one fault on the faulted node's lane. Faults are
// rare, so each is a fresh record rather than a pooled simEvent; a node
// never changes lanes, so rehoming leaves it on its lane.
type faultEvent struct {
	ln *simLane
	f  faults.Fault
}

func (e *faultEvent) Fire() { e.ln.applyFault(e.f) }

// applyFault dispatches one fault event inside the faulted node's lane.
// Redundant events (crash of a dead node, recover of a healthy one) are
// ignored rather than logged, so the fault log records state transitions
// only. Sharded lanes buffer their records (mergeLaneFaults folds them
// into the shared log at barriers); the legacy lane appends directly.
func (ln *simLane) applyFault(f faults.Fault) {
	s := ln.sim
	n := s.nodes[f.Node]
	if n == nil {
		return
	}
	switch f.Kind {
	case faults.Crash:
		if n.dead {
			return
		}
		ln.failNode(f.Node)
	case faults.Recover:
		if !n.dead && n.slowFactor == 1 {
			return
		}
		ln.recoverNode(n)
	case faults.Slow:
		if n.dead {
			return
		}
		s.slowNode(n, f.Factor)
	default:
		return
	}
	fr := FaultRecord{Kind: f.Kind, Node: f.Node, At: ln.eng.Now()}
	if f.Kind == faults.Slow {
		fr.Factor = f.Factor
	}
	if s.sharded {
		ln.faultBuf = append(ln.faultBuf, fr)
	} else {
		s.faultLog = append(s.faultLog, fr)
	}
	s.journalRecord(trace.CodeFaultInjected, "", string(f.Node), -1, fr.String())
}

// recoverNode brings a node back: capacity returns, its NIC revives (the
// link's alive closure reads node.dead), any slow-fault degradation
// clears, and contention refreezes. The node's executors stay dead — a
// recovered machine has capacity, not state; re-placing work on it is the
// control plane's job (Reassign's restart set / the failover round).
func (ln *simLane) recoverNode(n *simNode) {
	if n.dead {
		n.dead = false
		n.downtime += ln.eng.Now() - n.crashedAt
	}
	n.slowFactor = 1
	ln.sim.freezeNode(n)
}

// slowNode applies transient degradation: every service time on the node
// stretches by factor until it recovers.
func (s *Simulation) slowNode(n *simNode, factor float64) {
	n.slowFactor = factor
	s.freezeNode(n)
}

// handleSpoutReplay runs when a failed tree's backoff expires: the replay
// joins its spout's queue and the spout is woken if parked. If the spout
// died while the backoff was pending, the tree is abandoned and its held
// credit returned, so a later restart of the spout starts with honest
// max-pending accounting.
func (ln *simLane) handleSpoutReplay(t *simTask, key uint64, attempt int) {
	if t.dead {
		t.inFlight--
		ln.lostTrees++
		return
	}
	t.replayQ = append(t.replayQ, spoutReplay{key: key, attempt: attempt})
	if t.parked {
		t.parked = false
		ln.scheduleTask(ln.instant, evSpoutCycle, t)
	}
}

// Faults returns the fault events applied so far, in virtual-time order.
func (s *Simulation) Faults() []FaultRecord {
	out := make([]FaultRecord, len(s.faultLog))
	copy(out, s.faultLog)
	return out
}
