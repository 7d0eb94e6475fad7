package simulator

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
)

// edgeRecorder copies every flush's edge samples into cumulative
// per-(src,dst) totals — the observer-side view the conservation
// regression compares against the simulator's own delivery totals.
type edgeRecorder struct {
	perEdge map[[2]int]int64
	total   int64
	remote  int64
	flushes int
}

func (r *edgeRecorder) OnWindow(samples []TaskSample) {
	r.flushes++
	for i := range samples {
		s := &samples[i]
		for _, e := range s.Edges {
			if r.perEdge == nil {
				r.perEdge = make(map[[2]int]int64)
			}
			r.perEdge[[2]int{s.TaskID, e.DestTaskID}] += e.Tuples
			r.total += e.Tuples
			if e.Remote {
				r.remote += e.Tuples
			}
		}
	}
}

// TestReassignConservesEdgeCounters: a Reassign landing mid-window must
// rebuild the delivery wires without losing the traffic counted since the
// last flush or double-counting it afterward. The pre-move partial flush
// plus every later flush must sum to exactly the simulator's own delivery
// totals, with remote classification matching placement at the time the
// traffic flowed.
func TestReassignConservesEdgeCounters(t *testing.T) {
	topo := fig8aLikeTopo(t)
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, Config{
		Duration:      5 * time.Second,
		MetricsWindow: time.Second,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	rec := &edgeRecorder{}
	if err := sim.SetObserver(rec); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Pause mid-window (between the 2s and 3s flushes) and migrate two
	// tasks to nodes the schedule left empty.
	if err := sim.RunTo(2250 * time.Millisecond); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	ids := c.NodeIDs()
	next := core.NewAssignment(topo.Name(), "test-migration")
	for id, p := range a.Placements {
		next.Place(id, p)
	}
	tasks := topo.Tasks()
	next.Place(tasks[0].ID, core.Placement{Node: ids[len(ids)-1], Slot: 0})
	next.Place(tasks[len(tasks)-1].ID, core.Placement{Node: ids[len(ids)-2], Slot: 0})
	moved, err := sim.Reassign(topo.Name(), next, nil)
	if err != nil {
		t.Fatalf("Reassign: %v", err)
	}
	if moved != 2 {
		t.Fatalf("moved %d tasks, want 2", moved)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	tr := res.Topology(topo.Name())
	if tr.TuplesSent == 0 {
		t.Fatal("nothing was sent; scenario is inert")
	}
	if rec.total != tr.TuplesSent {
		t.Errorf("observer saw %d edge tuples, simulator sent %d (lost or double-counted across Reassign)",
			rec.total, tr.TuplesSent)
	}
	if rec.remote != tr.TuplesSentRemote {
		t.Errorf("observer saw %d remote tuples, simulator sent %d remote (stale placement classification)",
			rec.remote, tr.TuplesSentRemote)
	}
	// The mid-window pause must have produced the extra partial flush
	// (5 scheduled boundaries + 1 pre-migration partial).
	if rec.flushes != 6 {
		t.Errorf("flushes = %d, want 6 (5 windows + 1 pre-migration partial)", rec.flushes)
	}
	// Per-edge sanity: every counted pair is a real topology edge with a
	// positive total.
	for pair, n := range rec.perEdge {
		if n < 0 {
			t.Errorf("edge %v went negative: %d", pair, n)
		}
	}
}

// TestEdgeCountersMatchDeliveries: on an undisturbed run, per-edge window
// counts must sum to the run's delivery totals (offered load, drops
// included) — the baseline the Reassign regression builds on.
func TestEdgeCountersMatchDeliveries(t *testing.T) {
	res1 := runSeeded(t, 7, false)
	topo := fig8aLikeTopo(t)
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, Config{
		Duration:      6 * time.Second,
		MetricsWindow: time.Second,
		Seed:          7,
		TupleTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	rec := &edgeRecorder{}
	if err := sim.SetObserver(rec); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := res.Topology(topo.Name())
	if rec.total != tr.TuplesSent || rec.remote != tr.TuplesSentRemote {
		t.Errorf("observer totals (%d, %d remote) != simulator totals (%d, %d remote)",
			rec.total, rec.remote, tr.TuplesSent, tr.TuplesSentRemote)
	}
	// Attaching the edge tap must not perturb the simulation itself: the
	// same seed without an observer produces the same tuple accounting.
	other := res1.Topology(topo.Name())
	if other.TuplesSent != tr.TuplesSent || other.TuplesDelivered != tr.TuplesDelivered {
		t.Errorf("observer perturbed the run: %d/%d sent, %d/%d delivered",
			other.TuplesSent, tr.TuplesSent, other.TuplesDelivered, tr.TuplesDelivered)
	}
}
