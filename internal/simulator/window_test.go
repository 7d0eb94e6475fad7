package simulator

import (
	"testing"
	"time"

	"rstorm/internal/core"
)

// TestTrailingPartialWindowFlushed is the regression for the dropped-tail
// bug: when Duration is not a multiple of MetricsWindow, the counters of
// the final partial window used to never reach the Observer. Finish must
// deliver them, bounded to the real interval.
func TestTrailingPartialWindowFlushed(t *testing.T) {
	topo := chainTopo(t, 2, 150*time.Microsecond, 100*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, Config{
		Duration:      2500 * time.Millisecond,
		MetricsWindow: time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	obs := &collector{}
	if err := sim.SetObserver(obs); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := len(obs.windows), 3; got != want {
		t.Fatalf("windows = %d, want %d (2 full + 1 partial tail)", got, want)
	}
	tail := obs.windows[2]
	for _, s := range tail {
		if s.WindowStart != 2*time.Second || s.WindowEnd != 2500*time.Millisecond {
			t.Fatalf("tail window spans [%v, %v), want [2s, 2.5s)", s.WindowStart, s.WindowEnd)
		}
	}
	// Nothing may be lost or double-counted: summed window counters must
	// equal the run totals exactly.
	var processed, emitted int64
	for _, samples := range obs.windows {
		for _, s := range samples {
			processed += s.Processed
			emitted += s.Emitted
		}
	}
	tr := res.Topology("chain")
	if processed != tr.TuplesProcessed {
		t.Errorf("windows saw %d processed, run counted %d", processed, tr.TuplesProcessed)
	}
	if emitted != tr.TuplesEmitted {
		t.Errorf("windows saw %d emitted, run counted %d", emitted, tr.TuplesEmitted)
	}
	var tailWork int64
	for _, s := range tail {
		tailWork += s.Processed
	}
	if tailWork == 0 {
		t.Error("partial tail window carried no work; the flush is vacuous")
	}
}

// TestReassignMidWindowFlushesPartialWindow: a migration landing inside a
// metrics window must first flush the pre-migration slice, so the samples
// attribute that work to the node it actually ran on.
func TestReassignMidWindowFlushesPartialWindow(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	topo, _ := twoNodeChain(t, 2*time.Millisecond, 8)
	a := core.NewAssignment("pair", "manual")
	a.Place(0, core.Placement{Node: ids[0], Slot: 0})
	a.Place(1, core.Placement{Node: ids[1], Slot: 0})
	sim, err := New(c, Config{
		Duration:      4 * time.Second,
		MetricsWindow: time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	obs := &collector{}
	if err := sim.SetObserver(obs); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunTo(1500 * time.Millisecond); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	next := core.NewAssignment("pair", "manual")
	next.Place(0, core.Placement{Node: ids[0], Slot: 0})
	next.Place(1, core.Placement{Node: ids[2], Slot: 0})
	if moved, err := sim.Reassign("pair", next, nil); err != nil || moved != 1 {
		t.Fatalf("Reassign = %d, %v, want 1 move", moved, err)
	}
	if _, err := sim.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Expect flushes at 1s, the partial [1s, 1.5s) slice, then the
	// remainder windows.
	if len(obs.windows) < 3 {
		t.Fatalf("only %d windows observed", len(obs.windows))
	}
	partial := obs.windows[1]
	for _, s := range partial {
		if s.WindowStart != time.Second || s.WindowEnd != 1500*time.Millisecond {
			t.Fatalf("second flush spans [%v, %v), want [1s, 1.5s)", s.WindowStart, s.WindowEnd)
		}
		if s.TaskID == 1 && s.Node != ids[1] {
			t.Errorf("pre-migration slice attributed to %s, want old node %s", s.Node, ids[1])
		}
	}
	after := obs.windows[2]
	for _, s := range after {
		if s.TaskID == 1 && s.Node != ids[2] {
			t.Errorf("post-migration window attributed to %s, want new node %s", s.Node, ids[2])
		}
	}
}

// TestWarmupWindowsZeroExpressible is the regression for the zero-value
// ambiguity: an explicit "no warmup" used to be silently overridden to 1.
// The NoWarmup sentinel must include the first window in the mean, while
// the zero value keeps defaulting to one warm-up window.
func TestWarmupWindowsZeroExpressible(t *testing.T) {
	topo := chainTopo(t, 2, 150*time.Microsecond, 100*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	run := func(warmup int) *Result {
		return runOnce(t, topo, c, core.NewResourceAwareScheduler(), Config{
			Duration:      4 * time.Second,
			MetricsWindow: time.Second,
			WarmupWindows: warmup,
		})
	}
	noWarm := run(NoWarmup)
	if noWarm.WarmupWindows != 0 {
		t.Fatalf("NoWarmup resolved to %d warm-up windows, want 0", noWarm.WarmupWindows)
	}
	series := noWarm.Topology("chain").SinkSeries
	var sum float64
	for _, v := range series {
		sum += v
	}
	if want := sum / float64(len(series)); noWarm.Topology("chain").MeanSinkThroughput != want {
		t.Errorf("0-warmup mean = %v, want %v (all %d windows, first included)",
			noWarm.Topology("chain").MeanSinkThroughput, want, len(series))
	}
	// The zero value still means the default of one warm-up window.
	def := run(0)
	if def.WarmupWindows != 1 {
		t.Errorf("zero-value WarmupWindows resolved to %d, want the default 1", def.WarmupWindows)
	}
	// The first window covers the pipeline fill, so the two means differ —
	// which is exactly why the sentinel must be expressible.
	if def.Topology("chain").MeanSinkThroughput == noWarm.Topology("chain").MeanSinkThroughput &&
		series[0] != series[1] {
		t.Error("warm-up setting had no effect on the mean")
	}
}
