package experiments

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// TestCalibrationFig13 is a manual calibration aid for the multi-topology
// experiment, enabled with RSTORM_CALIBRATE=1.
func TestCalibrationFig13(t *testing.T) {
	if os.Getenv("RSTORM_CALIBRATE") == "" {
		t.Skip("set RSTORM_CALIBRATE=1 to run")
	}
	c, err := cluster.Emulab24()
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulator.Config{
		Duration:        20 * time.Second,
		MetricsWindow:   5 * time.Second,
		Seed:            1,
		MaxSpoutPending: 4096,
		TupleTimeout:    2 * time.Second,
	}
	for _, sched := range []core.Scheduler{core.EvenScheduler{}, core.NewResourceAwareScheduler()} {
		pl, err := workloads.PageLoadTopology()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := workloads.ProcessingTopology()
		if err != nil {
			t.Fatal(err)
		}
		out, err := simulate(c, []*topology.Topology{pl, pr}, sched, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("\n==== scheduler %s\n", sched.Name())
		for _, name := range []string{"pageload", "processing"} {
			tr := out.result.Topology(name)
			fmt.Printf("  %s: thr=%.0f emitted=%d delivered=%d expired=%d latency=%v nodes=%d\n",
				name, tr.MeanSinkThroughput, tr.TuplesEmitted, tr.TuplesDelivered,
				tr.TuplesExpired, tr.MeanLatency, tr.NodesUsed)
			fmt.Printf("    assignment: %s\n", out.assignments[name])
		}
		var ids []string
		for id := range out.result.NodeUtilization {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			u := out.result.NodeUtilization[cluster.NodeID(id)]
			if u > 0.9 {
				fmt.Printf("    hot node %s util=%.2f\n", id, u)
			}
		}
	}
}
