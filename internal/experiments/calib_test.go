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

// TestCalibrationDebug is a manual calibration aid, enabled with
// RSTORM_CALIBRATE=1. It prints link utilizations and placements for the
// network-bound micro-benchmarks.
func TestCalibrationDebug(t *testing.T) {
	if os.Getenv("RSTORM_CALIBRATE") == "" {
		t.Skip("set RSTORM_CALIBRATE=1 to run")
	}
	c, err := emulab12()
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulator.Config{Duration: 15 * time.Second, MetricsWindow: 5 * time.Second, Seed: 1}

	cases := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"linear", func() (*topology.Topology, error) { return workloads.LinearTopology(workloads.NetworkBound) }},
		{"diamond", func() (*topology.Topology, error) { return workloads.DiamondTopology(workloads.NetworkBound) }},
		{"star", func() (*topology.Topology, error) { return workloads.StarTopology(workloads.NetworkBound) }},
	}
	for _, tc := range cases {
		for _, sched := range []core.Scheduler{core.EvenScheduler{}, core.NewResourceAwareScheduler()} {
			topo, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			out, err := simulate(c, []*topology.Topology{topo}, sched, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := out.result.Topology(topo.Name())
			fmt.Printf("\n== %s / %s: thr=%.0f/window emitted=%d delivered=%d latency=%v nodes=%d\n",
				tc.name, sched.Name(), tr.MeanSinkThroughput, tr.TuplesEmitted, tr.TuplesDelivered,
				tr.MeanLatency, tr.NodesUsed)
			var ids []string
			for id := range out.result.NICUtilization {
				ids = append(ids, string(id))
			}
			sort.Strings(ids)
			for _, id := range ids {
				nu := out.result.NICUtilization[cluster.NodeID(id)]
				if nu > 0.01 {
					fmt.Printf("   nic %-10s util=%.2f\n", id, nu)
				}
			}
			fmt.Printf("   assignment: %s\n", out.assignments[topo.Name()])
		}
	}
}
