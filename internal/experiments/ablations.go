package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/metrics"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// AblationTaskOrdering measures the contribution of Algorithm 3's BFS task
// ordering (DESIGN.md Ablation A): R-Storm with its BFS ordering versus
// R-Storm with a seeded random ordering. The workload is a linear pipeline
// with local-or-shuffle groupings — the production pattern where
// colocating adjacent components' tasks translates directly into
// intra-process traffic. BFS ordering packs each chain slice onto one
// node; a random ordering packs arbitrary task quadruples, so most
// hand-offs fall back to remote shuffle.
func AblationTaskOrdering() Experiment {
	return Experiment{
		ID:         "ablationA",
		Title:      "Ablation A: BFS task ordering vs random ordering",
		PaperClaim: "(design choice §4.1.1 — no paper number)",
		Run: func(o Options) (*Report, error) {
			c, err := emulab12()
			if err != nil {
				return nil, err
			}
			randomOrdering := func(tp *topology.Topology) []topology.Task {
				tasks := tp.Tasks()
				rng := rand.New(rand.NewSource(42))
				rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
				return tasks
			}
			buildTopo := func() (*topology.Topology, error) {
				prof := topology.ExecProfile{CPUPerTuple: 200 * time.Microsecond, TupleBytes: 200}
				b := topology.NewBuilder("linear-local")
				b.SetMaxSpoutPending(23)
				b.SetSpout("spout", 6).SetCPULoad(10).SetMemoryLoad(512).SetProfile(prof)
				b.SetBolt("bolt1", 6).LocalOrShuffleGrouping("spout").
					SetCPULoad(10).SetMemoryLoad(512).SetProfile(prof)
				b.SetBolt("bolt2", 6).LocalOrShuffleGrouping("bolt1").
					SetCPULoad(10).SetMemoryLoad(512).SetProfile(prof)
				b.SetBolt("bolt3", 6).LocalOrShuffleGrouping("bolt2").
					SetCPULoad(10).SetMemoryLoad(512).SetProfile(prof)
				return b.Build()
			}
			topoBFS, err := buildTopo()
			if err != nil {
				return nil, err
			}
			topoRnd, err := buildTopo()
			if err != nil {
				return nil, err
			}
			bfs, err := simulate(c, []*topology.Topology{topoBFS},
				core.NewResourceAwareScheduler(), microCfg(o), nil)
			if err != nil {
				return nil, fmt.Errorf("ablationA bfs: %w", err)
			}
			rnd, err := simulate(c, []*topology.Topology{topoRnd},
				core.NewResourceAwareScheduler(core.WithTaskOrdering(randomOrdering)), microCfg(o), nil)
			if err != nil {
				return nil, fmt.Errorf("ablationA random: %w", err)
			}
			bfsCost := bfs.assignments[topoBFS.Name()].NetworkCost(topoBFS, c)
			rndCost := rnd.assignments[topoRnd.Name()].NetworkCost(topoRnd, c)
			bt := bfs.result.Topology(topoBFS.Name()).MeanSinkThroughput
			rt := rnd.result.Topology(topoRnd.Name()).MeanSinkThroughput
			return &Report{
				ID:         "ablationA",
				Title:      "BFS task ordering vs random ordering (network-bound Linear)",
				PaperClaim: "BFS ordering colocates adjacent components (§4.1.1)",
				Window:     microCfg(o).MetricsWindow,
				Series: map[string][]float64{
					"bfs-ordering":    bfs.result.Topology(topoBFS.Name()).SinkSeries,
					"random-ordering": rnd.result.Topology(topoRnd.Name()).SinkSeries,
				},
				Rows: []Row{
					{
						// Baseline = random ordering, RStorm = BFS.
						Label:          "schedule network cost (lower is better)",
						Baseline:       rndCost,
						RStorm:         bfsCost,
						ImprovementPct: metrics.ImprovementPct(bfsCost, rndCost),
					},
					{
						Label:          fmt.Sprintf("throughput (tuples/%s)", microCfg(o).MetricsWindow),
						Baseline:       rt,
						RStorm:         bt,
						ImprovementPct: metrics.ImprovementPct(rt, bt),
					},
				},
			}, nil
		},
	}
}

// AblationGreedyVsExact bounds the greedy heuristic's optimality gap
// (DESIGN.md Ablation B) on an instance small enough for branch-and-bound:
// a 6-task chain on a 4-node, 2-rack cluster, compared on the exact
// solver's objective.
func AblationGreedyVsExact() Experiment {
	return Experiment{
		ID:         "ablationB",
		Title:      "Ablation B: greedy node selection vs exact branch-and-bound",
		PaperClaim: "(QM3DKP is NP-hard; greedy must be near-optimal to justify §4)",
		Run: func(o Options) (*Report, error) {
			c, err := cluster.TwoRack(2, 2, cluster.EmulabNodeSpec())
			if err != nil {
				return nil, err
			}
			b := topology.NewBuilder("chain6")
			b.SetSpout("s", 2).SetCPULoad(30).SetMemoryLoad(600)
			b.SetBolt("m", 2).ShuffleGrouping("s").SetCPULoad(30).SetMemoryLoad(600)
			b.SetBolt("z", 2).ShuffleGrouping("m").SetCPULoad(30).SetMemoryLoad(600)
			topo, err := b.Build()
			if err != nil {
				return nil, err
			}
			greedy, err := core.NewResourceAwareScheduler().Schedule(topo, c, core.NewGlobalState(c))
			if err != nil {
				return nil, fmt.Errorf("greedy: %w", err)
			}
			exact, err := core.NewExactScheduler().Schedule(topo, c, core.NewGlobalState(c))
			if err != nil {
				return nil, fmt.Errorf("exact: %w", err)
			}
			gCost := greedy.NetworkCost(topo, c)
			eCost := exact.NetworkCost(topo, c)
			return &Report{
				ID:         "ablationB",
				Title:      "Greedy vs exact on a 6-task chain (4 nodes)",
				PaperClaim: "greedy should be near the exact optimum",
				Rows: []Row{
					{
						// Baseline = exact optimum, RStorm = greedy.
						Label:          "schedule network cost (lower is better)",
						Baseline:       eCost,
						RStorm:         gCost,
						ImprovementPct: metrics.ImprovementPct(gCost, eCost),
					},
					{
						Label:    "nodes used",
						Baseline: float64(len(exact.NodesUsed())),
						RStorm:   float64(len(greedy.NodesUsed())),
					},
				},
			}, nil
		},
	}
}

// AblationWeights sweeps the soft-constraint weight ratio (DESIGN.md
// Ablation C). On a homogeneous cluster the bandwidth axis is the only
// tiebreaker and every weight yields the same schedule, so this ablation
// uses a heterogeneous cluster: the remote rack's nodes have slightly
// less memory, making them *tighter* fits that the memory term prefers.
// A small bandwidth weight lets the scheduler chase those tight fits
// across the rack boundary; a large weight keeps the topology in the ref
// rack. The sweep measures both schedule network cost and throughput.
func AblationWeights() Experiment {
	return Experiment{
		ID:         "ablationC",
		Title:      "Ablation C: soft-constraint weight sensitivity",
		PaperClaim: "(§4: weights let users decide which constraints are more valued)",
		Run: func(o Options) (*Report, error) {
			near := cluster.NodeSpec{
				Capacity: resource.Vector{CPU: 100, MemoryMB: 2048, Bandwidth: 100},
			}
			far := cluster.NodeSpec{
				Capacity: resource.Vector{CPU: 100, MemoryMB: 1792, Bandwidth: 100},
			}
			cb := cluster.NewBuilder()
			for i := 0; i < 6; i++ {
				cb.AddNode(cluster.NodeID(fmt.Sprintf("near-%d", i)), "rack-near", near)
			}
			for i := 0; i < 6; i++ {
				cb.AddNode(cluster.NodeID(fmt.Sprintf("far-%d", i)), "rack-far", far)
			}
			c, err := cb.Build()
			if err != nil {
				return nil, err
			}
			scales := []struct {
				label string
				scale float64
			}{
				{"bandwidth-weight x0", 0},
				{"bandwidth-weight x1 (default)", 1},
				{"bandwidth-weight x100", 100},
				{"bandwidth-weight x1000", 1000},
			}
			report := &Report{
				ID:         "ablationC",
				Title:      "Throughput vs bandwidth-weight scale (network-bound Linear)",
				PaperClaim: "locality weight should matter for network-bound workloads",
				Window:     microCfg(o).MetricsWindow,
				Series:     map[string][]float64{},
			}
			var defaultThroughput float64
			results := make([]float64, len(scales))
			costs := make([]float64, len(scales))
			for i, sc := range scales {
				topo, err := workloads.LinearTopology(workloads.NetworkBound)
				if err != nil {
					return nil, err
				}
				w := resource.DefaultWeights()
				w.Bandwidth *= sc.scale
				out, err := simulate(c, []*topology.Topology{topo},
					core.NewResourceAwareScheduler(core.WithWeights(w)), microCfg(o), nil)
				if err != nil {
					return nil, fmt.Errorf("ablationC %s: %w", sc.label, err)
				}
				tp := out.result.Topology(topo.Name()).MeanSinkThroughput
				results[i] = tp
				costs[i] = out.assignments[topo.Name()].NetworkCost(topo, c)
				if sc.scale == 1 {
					defaultThroughput = tp
				}
				report.Series[sc.label] = out.result.Topology(topo.Name()).SinkSeries
			}
			for i, sc := range scales {
				report.Rows = append(report.Rows, Row{
					Label:          sc.label + " throughput",
					Baseline:       defaultThroughput,
					RStorm:         results[i],
					ImprovementPct: metrics.ImprovementPct(defaultThroughput, results[i]),
				})
				report.Rows = append(report.Rows, Row{
					Label:    sc.label + " network cost",
					Baseline: costs[i],
					RStorm:   costs[i],
				})
			}
			return report, nil
		},
	}
}
