package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// shortOpts keeps experiment tests fast: short simulated time, small
// windows.
func shortOpts() Options {
	return Options{
		Duration:      6 * time.Second,
		MetricsWindow: 2 * time.Second,
		Seed:          1,
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	wantIDs := []string{
		"fig8a", "fig8b", "fig8c",
		"fig9a", "fig9b", "fig9c",
		"fig10", "fig12a", "fig12b", "fig13",
		"ablationA", "ablationB", "ablationC",
		"elasticity", "memstress", "consolidate", "multitenant",
		"failover", "observability",
	}
	if len(all) != len(wantIDs) {
		t.Fatalf("experiments = %d, want %d", len(all), len(wantIDs))
	}
	for i, id := range wantIDs {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].PaperClaim == "" || all[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig8a"); !ok {
		t.Error("fig8a missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("fig99 should not exist")
	}
}

// TestByIDDoesNotRebuildRegistry pins the registry fix: a ByID lookup
// must be an indexed read, not a reconstruction of the whole catalogue
// (which allocated the All() slice plus every Experiment on every call).
// A map hit and a map miss both allocate nothing.
func TestByIDDoesNotRebuildRegistry(t *testing.T) {
	ensureRegistry()
	for _, id := range []string{"fig8a", "observability", "no-such-experiment"} {
		if allocs := testing.AllocsPerRun(100, func() { ByID(id) }); allocs != 0 {
			t.Errorf("ByID(%q) allocates %.0f objects per lookup, want 0 (registry rebuilt?)", id, allocs)
		}
	}
}

// TestAllReturnsACopy: callers may sort or truncate the slice All hands
// out without corrupting the registry's paper ordering.
func TestAllReturnsACopy(t *testing.T) {
	a := All()
	a[0], a[1] = a[1], a[0]
	b := All()
	if b[0].ID != "fig8a" || b[1].ID != "fig8b" {
		t.Errorf("mutating All()'s result leaked into the registry: got %s, %s", b[0].ID, b[1].ID)
	}
}

func TestFig9aShortRun(t *testing.T) {
	// Compute-bound experiments are cheap enough to smoke-test: the
	// headline property (equal throughput, half the nodes) must hold
	// even on a short run.
	e, _ := ByID("fig9a")
	report, err := e.Run(shortOpts())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(report.Rows) < 3 {
		t.Fatalf("rows = %v", report.Rows)
	}
	thr := report.Rows[0]
	if thr.Baseline <= 0 || thr.RStorm <= 0 {
		t.Fatalf("no throughput: %+v", thr)
	}
	if ratio := thr.RStorm / thr.Baseline; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("fig9a throughput ratio = %v, want ~1.0", ratio)
	}
	nodes := report.Rows[1]
	if nodes.Baseline != 12 || nodes.RStorm != 6 {
		t.Errorf("fig9a nodes = %v vs %v, want 12 vs 6", nodes.Baseline, nodes.RStorm)
	}
	util := report.Rows[2]
	if util.RStorm <= util.Baseline {
		t.Errorf("fig9a utilization not better: %v vs %v", util.Baseline, util.RStorm)
	}
}

func TestFig9cShortRun(t *testing.T) {
	e, _ := ByID("fig9c")
	report, err := e.Run(shortOpts())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	thr := report.Rows[0]
	if thr.RStorm <= thr.Baseline {
		t.Errorf("fig9c: R-Storm %v not above default %v", thr.RStorm, thr.Baseline)
	}
}

func TestAblationBShortRun(t *testing.T) {
	e, _ := ByID("ablationB")
	report, err := e.Run(shortOpts())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cost := report.Rows[0]
	// Exact (baseline column) must be <= greedy (rstorm column).
	if cost.Baseline > cost.RStorm+1e-9 {
		t.Errorf("exact cost %v exceeds greedy %v", cost.Baseline, cost.RStorm)
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{
		ID:         "figX",
		Title:      "test figure",
		PaperClaim: "something improves",
		Window:     10 * time.Second,
		Rows: []Row{
			{Label: "throughput", Baseline: 100, RStorm: 150, ImprovementPct: 50},
			{Label: "weird", Baseline: 0, RStorm: 1, ImprovementPct: math.Inf(1)},
		},
		Series: map[string][]float64{
			"default": {100, 100},
			"r-storm": {150, 150},
		},
	}
	out := r.Render()
	for _, want := range []string{"figX", "test figure", "something improves", "throughput", "+50.0%", "default", "r-storm"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReportRenderNoSeries(t *testing.T) {
	r := &Report{ID: "x", Title: "t", PaperClaim: "c", Rows: []Row{{Label: "l"}}}
	out := r.Render()
	if strings.Contains(out, "throughput per") {
		t.Error("chart rendered without series")
	}
}

func TestSimulateHelperSurfacesSchedulingErrors(t *testing.T) {
	c, err := emulab12()
	if err != nil {
		t.Fatal(err)
	}
	b := topology.NewBuilder("impossible")
	b.SetSpout("s", 1).SetMemoryLoad(1 << 20) // 1 TB: no node can host it
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulate(c, []*topology.Topology{topo},
		core.NewResourceAwareScheduler(), microCfg(shortOpts()), nil)
	if err == nil || !strings.Contains(err.Error(), "insufficient resources") {
		t.Fatalf("err = %v, want insufficient resources", err)
	}
}
