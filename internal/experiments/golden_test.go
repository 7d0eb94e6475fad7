package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// updateGolden rewrites the pinned renders under testdata/golden instead
// of comparing against them:
//
//	go test ./internal/experiments -run TestGoldenDiffAllExperiments -update
//
//rstorm:global-ok test flag: set by flag parsing before any test runs, read-only afterwards
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current renders")

// goldenOpts are the short options the golden-diff harness runs every
// experiment under. Experiments with intrinsic timelines (memstress) or
// their own control windows (elasticity, consolidate) take what they need
// from these and override the rest — the harness only cares that the same
// options go in twice.
func goldenOpts() Options {
	return Options{
		Duration:      6 * time.Second,
		MetricsWindow: 2 * time.Second,
		Seed:          1,
	}
}

// checkPinned compares a render with its pinned copy in
// testdata/golden/<name>.txt, or rewrites the copy under -update.
func checkPinned(t *testing.T, name string, r *Report) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	got := r.Render()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("pinned render: %v (a new experiment needs -update once)", err)
	}
	if string(want) != got {
		t.Errorf("%s: render differs from the pinned copy:\n--- pinned ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// TestGoldenDiffAllExperiments is the repository's determinism harness:
// every registered experiment — adaptive control decisions, OOM kills,
// migrations and all — must produce byte-identical reports when run twice
// with the same options, under both kernels. The legacy kernel
// (Shards = 0) is checked run-to-run; the sharded kernel is additionally
// checked across worker counts {1, 2, NumCPU}, which must all agree —
// Shards >= 1 is pure parallelism, never a result knob (DESIGN.md §11).
// Both kernels' renders are also pinned in testdata/golden, so a change
// in any experiment's output across commits fails here too.
// It subsumes the per-experiment ad-hoc determinism checks; a new
// experiment is covered the moment it is registered in All().
func TestGoldenDiffAllExperiments(t *testing.T) {
	compare := func(t *testing.T, label string, want, got *Report) {
		t.Helper()
		// Structural equality first (catches NaN-free numeric drift in
		// fields a rendering might round away) …
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: reports diverged structurally:\nwant: %+v\ngot:  %+v", label, want, got)
		}
		// … then the rendered bytes, which is what the acceptance
		// criterion is stated in.
		if a, b := want.Render(), got.Render(); a != b {
			t.Errorf("%s: rendered reports differ:\n--- want ---\n%s\n--- got ---\n%s", label, a, b)
		}
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first, err := e.Run(goldenOpts())
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := e.Run(goldenOpts())
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			compare(t, "legacy run-to-run", first, second)
			checkPinned(t, e.ID+".legacy", first)

			shardedOpts := goldenOpts()
			shardedOpts.Shards = 1
			sharded, err := e.Run(shardedOpts)
			if err != nil {
				t.Fatalf("sharded run (shards=1): %v", err)
			}
			checkPinned(t, e.ID+".shards1", sharded)
			for _, shards := range []int{2, runtime.NumCPU()} {
				opts := goldenOpts()
				opts.Shards = shards
				got, err := e.Run(opts)
				if err != nil {
					t.Fatalf("sharded run (shards=%d): %v", shards, err)
				}
				compare(t, fmt.Sprintf("shards=%d vs shards=1", shards), sharded, got)
			}
		})
	}
}
