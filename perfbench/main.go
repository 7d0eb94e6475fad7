// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the simulator, scheduler and control plane only through their
// public package functions, on four workloads modelled on the paper's
// evaluation (see README.md):
//
//	paper-emulab    Fig. 8 trio and Fig. 13 on Emulab, default Storm vs R-Storm
//	rack400         8 racks x 50 nodes, rack-balanced placement, sharded kernel
//	nimbus-churn    Nimbus + heartbeat detector under a submit/kill/crash stream
//	adaptive-chaos  adaptive loop over Emulab24 with faults, replay and tenants
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload rack400 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it runs the traced layer suite and reports the per-layer
// metrics. Either way the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "measurement time of one run, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the run record and span dump")
	commit := fs.String("commit", "", "commit of the program under test, recorded in the fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fp := fingerprint(*seed, *commit)

	var (
		res    result
		report runReport
	)
	if *traced == 1 {
		res, report = measureLayers(w, *seed, *outDir)
	} else {
		res, report = measureEndToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	}
	// A metric that could not be measured is dropped and counted as a
	// failed operation, so the result stays valid JSON and is not correct.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(res.Metrics, name)
			res.Attempted++
			res.Failed++
			res.Correct = false
			report.Failures = append(report.Failures, name+" could not be measured")
		}
	}
	report.Fingerprint = fp
	report.Workload = w.name
	report.Seed = *seed
	report.Seconds = *seconds
	report.Traced = *traced == 1
	report.Result = res
	report.print(stderr)

	recPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traced))
	if err := writeJSON(recPath, report); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing record: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Fingerprint fingerprintInfo `json:"fingerprint"`
	}{fp})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runReport is the full record of one run, written beside the span dump:
// the fingerprint, the printed result, and the human-readable notes (check
// failures, paper-claim comparisons).
type runReport struct {
	Fingerprint fingerprintInfo `json:"fingerprint"`
	Workload    string          `json:"workload"`
	Seed        int64           `json:"seed"`
	Seconds     int             `json:"seconds"`
	Traced      bool            `json:"traced"`
	Passes      int             `json:"passes"`
	Result      result          `json:"result"`
	Notes       []string        `json:"notes,omitempty"`
	Failures    []string        `json:"failures,omitempty"`
}

func (r runReport) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v passes=%d on %s (%d CPUs, GOMAXPROCS %d, %s)\n",
		r.Workload, r.Seed, r.Traced, r.Passes, r.Fingerprint.CPUModel,
		r.Fingerprint.NumCPU, r.Fingerprint.GOMAXPROCS, r.Fingerprint.GoVersion)
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n",
		r.Result.Attempted, r.Result.Failed, r.Result.Correct)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
