package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rstorm/internal/core"
	"rstorm/internal/des"
	"rstorm/internal/orchestra"
	"rstorm/internal/pardes"
	"rstorm/internal/simulator"
	"rstorm/internal/workloads"
)

// layerSuite collects the traced run's per-layer metrics and the outcome
// of every operation and check it ran.
type layerSuite struct {
	seed      int64
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	notes     []string
}

func (s *layerSuite) set(name string, v float64, unit string) {
	s.metrics[name] = metric{v, unit}
}

func (s *layerSuite) op(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.failed++
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// absorb adds a recorder's operations and failures.
func (s *layerSuite) absorb(r *recorder) {
	s.attempted += r.attempted
	s.failed += r.failed
	s.failures = append(s.failures, r.failures...)
}

// onePass runs one pass of w, traced or not, and returns its recorder and
// wall time.
func onePass(w workload, seed int64, traced bool) (*recorder, time.Duration) {
	r := newRecorder(seed, traced)
	r.counting = true
	t0 := time.Now()
	if _, err := w.pass(r, false); err != nil {
		r.op(false, "%s pass (traced=%v): %v", w.name, traced, err)
	}
	return r, time.Since(t0)
}

// overheadPairs is how many untraced/traced pass pairs trace.overhead
// compares on the selected workload.
const overheadPairs = 2

// measureLayers is the traced run. It does a fixed amount of work rather
// than running for a set time: it measures the tracing overhead on the
// selected workload, runs one traced pass of every workload, runs the
// layer probes, and reports every per-layer metric. The span dump and
// self-time table of the selected workload go to outDir.
func measureLayers(sel workload, seed int64, outDir string) (result, runReport) {
	s := &layerSuite{seed: seed, metrics: map[string]metric{}}
	passes := map[string]*recorder{}

	var plain, traced []float64
	for i := 0; i < overheadPairs; i++ {
		ru, du := onePass(sel, seed, false)
		rt, dt := onePass(sel, seed, true)
		s.absorb(ru)
		s.absorb(rt)
		plain = append(plain, du.Seconds())
		traced = append(traced, dt.Seconds())
		passes[sel.name] = rt
	}
	s.set("trace.overhead", median(traced)/median(plain), "ratio")
	for _, w := range workloadList() {
		if w.name == sel.name {
			continue
		}
		r, _ := onePass(w, seed, true)
		s.absorb(r)
		passes[w.name] = r
	}

	for _, w := range workloadList() {
		s.notes = append(s.notes, sortedNotes(passes[w.name].notes)...)
	}
	s.setupLayers(passes)
	s.simulatorLayers(passes["paper-emulab"], passes["rack400"], passes["adaptive-chaos"])
	s.nimbusLayers(passes["nimbus-churn"])
	s.adaptiveLayers(passes["adaptive-chaos"])
	s.scheduleStream()
	s.desHold()
	s.pardesProbes()
	s.shardSweep()
	s.orchestraSpeedup()

	sr := passes[sel.name]
	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sel.name, seed))
	if err := sr.tr.writeSpans(spanPath); err != nil {
		s.op(false, "writing spans: %v", err)
	}
	table := sr.tr.selfTimes()
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("selftime-%s-seed%d.json", sel.name, seed)), table); err != nil {
		s.op(false, "writing self-time table: %v", err)
	}
	s.notes = append(s.notes, selfTimeNotes(table, 8)...)

	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: s.metrics}
	return res, runReport{Passes: 1, Notes: s.notes, Failures: s.failures}
}

func selfTimeNotes(table []layerTime, n int) []string {
	var out []string
	for i, row := range table {
		if i == n {
			break
		}
		out = append(out, fmt.Sprintf("self time %-28s %6d spans %10.1f ms self %10.1f ms total",
			row.Name, row.Count, row.SelfMS, row.TotalMS))
	}
	return out
}

// setupLayers sums set-up spans over one traced pass of every workload.
func (s *layerSuite) setupLayers(passes map[string]*recorder) {
	var topo, clu, apply, setup time.Duration
	var allocs float64
	for _, r := range passes {
		topo += r.tr.total("topology.build")
		clu += r.tr.total("cluster.build")
		apply += r.tr.total("core.Apply")
		setup += r.tr.total("simulator.setup")
		allocs += r.layer["simulator.setup_allocs"]
	}
	s.set("topology.build_ms", ms(topo), "ms")
	s.set("cluster.build_ms", ms(clu), "ms")
	s.set("core.apply_ms", ms(apply), "ms")
	s.set("simulator.setup_ms", ms(setup), "ms")
	s.set("simulator.setup_allocs", allocs, "count")
}

// simulatorLayers derives the tuple-path metrics: host time per tuple on
// the legacy kernel (paper-emulab), result building, steady-state slice
// allocations, and the exact simulated counts of all simulator passes.
func (s *layerSuite) simulatorLayers(paper, rack, chaos *recorder) {
	if t := paper.layer["simulator.tuples_processed"]; t > 0 {
		s.set("simulator.ns_per_tuple", float64(paper.tr.total("simulator.run"))/t, "ns")
	}
	fin := append(paper.tr.durations("simulator.Finish"), rack.tr.durations("simulator.Finish")...)
	s.set("simulator.finish_ms", durQuantile(fin, 0.5)/float64(time.Millisecond), "ms")
	slices := paper.layer["simulator.slices_counted"] + rack.layer["simulator.slices_counted"]
	if slices > 0 {
		sum := paper.layer["simulator.slice_allocs_sum"] + rack.layer["simulator.slice_allocs_sum"]
		s.set("simulator.slice_allocs", sum/slices, "count")
	}
	var sent, remote float64
	for _, r := range []*recorder{paper, rack, chaos} {
		for _, k := range []string{"tuples_processed", "tuples_delivered", "tuples_replayed", "tuples_migrated"} {
			name := "simulator." + k
			s.metrics[name] = metric{s.metrics[name].Value + r.layer[name], "count"}
		}
		sent += r.layer["simulator.tuples_sent"]
		remote += r.layer["simulator.tuples_sent_remote"]
	}
	if sent > 0 {
		s.set("simulator.inter_node_fraction", remote/sent, "ratio")
	}
}

func (s *layerSuite) nimbusLayers(r *recorder) {
	p50 := func(name string) float64 { return durQuantile(r.tr.durations(name), 0.5) }
	s.set("nimbus.round_ms_p50", p50("nimbus.RunSchedulingRound")/1e6, "ms")
	s.set("nimbus.tick_ms_p50", p50("nimbus.HeartbeatTick")/1e6, "ms")
	s.set("nimbus.tick_ms_p90", durQuantile(r.tr.durations("nimbus.HeartbeatTick"), 0.9)/1e6, "ms")
	s.set("nimbus.submit_ms_p50", p50("nimbus.SubmitTopology")/1e6, "ms")
	s.set("nimbus.kill_ms_p50", p50("nimbus.KillTopology")/1e6, "ms")
	s.set("statestore.heartbeat_us_p50", p50("statestore.heartbeat")/1e3, "us")
	if steps := r.layer["nimbus.steps"]; steps > 0 {
		s.set("nimbus.pending_mean", r.layer["nimbus.pending_sum"]/steps, "count")
	}
	if live := r.layer["nimbus.live_sum"]; live > 0 {
		s.set("nimbus.admit_ratio", r.layer["nimbus.admitted_sum"]/live, "ratio")
	}
	s.set("nimbus.failovers", r.layer["nimbus.failovers"], "count")
}

func (s *layerSuite) adaptiveLayers(r *recorder) {
	runs := r.layer["adaptive.runs"]
	if runs == 0 {
		return
	}
	s.set("adaptive.loop_s", durQuantile(r.tr.durations("adaptive.Loop.Run"), 0.5)/1e9, "s")
	s.set("adaptive.epochs", r.layer["adaptive.epochs"], "count")
	s.set("adaptive.ms_per_epoch", r.layer["adaptive.loop_ns"]/1e6/r.layer["adaptive.epochs"], "ms")
	s.set("adaptive.rebalances", r.layer["adaptive.rebalances"], "count")
	s.set("adaptive.moves", r.layer["adaptive.moves"], "count")
}

// scheduleCalls is the length of the direct Schedule stream.
const scheduleCalls = 200

// scheduleStream times direct R-Storm Schedule calls on the churn
// workload's topology stream against an empty 400-node cluster.
func (s *layerSuite) scheduleStream() {
	c, err := rackCluster()
	if err != nil {
		s.op(false, "schedule stream cluster: %v", err)
		return
	}
	state := core.NewGlobalState(c)
	sched := core.NewResourceAwareScheduler()
	var times []time.Duration
	fails := 0
	for k := 0; k < scheduleCalls; k++ {
		topo, err := workloads.RandomTopology(subSeed(s.seed, 1000+k), workloads.RandomParams{})
		if err != nil {
			s.op(false, "schedule stream topology %d: %v", k, err)
			continue
		}
		t0 := time.Now()
		a, err := sched.Schedule(topo, c, state)
		times = append(times, time.Since(t0))
		ok := err == nil && a.Complete(topo)
		if !ok {
			fails++
		}
		s.op(ok, "schedule stream call %d: %v", k, err)
	}
	s.set("core.schedule_ms_p50", durQuantile(times, 0.5)/1e6, "ms")
	s.set("core.schedule_ms_p90", durQuantile(times, 0.9)/1e6, "ms")
	s.set("core.schedule_calls", float64(len(times)), "count")
	s.set("core.schedule_fail_ratio", float64(fails)/float64(len(times)), "ratio")
}

// holdEvent is the hold model's only event: firing reschedules itself
// after the next delay, keeping the pending population constant.
type holdEvent struct{ h *holdModel }

func (e *holdEvent) Fire() {
	h := e.h
	h.eng.ScheduleEvent(h.delays[h.next&(len(h.delays)-1)], e)
	h.next++
}

type holdModel struct {
	eng    *des.Engine
	delays []time.Duration // length a power of two
	next   int
}

// holdNs runs the classic hold model over des.Engine at a standing
// population: pop the earliest event, schedule it again after a delay.
// Constant delays keep the queue FIFO (wire latencies); exponential delays
// mix it (service times). It returns ns per hold and heap allocations per
// event.
func holdNs(pop int, exponential bool, seed int64) (float64, float64) {
	const mean = time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	h := &holdModel{eng: des.NewEngine(), delays: make([]time.Duration, 4096)}
	for i := range h.delays {
		h.delays[i] = mean
		if exponential {
			h.delays[i] = time.Duration(rng.ExpFloat64() * float64(mean))
		}
	}
	for i := 0; i < pop; i++ {
		h.eng.ScheduleEvent(time.Duration(rng.Int63n(int64(mean))), &holdEvent{h: h})
	}
	const warm, steps = 20000, 200000
	for i := 0; i < warm; i++ {
		h.eng.Step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		h.eng.Step()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d) / steps, float64(after.Mallocs-before.Mallocs) / steps
}

// holdReps is how many times each hold configuration is timed; the
// median is reported.
const holdReps = 3

func (s *layerSuite) desHold() {
	var allocs []float64
	for _, mix := range []struct {
		name string
		exp  bool
	}{{"fifo", false}, {"exp", true}} {
		for _, pop := range []int{64, 350, 4096} {
			var ns []float64
			for i := 0; i < holdReps; i++ {
				v, a := holdNs(pop, mix.exp, subSeed(s.seed, pop))
				ns = append(ns, v)
				allocs = append(allocs, a)
			}
			s.set(fmt.Sprintf("des.hold_%s_ns.p%d", mix.name, pop), median(ns), "ns")
		}
	}
	s.set("des.allocs_per_event", median(allocs), "count")
}

// idleLane is a pardes lane with no events, so Coordinator.Advance
// measures only the window barrier.
type idleLane struct{}

func (idleLane) PeekTime() (time.Duration, bool) { return 0, false }
func (idleLane) AdvanceTo(time.Duration) int     { return 0 }

func (s *layerSuite) pardesProbes() {
	lanes := make([]pardes.Lane, rackCount)
	for i := range lanes {
		lanes[i] = idleLane{}
	}
	coord := pardes.NewCoordinator(lanes, runtime.NumCPU())
	const windows = 20000
	t0 := time.Now()
	for i := 1; i <= windows; i++ {
		coord.Advance(time.Duration(i) * time.Microsecond)
	}
	s.set("pardes.window_us", float64(time.Since(t0))/windows/1e3, "us")
	coord.Stop()

	var ring pardes.Ring[uint64]
	const rounds, batch = 20000, 64
	var sum uint64
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for j := 0; j < batch; j++ {
			ring.Push(uint64(j))
		}
		for ring.Len() > 0 {
			sum += ring.Pop()
		}
	}
	s.set("pardes.ring_ns_per_msg", float64(time.Since(t0))/(rounds*batch), "ns")
	s.op(sum == rounds*batch*(batch-1)/2, "pardes ring returned the wrong messages")
}

// The shard sweep visits each shard count sweepRounds times, alternating
// the order, with sweepDuration of simulated time per run.
const (
	sweepRounds   = 2
	sweepDuration = time.Second
)

// shardSweep runs rack400 at Shards 0, 1 and nproc and reports the
// parallel speedup (nproc over 1) and the sharded kernel's overhead
// (1 over 0), both in simulated tuples per host second. Shards=1 and
// Shards=nproc must produce identical results.
func (s *layerSuite) shardSweep() {
	counts := []int{0, 1, runtime.NumCPU()}
	tps := map[int][]float64{}
	digests := map[int]uint64{}
	for round := 0; round < sweepRounds; round++ {
		order := counts
		if round%2 == 1 {
			order = []int{counts[2], counts[1], counts[0]}
		}
		for _, shards := range order {
			r := newRecorder(s.seed, false)
			sim, loaded, err := r.setupRack(shards, sweepDuration)
			if err != nil {
				s.op(false, "shard sweep set-up shards=%d: %v", shards, err)
				continue
			}
			s.set("pardes.lanes_loaded", loaded, "ratio")
			if loaded != 1 {
				s.op(false, "shard sweep: placement loads %.3f of the lanes, want 1.0", loaded)
				return
			}
			t0 := time.Now()
			res, err := sim.Run()
			d := time.Since(t0)
			if err != nil {
				s.op(false, "shard sweep shards=%d: %v", shards, err)
				continue
			}
			tps[shards] = append(tps[shards], float64(processed(res))/d.Seconds())
			dg := digest(res)
			if prev, ok := digests[shards]; ok {
				s.op(prev == dg, "shard sweep shards=%d: digest differs between repeats", shards)
			} else {
				digests[shards] = dg
				s.op(true, "")
			}
		}
	}
	n := runtime.NumCPU()
	if n > 1 {
		s.op(digests[1] == digests[n], "shard sweep: Shards=1 and Shards=%d results differ", n)
	}
	speedup := median(tps[n]) / median(tps[1])
	s.set("pardes.speedup", speedup, "ratio")
	s.set("simulator.shard_overhead", median(tps[1])/median(tps[0]), "ratio")
	s.notes = append(s.notes, fmt.Sprintf("shard sweep tuples/s: shards=0 %.0f, shards=1 %.0f, shards=%d %.0f (speedup %.2fx)",
		median(tps[0]), median(tps[1]), n, median(tps[n]), speedup))
}

// orchestraSpeedup runs paper-emulab's eight simulations as orchestra
// cells at one worker and at nproc workers. The merged output must be
// identical; the ratio of wall times is the matrix speedup.
func (s *layerSuite) orchestraSpeedup() {
	var cells []orchestra.Cell
	for ci, pc := range paperCases() {
		for si := range paperSchedulers() {
			ci, si, pc := ci, si, pc
			cells = append(cells, orchestra.Cell{
				Key: fmt.Sprintf("%s/%d", pc.figure, si),
				Run: func(context.Context) (string, error) {
					r := newRecorder(s.seed, false)
					cfg := simulator.Config{
						Duration:      paperDuration,
						MetricsWindow: paperWindow,
						TupleTimeout:  pc.timeout,
						Seed:          subSeed(s.seed, 2*ci+si),
					}
					sim, _, err := r.setupScheduled(pc, paperSchedulers()[si], cfg)
					if err != nil {
						return "", err
					}
					res, err := sim.Run()
					if err != nil {
						return "", err
					}
					var b strings.Builder
					writeResult(&b, res)
					return b.String(), nil
				},
			})
		}
	}
	var walls [2]float64
	var renders [2]string
	for i, workers := range []int{1, runtime.NumCPU()} {
		t0 := time.Now()
		res, err := orchestra.Run(context.Background(), cells, orchestra.Options{Workers: workers})
		walls[i] = time.Since(t0).Seconds()
		if err != nil {
			s.op(false, "orchestra workers=%d: %v", workers, err)
			return
		}
		s.op(res.Failed() == 0, "orchestra workers=%d: %d cells failed", workers, res.Failed())
		renders[i] = res.Render()
	}
	s.op(renders[0] == renders[1], "orchestra output differs between 1 and %d workers", runtime.NumCPU())
	s.set("orchestra.speedup", walls[0]/walls[1], "ratio")
}
