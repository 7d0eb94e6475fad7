package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input set (README.md gives the reason for
// each). pass runs the workload's fixed work once: it builds everything
// (timed as set-up), then, unless setupOnly, runs the measured phase,
// recording steps, work and checks into r. It returns the pass's set-up
// time.
type workload struct {
	name string
	pass func(r *recorder, setupOnly bool) (time.Duration, error)
}

func workloadList() []workload {
	return []workload{
		{"paper-emulab", paperEmulabPass},
		{"rack400", rack400Pass},
		{"nimbus-churn", nimbusChurnPass},
		{"adaptive-chaos", adaptiveChaosPass},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloadList() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// recorder accumulates one run's measurements across passes.
type recorder struct {
	seed int64
	tr   *tracer
	heap heapSampler
	// pass is the index of the running pass; counting is false while a
	// pass's timings are not to enter the metrics (set-up repetitions).
	pass     int
	counting bool

	steps  []time.Duration // host time per step: a RunTo slice, a control step or a loop run
	work   int64           // work items completed in measured phases
	active time.Duration   // host time of the measured phases

	attempted, failed int
	failures          []string
	notes             map[string]string
	digests           map[string]uint64

	// layer holds per-layer values a traced pass reports beside its
	// spans: exact simulated counts and allocation counts.
	layer map[string]float64
}

func newRecorder(seed int64, traced bool) *recorder {
	return &recorder{
		seed:    seed,
		tr:      newTracer(traced),
		heap:    newHeapSampler(),
		notes:   map[string]string{},
		digests: map[string]uint64{},
		layer:   map[string]float64{},
	}
}

// op records one attempted operation (a simulation run, a control step)
// and whether it and every output check on it succeeded.
func (r *recorder) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 50 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// sameDigest reports whether d matches the digest key had on the run's
// first pass, and remembers it on the first pass.
func (r *recorder) sameDigest(key string, d uint64) bool {
	prev, seen := r.digests[key]
	if !seen {
		r.digests[key] = d
		return true
	}
	return prev == d
}

// note keeps one human-readable line per key (the latest wins).
func (r *recorder) note(key, format string, args ...any) {
	r.notes[key] = fmt.Sprintf(format, args...)
}

// step records one step's host time and samples the heap after it.
func (r *recorder) step(d time.Duration) {
	if r.counting {
		r.steps = append(r.steps, d)
	}
	r.heap.sample()
}

// addWork credits completed work and the host time it took.
func (r *recorder) addWork(items int64, d time.Duration) {
	if r.counting {
		r.work += items
		r.active += d
	}
}

// addLayer accumulates a per-layer value.
func (r *recorder) addLayer(name string, v float64) { r.layer[name] += v }

// heapSampler tracks the highest heap-in-use seen at sample points. It
// reads runtime/metrics, which neither stops the world nor forces a GC.
type heapSampler struct {
	samples []metrics.Sample
	peak    uint64
}

func newHeapSampler() heapSampler {
	return heapSampler{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	var inUse uint64
	for _, s := range h.samples {
		if s.Value.Kind() == metrics.KindUint64 {
			inUse += s.Value.Uint64()
		}
	}
	if inUse > h.peak {
		h.peak = inUse
	}
}

// setupReps is how many extra set-ups a run times before its passes, so
// setup_s is a median over enough samples even when few passes fit.
const setupReps = 5

// measureEndToEnd runs the workload untraced for the budget and reports
// every end-to-end metric.
func measureEndToEnd(w workload, seed int64, budget time.Duration) (result, runReport) {
	r := newRecorder(seed, false)
	var setups, walls []float64
	for i := 0; i < setupReps; i++ {
		s, err := w.pass(r, true)
		if err != nil {
			r.op(false, "%s set-up: %v", w.name, err)
			continue
		}
		setups = append(setups, s.Seconds())
	}
	r.counting = true
	r.heap.peak = 0
	var rates []float64 // work per second of each pass's measured phase
	var heaps []float64 // peak heap in use of each pass, in MB
	start := time.Now()
	for i := 0; ; i++ {
		r.pass = i
		work, active := r.work, r.active
		t0 := time.Now()
		s, err := w.pass(r, false)
		wall := time.Since(t0)
		if err != nil {
			r.op(false, "%s pass %d: %v", w.name, i, err)
			break
		}
		setups = append(setups, s.Seconds())
		walls = append(walls, wall.Seconds())
		heaps = append(heaps, float64(r.heap.peak)/(1<<20))
		r.heap.peak = 0
		if d := r.active - active; d > 0 {
			rates = append(rates, float64(r.work-work)/d.Seconds())
		}
		// Stop when another pass of median length would overrun.
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > budget {
			break
		}
	}
	res := result{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if len(walls) > 0 && len(r.steps) > 0 && len(rates) > 0 {
		stepMS := make([]float64, len(r.steps))
		for i, d := range r.steps {
			stepMS[i] = ms(d)
		}
		sort.Float64s(stepMS)
		res.Metrics["work_per_s"] = metric{median(rates), "1/s"}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["step_ms_p50"] = metric{quantileSorted(stepMS, 0.50), "ms"}
		res.Metrics["step_ms_p90"] = metric{quantileSorted(stepMS, 0.90), "ms"}
		res.Metrics["peak_heap_mb"] = metric{median(heaps), "MB"}
	} else {
		r.op(false, "%s: no pass completed", w.name)
		res.Attempted, res.Failed = r.attempted, r.failed
	}
	res.Correct = res.Failed == 0
	rep := runReport{Passes: len(walls), Failures: r.failures, Notes: sortedNotes(r.notes)}
	rep.Notes = append(rep.Notes, fmt.Sprintf("steps=%d work=%d active=%.3fs pass walls %.3f s", len(r.steps), r.work, r.active.Seconds(), walls))
	return res, rep
}

func sortedNotes(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates linearly between the closest ranks of an
// ascending sample.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durQuantile(d []time.Duration, q float64) float64 {
	s := make([]float64, len(d))
	for i, v := range d {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return quantileSorted(s, q)
}
