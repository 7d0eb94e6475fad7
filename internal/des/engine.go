// Package des is a deterministic discrete-event simulation kernel: a
// priority queue of timestamped events and a virtual clock. Events at
// equal timestamps fire in scheduling order, so a simulation driven by a
// seeded RNG is fully reproducible.
//
// There is one way to schedule: ScheduleEvent/ScheduleEventAt with a typed
// Event. The engine stores no closures, so a caller that needs a one-off
// callback defines a small type with a Fire method.
//
// Pending events live in two stores. An event scheduled for the current
// instant (a zero delay, or a time in the past clamped to now) is appended
// to a FIFO; every later event goes into a hand-rolled 4-ary min-heap of
// event values stored inline in a single slice — no per-event boxing, no
// interface round-trips through container/heap, and no pointer chasing
// during sift operations. About half of a loaded simulation's events are
// same-instant hand-offs, and the FIFO spares each of them a full sift up
// and down.
//
// The merge preserves the single-heap (at, seq) order by construction.
// Every FIFO entry has at == now, and seq only grows, so the FIFO is sorted
// by (at, seq) in append order. The heap top has at >= now. Each Step fires
// whichever of the FIFO head and the heap top is smaller by (at, seq), so a
// heap event at the current instant with a smaller seq still fires first.
// The clock only moves past now once the FIFO is empty, so the invariant
// at == now holds for every entry the FIFO keeps.
//
// Both stores recycle their slots in place (the slices keep their
// capacity), so once they have grown to the simulation's peak event
// population, scheduling is allocation-free: the backing arrays are the
// free list.
package des

import (
	"time"
)

// Event is a simulation event; Fire runs when the event's time comes.
// Hot paths schedule pooled Event records, keeping steady-state event
// dispatch allocation-free.
type Event interface {
	Fire()
}

// Engine owns the virtual clock and the pending event queue. It is not
// safe for concurrent use: a simulation runs single-threaded, which is what
// makes it deterministic.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   eventQueue   // events scheduled for a later instant
	instant instantQueue // events at now, in seq order
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue.events) + e.instant.len() }

// ScheduleEvent queues a typed event after delay. Negative delays are
// clamped to zero. The Engine holds only the interface value; callers own
// the event's storage and may pool it once Fire has run.
//
//rstorm:hotpath
func (e *Engine) ScheduleEvent(delay time.Duration, ev Event) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleEventAt(e.now+delay, ev)
}

// ScheduleEventAt queues a typed event at an absolute virtual time. Times
// in the past are clamped to the current time.
//
//rstorm:hotpath
func (e *Engine) ScheduleEventAt(at time.Duration, ev Event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if at == e.now {
		e.instant.push(event{at: at, seq: e.seq, ev: ev})
		return
	}
	e.queue.push(event{at: at, seq: e.seq, ev: ev})
}

// pop removes and returns the earliest pending event by (at, seq), and
// whether one was pending. On a timestamp tie between the FIFO head and the
// heap top, the smaller seq wins, exactly as within the heap.
//
//rstorm:hotpath
func (e *Engine) pop() (event, bool) {
	if e.instant.len() > 0 && (len(e.queue.events) == 0 || !e.queue.events[0].before(e.instant.peek())) {
		return e.instant.pop(), true
	}
	if len(e.queue.events) == 0 {
		return event{}, false
	}
	return e.queue.pop(), true
}

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
//
//rstorm:hotpath
func (e *Engine) Step() bool {
	ev, ok := e.pop()
	if !ok {
		return false
	}
	e.now = ev.at
	ev.ev.Fire()
	return true
}

// RunUntil processes events with timestamps <= until, then advances the
// clock to until. Events scheduled during processing are processed too if
// they fall within the horizon. It returns the number of events processed.
func (e *Engine) RunUntil(until time.Duration) int {
	processed := 0
	for at, ok := e.PeekTime(); ok && at <= until; at, ok = e.PeekTime() {
		e.Step()
		processed++
	}
	if e.now < until {
		e.now = until
	}
	return processed
}

// Drain processes every pending event regardless of time, returning the
// count. Useful in tests; simulations normally use RunUntil.
func (e *Engine) Drain() int {
	processed := 0
	for e.Step() {
		processed++
	}
	return processed
}

// PeekTime returns the timestamp of the earliest pending event without
// firing it, and whether any event is pending. A conservative parallel
// loop uses it to pick the next safe window without disturbing the queue.
//
// RunUntil and AdvanceTo read both stores through it. A non-empty FIFO
// holds the earliest timestamp: its entries are at now, and the heap holds
// nothing before now.
//
//rstorm:hotpath
func (e *Engine) PeekTime() (time.Duration, bool) {
	if e.instant.len() > 0 {
		return e.instant.peek().at, true
	}
	if len(e.queue.events) > 0 {
		return e.queue.events[0].at, true
	}
	return 0, false
}

// AdvanceTo processes events with timestamps strictly before horizon, then
// advances the clock to horizon. It is the half-open-window complement of
// RunUntil (which is inclusive): a sharded engine advancing all shards
// through the safe window [now, horizon) leaves events at exactly horizon
// pending, so cross-shard messages timestamped at the window boundary are
// merged before any shard processes past it. Events scheduled during
// processing are processed too if they fall inside the window. Returns the
// number of events processed. A horizon at or before the current clock
// processes nothing and leaves the clock unchanged.
func (e *Engine) AdvanceTo(horizon time.Duration) int {
	processed := 0
	for at, ok := e.PeekTime(); ok && at < horizon; at, ok = e.PeekTime() {
		e.Step()
		processed++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return processed
}

// PendingEvent is one queued event surrendered by TakePending.
type PendingEvent struct {
	At time.Duration
	Ev Event
}

// TakePending removes and returns every queued event in (time, scheduling)
// order, leaving the queue empty and the clock unchanged. A sharded
// simulator uses it between epochs to re-home pending events after task
// placements change; rescheduling the returned events in slice order onto
// any Engine preserves their relative firing order.
func (e *Engine) TakePending() []PendingEvent {
	out := make([]PendingEvent, 0, e.Pending())
	for {
		ev, ok := e.pop()
		if !ok {
			return out
		}
		out = append(out, PendingEvent{At: ev.at, Ev: ev.ev})
	}
}

// event is one scheduled event, stored by value: 32 bytes on 64-bit
// platforms, half a cache line.
type event struct {
	at  time.Duration
	seq uint64
	ev  Event
}

// before reports strict heap order. seq strictly increases across
// ScheduleEvent* calls, so (at, seq) is a total order and equal-timestamp
// events pop in exact FIFO scheduling order regardless of heap shape.
//
//rstorm:hotpath
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of event values ordered by (at, seq).
// 4-ary beats binary here: sift-down depth halves, and the four children
// sit in two adjacent cache lines. It holds only events scheduled for a
// time later than the clock at scheduling; events for the current instant
// go to the Engine's instantQueue, and Engine.pop merges the two by
// (at, seq) — see the package doc for why the merge keeps heap order.
type eventQueue struct {
	events []event
}

//rstorm:hotpath
func (q *eventQueue) push(ev event) {
	q.events = append(q.events, ev)
	q.siftUp(len(q.events) - 1)
}

//rstorm:hotpath
func (q *eventQueue) pop() event {
	es := q.events
	top := es[0]
	n := len(es) - 1
	es[0] = es[n]
	es[n] = event{} // release the ev reference; capacity is retained
	q.events = es[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

//rstorm:hotpath
func (q *eventQueue) siftUp(i int) {
	es := q.events
	ev := es[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = ev
}

//rstorm:hotpath
func (q *eventQueue) siftDown(i int) {
	es := q.events
	n := len(es)
	ev := es[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if es[c].before(&es[best]) {
				best = c
			}
		}
		if !es[best].before(&ev) {
			break
		}
		es[i] = es[best]
		i = best
	}
	es[i] = ev
}

// instantQueue is the FIFO of events scheduled for the current instant.
// Entries arrive with strictly increasing seq and equal at, so append order
// is (at, seq) order. events[head:] are pending; popped slots are zeroed so
// no Event reference is retained, and the slice is reset to [:0] whenever
// it drains, keeping its capacity.
type instantQueue struct {
	events []event
	head   int
}

//rstorm:hotpath
func (q *instantQueue) len() int { return len(q.events) - q.head }

//rstorm:hotpath
func (q *instantQueue) peek() *event { return &q.events[q.head] }

//rstorm:hotpath
func (q *instantQueue) push(ev event) {
	if len(q.events) == cap(q.events) && q.head > 0 {
		// A cascade that never lets the FIFO drain would otherwise grow the
		// slice past its live population: slide the live tail down over the
		// popped prefix instead of reallocating.
		n := copy(q.events, q.events[q.head:])
		clear(q.events[n:])
		q.events = q.events[:n]
		q.head = 0
	}
	q.events = append(q.events, ev)
}

//rstorm:hotpath
func (q *instantQueue) pop() event {
	ev := q.events[q.head]
	q.events[q.head] = event{} // release the ev reference
	q.head++
	if q.head == len(q.events) {
		q.events = q.events[:0]
		q.head = 0
	}
	return ev
}
