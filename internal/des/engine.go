// Package des is a deterministic discrete-event simulation kernel: a
// priority queue of timestamped events and a virtual clock. Events at
// equal timestamps fire in scheduling order, so a simulation driven by a
// seeded RNG is fully reproducible.
//
// There is one kind of event: a typed Event, scheduled with
// ScheduleEvent/ScheduleEventAt or through a fixed-delay Channel. The
// engine stores no closures, so a caller that needs a one-off callback
// defines a small type with a Fire method.
//
// Every pending event carries a key (at, seq): its firing time and a
// sequence number that grows by one on every schedule call. The engine
// fires events in strict key order, and keeps them in three stores:
//
//   - The instant FIFO holds events scheduled for the current instant (a
//     zero delay, or a time in the past clamped to now). About half of a
//     loaded simulation's events are such same-instant hand-offs.
//   - Channel rings hold events scheduled through a Channel, which fires
//     each event a fixed delay after it was scheduled. A simulation has a
//     handful of such delays (a wire latency, a frozen service time, a
//     link's serialization time) and most of its delayed events use one.
//   - A hand-rolled 4-ary min-heap of event values, stored inline in a
//     single slice, holds every other event plus one entry per non-empty
//     channel: the channel's head, keyed by the head's own (at, seq).
//
// The rings need no sorting, because each is in key order by
// construction. A channel appends each entry at now+delay with a fresh
// seq; the clock never goes backwards and seq only grows, so its ring is
// sorted by (at, seq) in append order. The heap therefore sees each
// channel only through its earliest entry, and the global firing order is
// exactly the order a single heap of every event would give. When a
// channel head fires, the channel's next entry takes over the heap root in
// place and sifts down once: one sift instead of a pop and a push, on a
// heap holding a few entries instead of every in-flight event.
//
// The instant FIFO merges with the heap the same way: every FIFO entry has
// at == now, so its append order is key order, and the heap top has
// at >= now. Each Step fires whichever of the FIFO head and the heap top
// is smaller by (at, seq), so a heap event at the current instant with a
// smaller seq still fires first. The clock only moves past now once the
// FIFO is empty, so the invariant at == now holds for every entry the FIFO
// keeps.
//
// All stores recycle their slots in place, so once they have grown to the
// simulation's peak event population, scheduling is allocation-free: the
// backing arrays are the free list.
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
	now      time.Duration
	seq      uint64
	queue    eventQueue // later events, plus one head per non-empty channel
	instant  ring       // events at now, in seq order
	channels []*Channel // every channel made by NewChannel, for Pending
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued events, in all three stores.
func (e *Engine) Pending() int {
	n := len(e.queue.events) + e.instant.len()
	for _, c := range e.channels {
		if l := c.fifo.len(); l > 0 {
			n += l - 1 // the head is already counted in the heap
		}
	}
	return n
}

// Channel schedules events at one fixed delay. Its events are in (at, seq)
// order by construction (see the package doc), so they wait in a ring and
// only the earliest sits in the engine's heap. A Channel belongs to the
// Engine that made it.
type Channel struct {
	eng   *Engine
	delay time.Duration
	fifo  ring
}

// NewChannel returns a channel whose events fire delay after they are
// scheduled. Negative delays are clamped to zero; a zero-delay channel
// schedules into the instant FIFO.
func (e *Engine) NewChannel(delay time.Duration) *Channel {
	if delay < 0 {
		delay = 0
	}
	c := &Channel{eng: e, delay: delay}
	e.channels = append(e.channels, c)
	return c
}

// Delay returns the channel's fixed delay.
//
//rstorm:hotpath
func (c *Channel) Delay() time.Duration { return c.delay }

// Schedule queues ev to fire the channel's delay from now. It fires in
// exactly the order ScheduleEvent(c.Delay(), ev) would give it.
//
//rstorm:hotpath
func (c *Channel) Schedule(ev Event) {
	e := c.eng
	e.seq++
	entry := event{at: e.now + c.delay, seq: e.seq, ev: ev}
	if c.delay == 0 {
		e.instant.push(entry)
		return
	}
	if c.fifo.len() == 0 {
		e.queue.push(event{at: entry.at, seq: entry.seq, ev: (*channelHead)(c)})
	}
	c.fifo.push(entry)
}

// channelHead marks a channel's entry in the heap. The heap entry carries
// the head's (at, seq); the head event itself stays in the channel's ring.
type channelHead Channel

// Fire is never called: eventQueue.pop resolves a channelHead to the
// channel's head event before returning it.
func (*channelHead) Fire() { panic("des: channel head fired directly") }

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
// sit in two adjacent cache lines. It holds events scheduled for a time
// later than the clock at scheduling, and one channelHead entry per
// non-empty Channel. Events for the current instant go to the Engine's
// instant FIFO, and Engine.pop merges the two by (at, seq) — see the
// package doc for why the merge keeps heap order.
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
	if h, ok := top.ev.(*channelHead); ok {
		c := (*Channel)(h)
		top = c.fifo.pop()
		if c.fifo.len() > 0 {
			// The channel's next entry replaces the head in place: one
			// sift, where a pop then a push would take two.
			next := c.fifo.peek()
			es[0].at, es[0].seq = next.at, next.seq
			q.siftDown(0)
			return top
		}
	}
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

// ring is a FIFO of events on a circular buffer whose length is a power of
// two. It backs both the instant FIFO and every channel, whose entries
// arrive already in (at, seq) order. events[head] is the oldest of the n
// queued entries; popped slots are zeroed so no Event reference is
// retained, and the buffer only grows, so a ring that has reached its
// peak population never allocates again.
type ring struct {
	events []event
	head   int
	n      int
}

//rstorm:hotpath
func (r *ring) len() int { return r.n }

//rstorm:hotpath
func (r *ring) peek() *event { return &r.events[r.head] }

//rstorm:hotpath
func (r *ring) push(ev event) {
	if r.n == len(r.events) {
		r.grow()
	}
	r.events[(r.head+r.n)&(len(r.events)-1)] = ev
	r.n++
}

//rstorm:hotpath
func (r *ring) pop() event {
	ev := r.events[r.head]
	r.events[r.head] = event{} // release the ev reference
	r.head = (r.head + 1) & (len(r.events) - 1)
	r.n--
	return ev
}

// grow doubles the buffer (starting at 8), relinearizing the queue.
func (r *ring) grow() {
	next := make([]event, max(8, 2*len(r.events)))
	k := copy(next, r.events[r.head:])
	copy(next[k:], r.events[:r.head])
	r.events = next
	r.head = 0
}
