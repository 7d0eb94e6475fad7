package simulator

import "rstorm/internal/pardes"

// waiter is a blocked producer holding a tuple that did not fit.
type waiter struct {
	tup      *tuple
	accepted completion
}

// boundedQueue is a FIFO with capacity and a waiter list. When the queue is
// full, producers park in the waiter list and are admitted (their accepted
// completion fired) as consumers drain — this is how backpressure propagates
// from an overloaded task back to the spouts. Both lists are pardes.Ring
// FIFOs, so steady-state enqueue/dequeue traffic does not allocate.
type boundedQueue struct {
	capacity int
	items    pardes.Ring[*tuple]
	waiters  pardes.Ring[waiter]
	// bytes is the payload resident in items — the queue's share of its
	// task's resident memory under the runtime memory model. Maintained
	// unconditionally (one integer add per enqueue/dequeue, so the hot
	// path stays branch-free and allocation-free either way).
	bytes int64
}

func newBoundedQueue(capacity int) *boundedQueue {
	return &boundedQueue{capacity: capacity}
}

func (q *boundedQueue) len() int { return q.items.Len() }

// residentBytes is the payload currently held in the queue.
//
//rstorm:hotpath
func (q *boundedQueue) residentBytes() int64 { return q.bytes }

func (q *boundedQueue) empty() bool { return q.items.Len() == 0 }

// tryEnqueue appends tup if there is space and reports whether it was
// admitted. When full, the producer must park via addWaiter.
//
//rstorm:hotpath
func (q *boundedQueue) tryEnqueue(tup *tuple) bool {
	if q.items.Len() >= q.capacity {
		return false
	}
	q.items.Push(tup)
	q.bytes += int64(tup.bytes)
	return true
}

// addWaiter parks a blocked producer.
//
//rstorm:hotpath
func (q *boundedQueue) addWaiter(tup *tuple, accepted completion) {
	q.waiters.Push(waiter{tup: tup, accepted: accepted})
}

// dequeue pops the head. If producers are parked, the first one's tuple is
// admitted into the freed slot and its accepted completion is returned for
// the caller to schedule (the simulator defers completions through the
// event engine to keep control flow iterative). unblocked.kind is compNone
// when no producer was waiting.
//
//rstorm:hotpath
func (q *boundedQueue) dequeue() (tup *tuple, unblocked completion, ok bool) {
	if q.items.Len() == 0 {
		return nil, completion{}, false
	}
	tup = q.items.Pop()
	q.bytes -= int64(tup.bytes)
	if q.waiters.Len() > 0 {
		w := q.waiters.Pop()
		q.items.Push(w.tup)
		q.bytes += int64(w.tup.bytes)
		unblocked = w.accepted
	}
	return tup, unblocked, true
}

// drain empties the queue and waiter list, returning all tuples (queued
// first) and the parked producers' completions. Used when a node fails.
func (q *boundedQueue) drain() (tuples []*tuple, unblocked []completion) {
	for q.items.Len() > 0 {
		tuples = append(tuples, q.items.Pop())
	}
	for q.waiters.Len() > 0 {
		w := q.waiters.Pop()
		tuples = append(tuples, w.tup)
		unblocked = append(unblocked, w.accepted)
	}
	q.bytes = 0
	return tuples, unblocked
}
