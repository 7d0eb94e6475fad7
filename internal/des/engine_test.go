package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleEvent(3*time.Second, fnEvent(func() { order = append(order, 3) }))
	e.ScheduleEvent(1*time.Second, fnEvent(func() { order = append(order, 1) }))
	e.ScheduleEvent(2*time.Second, fnEvent(func() { order = append(order, 2) }))
	if n := e.RunUntil(10 * time.Second); n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.ScheduleEvent(time.Second, fnEvent(func() { order = append(order, i) }))
	}
	e.Drain()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.ScheduleEvent(time.Second, fnEvent(func() {
		fired = append(fired, e.Now())
		e.ScheduleEvent(time.Second, fnEvent(func() {
			fired = append(fired, e.Now())
		}))
	}))
	e.RunUntil(5 * time.Second)
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilHorizonExcludesLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleEvent(10*time.Second, fnEvent(func() { ran = true }))
	e.RunUntil(5 * time.Second)
	if ran {
		t.Fatal("event past horizon ran")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
	e.RunUntil(15 * time.Second)
	if !ran {
		t.Fatal("event within horizon did not run")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(time.Second, fnEvent(func() {
		e.ScheduleEvent(-time.Hour, fnEvent(func() {
			if e.Now() != time.Second {
				t.Errorf("clamped event at %v, want 1s", e.Now())
			}
		}))
	}))
	e.Drain()
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(2*time.Second, fnEvent(func() {
		e.ScheduleEventAt(time.Second, fnEvent(func() {
			if e.Now() != 2*time.Second {
				t.Errorf("past event at %v, want 2s", e.Now())
			}
		}))
	}))
	e.Drain()
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if e.Drain() != 0 {
		t.Fatal("Drain on empty queue processed events")
	}
}

// recordingEvent implements Event for typed-event tests.
type recordingEvent struct {
	id  int
	out *[]int
}

func (e *recordingEvent) Fire() { *e.out = append(*e.out, e.id) }

func TestTypedEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleEvent(3*time.Second, &recordingEvent{id: 3, out: &order})
	e.ScheduleEvent(1*time.Second, &recordingEvent{id: 1, out: &order})
	e.ScheduleEvent(2*time.Second, fnEvent(func() { order = append(order, 2) }))
	e.Drain()
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTypedEventsInterleaveFIFOWithClosures(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			e.ScheduleEvent(time.Second, &recordingEvent{id: i, out: &order})
		} else {
			i := i
			e.ScheduleEvent(time.Second, fnEvent(func() { order = append(order, i) }))
		}
	}
	e.Drain()
	for i := 0; i < 6; i++ {
		if order[i] != i {
			t.Fatalf("equal-timestamp typed/closure events not FIFO: %v", order)
		}
	}
}

// TestHeapFIFOUnderRandomInterleaving is the property test for the 4-ary
// heap: under randomized interleaved ScheduleEventAt/Step sequences with heavily
// colliding timestamps, events sharing a timestamp must fire in exact
// scheduling order, and timestamps must be globally non-decreasing.
func TestHeapFIFOUnderRandomInterleaving(t *testing.T) {
	type fired struct {
		at  time.Duration
		seq int
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		e := NewEngine()
		var log []fired
		seq := 0
		schedule := func() {
			// Few distinct timestamps ahead of now -> many collisions.
			at := e.Now() + time.Duration(rng.Intn(4))*time.Millisecond
			id := seq
			seq++
			e.ScheduleEventAt(at, fnEvent(func() { log = append(log, fired{at: at, seq: id}) }))
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				e.Step()
			} else {
				schedule()
			}
		}
		e.Drain()
		if len(log) != seq {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(log), seq)
		}
		for i := 1; i < len(log); i++ {
			prev, cur := log[i-1], log[i]
			if cur.at < prev.at {
				t.Fatalf("trial %d: time went backwards: %v after %v", trial, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				t.Fatalf("trial %d: equal-timestamp events out of FIFO order: seq %d fired after %d at %v",
					trial, prev.seq, cur.seq, cur.at)
			}
		}
	}
}

// fnEvent adapts a func to Event, so tests can schedule callbacks through
// the engine's single typed-event path.
type fnEvent func()

func (f fnEvent) Fire() { f() }

func TestPeekTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported an event")
	}
	e.ScheduleEvent(3*time.Second, fnEvent(func() {}))
	e.ScheduleEvent(time.Second, fnEvent(func() {}))
	if at, ok := e.PeekTime(); !ok || at != time.Second {
		t.Fatalf("PeekTime = %v, %v, want 1s, true", at, ok)
	}
	// Peeking must not disturb the queue.
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after peek, want 2", e.Pending())
	}
	e.Drain()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime after drain reported an event")
	}
}

func TestAdvanceToExcludesHorizonEvents(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		e.ScheduleEventAt(at, fnEvent(func() { fired = append(fired, at) }))
	}
	if n := e.AdvanceTo(2 * time.Second); n != 1 {
		t.Fatalf("processed %d events, want 1 (event at the horizon must stay pending)", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	// The boundary event fires in the next window.
	if n := e.AdvanceTo(4 * time.Second); n != 2 {
		t.Fatalf("second window processed %d, want 2", n)
	}
	if len(fired) != 3 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
	// A horizon in the past is a no-op that leaves the clock alone.
	if n := e.AdvanceTo(time.Second); n != 0 || e.Now() != 4*time.Second {
		t.Fatalf("past horizon: processed %d, Now %v", n, e.Now())
	}
}

// TestQuickAdvanceToWindowsMatchRunUntil is the FIFO-preservation property
// for the sharded loop's primitive: chopping a schedule into half-open
// AdvanceTo windows (plus a final inclusive RunUntil at the horizon) must
// fire exactly the same events in exactly the same order as one monolithic
// RunUntil, including equal-timestamp collisions.
func TestQuickAdvanceToWindowsMatchRunUntil(t *testing.T) {
	f := func(raw []uint8, windowRaw uint8) bool {
		horizon := 200 * time.Millisecond
		build := func() (*Engine, *[]int) {
			e := NewEngine()
			var order []int
			for i, r := range raw {
				// Few distinct timestamps -> many FIFO collisions.
				at := time.Duration(r%16) * 10 * time.Millisecond
				i := i
				e.ScheduleEventAt(at, fnEvent(func() { order = append(order, i) }))
			}
			return e, &order
		}
		mono, monoOrder := build()
		mono.RunUntil(horizon)

		window := time.Duration(windowRaw%32+1) * 7 * time.Millisecond
		sharded, shardedOrder := build()
		for sharded.Now() < horizon {
			h := sharded.Now() + window
			if h > horizon {
				h = horizon
			}
			sharded.AdvanceTo(h)
		}
		sharded.RunUntil(horizon) // boundary events at the final horizon
		if len(*monoOrder) != len(*shardedOrder) {
			return false
		}
		for i := range *monoOrder {
			if (*monoOrder)[i] != (*shardedOrder)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTakePendingPreservesOrder: TakePending surrenders events in (time,
// scheduling) order, so replaying them in slice order onto a fresh engine
// reproduces the original firing order — the re-homing invariant the
// sharded simulator relies on between epochs.
func TestTakePendingPreservesOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		at := time.Duration(i%4) * time.Second // heavy timestamp collisions
		if i%2 == 0 {
			e.ScheduleEventAt(at, fnEvent(func() { order = append(order, i) }))
		} else {
			e.ScheduleEventAt(at, &recordingEvent{id: i, out: &order})
		}
	}
	taken := e.TakePending()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after TakePending", e.Pending())
	}
	if len(taken) != 20 {
		t.Fatalf("took %d events, want 20", len(taken))
	}
	for i := 1; i < len(taken); i++ {
		if taken[i].At < taken[i-1].At {
			t.Fatalf("TakePending out of time order at %d: %v after %v", i, taken[i].At, taken[i-1].At)
		}
	}
	fresh := NewEngine()
	for _, pe := range taken {
		fresh.ScheduleEventAt(pe.At, pe.Ev)
	}
	fresh.Drain()
	want := []int{0, 4, 8, 12, 16, 1, 5, 9, 13, 17, 2, 6, 10, 14, 18, 3, 7, 11, 15, 19}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("replayed order = %v, want %v", order, want)
		}
	}
}

func TestQuickClockNeverGoesBackwards(t *testing.T) {
	f := func(delays []int16) bool {
		e := NewEngine()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			delay := time.Duration(d) * time.Millisecond
			e.ScheduleEvent(delay, fnEvent(func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			}))
		}
		e.Drain()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRunUntilProcessesExactlyHorizonEvents(t *testing.T) {
	f := func(raw []uint8) bool {
		e := NewEngine()
		within := 0
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			if d <= 100*time.Millisecond {
				within++
			}
			e.ScheduleEvent(d, fnEvent(func() {}))
		}
		return e.RunUntil(100*time.Millisecond) == within
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// orderLog schedules orderEvents and keeps, for every event, the (at, seq)
// key the engine should order it by: at clamped to the clock, seq the
// scheduling index. Sorting that list gives the reference firing order.
type orderLog struct {
	e     *Engine
	keys  []orderKey // indexed by id
	fired []int
}

// orderKey is one event's expected ordering key; its id is its seq.
type orderKey struct {
	at time.Duration
	id int
}

// orderEvent records its id when it fires, then runs an optional follow-up
// that may schedule more events.
type orderEvent struct {
	l    *orderLog
	id   int
	then func()
}

func (o *orderEvent) Fire() {
	o.l.fired = append(o.l.fired, o.id)
	if o.then != nil {
		o.then()
	}
}

func (l *orderLog) at(at time.Duration, then func()) {
	key := at
	if key < l.e.Now() {
		key = l.e.Now()
	}
	id := len(l.keys)
	l.keys = append(l.keys, orderKey{at: key, id: id})
	l.e.ScheduleEventAt(at, &orderEvent{l: l, id: id, then: then})
}

// want returns the ids of every event scheduled so far, sorted by (at, seq).
func (l *orderLog) want() []int {
	keys := append([]orderKey(nil), l.keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].at != keys[j].at {
			return keys[i].at < keys[j].at
		}
		return keys[i].id < keys[j].id
	})
	ids := make([]int, len(keys))
	for i, k := range keys {
		ids[i] = k.id
	}
	return ids
}

// newMergeScenario builds an engine stopped inside one instant (1s) with
// both stores non-empty: three heap events at 1s scheduled before the clock
// got there, so they carry the smallest seqs, and two FIFO events (one
// zero-delay, one clamped from the past). The first Step fires a heap event
// whose Fire cascades a zero-delay successor, a past-time successor and a
// delayed one.
func newMergeScenario(t *testing.T) *orderLog {
	t.Helper()
	l := &orderLog{e: NewEngine()}
	l.at(time.Second, func() { // id 0: the cascade
		now := l.e.Now()
		l.at(now, func() { // zero-delay, cascades once more
			l.at(l.e.Now(), nil)
		})
		l.at(now-time.Millisecond, nil)     // in the past: clamped to now
		l.at(now+500*time.Millisecond, nil) // delayed: heap
	})
	l.at(time.Second, nil)
	l.at(time.Second, nil)
	l.at(2*time.Second, nil)
	if n := l.e.AdvanceTo(time.Second); n != 0 {
		t.Fatalf("AdvanceTo(1s) processed %d events, want 0", n)
	}
	l.at(time.Second, nil) // zero delay: FIFO
	l.at(0, nil)           // past: clamped to 1s, FIFO
	if !l.e.Step() {
		t.Fatal("Step found nothing pending")
	}
	if got := l.fired; len(got) != 1 || got[0] != 0 {
		t.Fatalf("first Step fired %v, want [0]", got)
	}
	return l
}

// TestInstantFIFOMergesWithHeapInSeqOrder checks the two-store merge
// against a reference list sorted by (at, seq): same-instant heap events
// with smaller seqs must fire before FIFO events, and the read-only entry
// points must see both stores.
func TestInstantFIFOMergesWithHeapInSeqOrder(t *testing.T) {
	l := newMergeScenario(t)
	// Heap: ids 1, 2 (1s), 8 (1.5s), 3 (2s). FIFO: ids 4, 5, 6, 7; id 6
	// will cascade id 9.
	if got, want := l.e.Pending(), len(l.keys)-len(l.fired); got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if at, ok := l.e.PeekTime(); !ok || at != time.Second {
		t.Fatalf("PeekTime = %v, %v; want 1s, true", at, ok)
	}
	if n := l.e.AdvanceTo(time.Second); n != 0 {
		t.Fatalf("AdvanceTo(now) processed %d events, want 0", n)
	}
	// Everything at 1s fires, including the cascade's second hop; the
	// delayed event at 1.5s stays pending.
	n := l.e.AdvanceTo(1500 * time.Millisecond)
	if n != 7 {
		t.Fatalf("AdvanceTo(1.5s) processed %d events, want 7", n)
	}
	if l.e.Now() != 1500*time.Millisecond || l.e.Pending() != 2 {
		t.Fatalf("after AdvanceTo: now %v, pending %d; want 1.5s, 2", l.e.Now(), l.e.Pending())
	}
	l.e.Drain()
	want := l.want()
	if len(l.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(l.fired), len(want))
	}
	for i := range want {
		if l.fired[i] != want[i] {
			t.Fatalf("firing order = %v, want (at, seq) order %v", l.fired, want)
		}
	}
}

// TestTakePendingMergesInstantFIFO: TakePending from inside an instant
// surrenders both stores merged in (at, seq) order.
func TestTakePendingMergesInstantFIFO(t *testing.T) {
	l := newMergeScenario(t)
	taken := l.e.TakePending()
	if l.e.Pending() != 0 {
		t.Fatalf("pending = %d after TakePending", l.e.Pending())
	}
	if _, ok := l.e.PeekTime(); ok {
		t.Fatal("PeekTime reports an event after TakePending")
	}
	want := l.want()[1:] // id 0 already fired
	if len(taken) != len(want) {
		t.Fatalf("took %d events, want %d", len(taken), len(want))
	}
	for i, pe := range taken {
		id := pe.Ev.(*orderEvent).id
		if id != want[i] || pe.At != l.keys[id].at {
			t.Fatalf("taken[%d] = id %d at %v, want id %d at %v", i, id, pe.At, want[i], l.keys[want[i]].at)
		}
	}
}

// tickEvent is a steady-state workload for the allocation check: each Fire
// schedules one zero-delay successor (the FIFO) and re-schedules itself
// after a delay (the heap).
type tickEvent struct {
	e      *Engine
	period time.Duration
	hop    *countEvent
}

func (t *tickEvent) Fire() {
	t.e.ScheduleEvent(0, t.hop)
	t.e.ScheduleEvent(t.period, t)
}

// TestScheduleStepZeroAllocsWithInstantFIFO holds the FIFO's slot reuse to
// the heap's bar: once warm, scheduling and stepping allocate nothing.
func TestScheduleStepZeroAllocsWithInstantFIFO(t *testing.T) {
	e := NewEngine()
	hop := &countEvent{}
	for i := 1; i <= 64; i++ {
		e.ScheduleEvent(time.Duration(i)*time.Microsecond, &tickEvent{e: e, period: time.Duration(i) * time.Microsecond, hop: hop})
	}
	for i := 0; i < 10000; i++ { // warm-up: both stores reach capacity
		e.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("Step/ScheduleEvent allocated %.1f times per 100 steps, want 0", allocs)
	}
	if hop.n == 0 {
		t.Fatal("no zero-delay successor fired")
	}
}

// relayEvent re-schedules itself at zero delay forever, so two of them keep
// the FIFO from ever draining.
type relayEvent struct{ e *Engine }

func (r *relayEvent) Fire() { r.e.ScheduleEvent(0, r) }

// TestInstantFIFOBoundedUnderEndlessCascade: a cascade that never lets the
// FIFO drain must reuse the popped prefix rather than grow the slice.
func TestInstantFIFOBoundedUnderEndlessCascade(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(0, &relayEvent{e: e})
	e.ScheduleEvent(0, &relayEvent{e: e})
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	if c := cap(e.instant.events); c > 8 {
		t.Fatalf("FIFO capacity grew to %d for 2 live events", c)
	}
	if e.Pending() != 2 || e.Now() != 0 {
		t.Fatalf("pending %d at %v, want 2 at 0", e.Pending(), e.Now())
	}
	if at, ok := e.PeekTime(); !ok || at != 0 {
		t.Fatalf("PeekTime with only FIFO events = %v, %v; want 0, true", at, ok)
	}
}

// via schedules an orderEvent through ch; its expected key is now plus the
// channel's delay.
func (l *orderLog) via(ch *Channel, then func()) {
	id := len(l.keys)
	l.keys = append(l.keys, orderKey{at: l.e.Now() + ch.Delay(), id: id})
	ch.Schedule(&orderEvent{l: l, id: id, then: then})
}

// checkOrder fails t unless every scheduled event fired, in (at, seq) order.
func (l *orderLog) checkOrder(t *testing.T) {
	t.Helper()
	want := l.want()
	if len(l.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(l.fired), len(want))
	}
	for i := range want {
		if l.fired[i] != want[i] {
			k, w := l.keys[l.fired[i]], l.keys[want[i]]
			t.Fatalf("firing %d: id %d at %v, want (at, seq) order's id %d at %v", i, k.id, k.at, w.id, w.at)
		}
	}
}

// TestChannelsFireInSeqOrder is the property test for fixed-delay
// channels: under random interleavings of several channels (one of them
// zero-delay), plain delayed events, zero-delay events, past-time events
// clamped to now, and events whose Fire schedules more through a channel,
// the firing order must equal a reference list sorted by (at, seq). The
// timestamps sit on a coarse grid, so channel entries constantly tie with
// heap and FIFO events at the same instant that carry smaller seqs.
func TestChannelsFireInSeqOrder(t *testing.T) {
	const ms = time.Millisecond
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		l := &orderLog{e: NewEngine()}
		chans := []*Channel{
			l.e.NewChannel(0),
			l.e.NewChannel(ms),
			l.e.NewChannel(3 * ms),
			l.e.NewChannel(3 * ms), // a second channel at an equal delay
			l.e.NewChannel(7 * ms),
		}
		var cascade func()
		cascade = func() {
			if rng.Intn(2) == 0 {
				l.via(chans[rng.Intn(len(chans))], nil)
			} else {
				l.at(l.e.Now(), nil)
			}
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				var then func()
				if rng.Intn(4) == 0 {
					then = cascade
				}
				l.via(chans[rng.Intn(len(chans))], then)
			case r < 6:
				l.at(l.e.Now()+time.Duration(rng.Intn(8))*ms, nil)
			case r < 7:
				l.at(l.e.Now()-ms, nil) // in the past: clamped to now
			default:
				l.e.Step()
			}
		}
		l.e.Drain()
		l.checkOrder(t)
	}
}

// newChannelScenario builds an engine stopped inside the instant 1s with
// all three stores non-empty. The heap holds plain events at 1s (scheduled
// before the clock got there, so with the smallest seqs), 1.5s and 3s; two
// channels hold entries scheduled at 0 and at 1s; the FIFO holds what the
// first event at 1s scheduled at zero delay, directly and through a
// zero-delay channel.
func newChannelScenario(t *testing.T) (*orderLog, []*Channel) {
	t.Helper()
	l := &orderLog{e: NewEngine()}
	zero := l.e.NewChannel(0)
	fast := l.e.NewChannel(500 * time.Millisecond)
	slow := l.e.NewChannel(time.Second)
	l.via(slow, nil) // 1s: ties with the heap's first events
	l.via(fast, nil) // 0.5s
	l.at(time.Second, func() {
		l.at(l.e.Now(), nil)
		l.via(zero, nil)
		l.via(fast, nil) // 1.5s, ties with a heap event of smaller seq
		l.via(slow, nil) // 2s
		l.via(slow, nil) // 2s
	})
	l.at(time.Second, nil)
	l.at(1500*time.Millisecond, nil)
	l.at(3*time.Second, nil)
	if n := l.e.AdvanceTo(time.Second); n != 1 {
		t.Fatalf("AdvanceTo(1s) processed %d events, want 1", n)
	}
	// The first event at 1s by (at, seq) is the slow channel's entry; the
	// second is the cascade.
	for i := 0; i < 2; i++ {
		if !l.e.Step() {
			t.Fatal("Step found nothing pending")
		}
	}
	if got := l.fired; len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("fired %v, want [1 0 2]", got)
	}
	if l.e.instant.len() == 0 || len(l.e.queue.events) == 0 || fast.fifo.len() == 0 || slow.fifo.len() < 2 {
		t.Fatal("scenario does not leave all three stores non-empty")
	}
	return l, []*Channel{zero, fast, slow}
}

// TestChannelsReadOnlyEntryPointsAndWindows: Pending, PeekTime and
// AdvanceTo see channel entries beside the heap and the instant FIFO.
func TestChannelsReadOnlyEntryPointsAndWindows(t *testing.T) {
	l, _ := newChannelScenario(t)
	if got, want := l.e.Pending(), len(l.keys)-len(l.fired); got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if at, ok := l.e.PeekTime(); !ok || at != time.Second {
		t.Fatalf("PeekTime = %v, %v; want 1s, true", at, ok)
	}
	// Through 1.5s exclusive: the two FIFO events and the heap's second
	// event at 1s.
	if n := l.e.AdvanceTo(1500 * time.Millisecond); n != 3 {
		t.Fatalf("AdvanceTo(1.5s) processed %d events, want 3", n)
	}
	if at, ok := l.e.PeekTime(); !ok || at != 1500*time.Millisecond {
		t.Fatalf("PeekTime = %v, %v; want 1.5s, true", at, ok)
	}
	// Through 2.5s: the heap event and channel entry at 1.5s, and both
	// channel entries at 2s. Only the heap event at 3s remains.
	if n := l.e.AdvanceTo(2500 * time.Millisecond); n != 4 {
		t.Fatalf("AdvanceTo(2.5s) processed %d events, want 4", n)
	}
	if l.e.Pending() != 1 || l.e.Now() != 2500*time.Millisecond {
		t.Fatalf("after AdvanceTo: pending %d at %v; want 1 at 2.5s", l.e.Pending(), l.e.Now())
	}
	l.e.Drain()
	l.checkOrder(t)
}

// TestTakePendingDrainsChannels: TakePending from inside an instant
// surrenders the heap, the FIFO and every channel ring merged in (at, seq)
// order and leaves the channels reusable.
func TestTakePendingDrainsChannels(t *testing.T) {
	l, chans := newChannelScenario(t)
	taken := l.e.TakePending()
	if l.e.Pending() != 0 {
		t.Fatalf("pending = %d after TakePending", l.e.Pending())
	}
	if _, ok := l.e.PeekTime(); ok {
		t.Fatal("PeekTime reports an event after TakePending")
	}
	want := l.want()[len(l.fired):]
	if len(taken) != len(want) {
		t.Fatalf("took %d events, want %d", len(taken), len(want))
	}
	for i, pe := range taken {
		id := pe.Ev.(*orderEvent).id
		if id != want[i] || pe.At != l.keys[id].at {
			t.Fatalf("taken[%d] = id %d at %v, want id %d at %v", i, id, pe.At, want[i], l.keys[want[i]].at)
		}
	}
	// Emptied channels schedule again from scratch.
	l.fired = l.fired[:0]
	l.keys = l.keys[:0]
	for _, ch := range chans {
		l.via(ch, nil)
	}
	l.e.Drain()
	l.checkOrder(t)
}

func TestNewChannelClampsAndZeroDelayUsesFIFO(t *testing.T) {
	e := NewEngine()
	neg := e.NewChannel(-time.Second)
	if neg.Delay() != 0 {
		t.Fatalf("Delay = %v, want 0", neg.Delay())
	}
	neg.Schedule(&countEvent{})
	if e.instant.len() != 1 || len(e.queue.events) != 0 {
		t.Fatalf("zero-delay channel event not in the FIFO: fifo %d, heap %d", e.instant.len(), len(e.queue.events))
	}
	ch := e.NewChannel(time.Second)
	for i := 0; i < 5; i++ {
		ch.Schedule(&countEvent{})
	}
	if len(e.queue.events) != 1 || e.Pending() != 6 {
		t.Fatalf("heap holds %d entries, pending %d; want 1 channel head, 6", len(e.queue.events), e.Pending())
	}
}

// chanTick is the channel workload for the allocation check: each Fire
// schedules a zero-delay successor and re-schedules itself through its
// channel, as a bolt's service completion re-arms through its task's
// channel.
type chanTick struct {
	ch  *Channel
	hop *countEvent
}

func (c *chanTick) Fire() {
	c.ch.eng.ScheduleEvent(0, c.hop)
	c.ch.Schedule(c)
}

// TestChannelScheduleStepZeroAllocs: once warm, scheduling through
// channels and stepping allocate nothing.
func TestChannelScheduleStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	hop := &countEvent{}
	for i := 1; i <= 4; i++ {
		ch := e.NewChannel(time.Duration(i) * time.Microsecond)
		for j := 0; j < 16*i; j++ {
			ch.Schedule(&chanTick{ch: ch, hop: hop})
		}
	}
	for i := 0; i < 10000; i++ { // warm-up: every store reaches capacity
		e.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("Step/Channel.Schedule allocated %.1f times per 100 steps, want 0", allocs)
	}
	if hop.n == 0 {
		t.Fatal("no zero-delay successor fired")
	}
}
