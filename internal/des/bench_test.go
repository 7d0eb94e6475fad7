package des

import (
	"testing"
	"time"
)

// countEvent is the cheapest possible Event: one integer add.
type countEvent struct{ n int }

func (e *countEvent) Fire() { e.n++ }

// BenchmarkScheduleStep covers the engine's //rstorm:hotpath functions
// end to end — ScheduleEvent → push/siftUp or the instant FIFO, or
// Channel.Schedule → a ring, Step → pop/siftDown/before → Fire — against
// 1024 standing events. That is deeper than a loaded simulation: the
// measured mean queue depths are 82 pending events (paper-emulab) and 33
// (adaptive-chaos), so the heap cases here bound sift cost from above.
// "delayed" schedules every event into the future, the heap-only
// workload; "half-zero-delay" schedules every other event at delay 0, the
// measured mix of a loaded simulation, where about half of all events are
// same-instant hand-offs. "fixed-delay" schedules every event through one
// of a few channels, the shape of the simulator's wire arrivals, service
// completions and link serializations: the heap holds only the channel
// heads.
func BenchmarkScheduleStep(b *testing.B) {
	b.Run("delayed", func(b *testing.B) { benchScheduleStep(b, 0) })
	b.Run("half-zero-delay", func(b *testing.B) { benchScheduleStep(b, 2) })
	b.Run("fixed-delay", benchFixedDelay)
}

// benchFixedDelay schedules round-robin through channels at the default
// network model's four path latencies, three service times and one link
// serialization time, stepping once per schedule so the population stays
// at standing.
func benchFixedDelay(b *testing.B) {
	const standing = 1024
	delays := []time.Duration{
		time.Microsecond, 25 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond,
		40 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
		20 * time.Microsecond,
	}
	e := NewEngine()
	chans := make([]*Channel, len(delays))
	for i, d := range delays {
		chans[i] = e.NewChannel(d)
	}
	ev := &countEvent{}
	for i := 0; i < standing; i++ {
		chans[i%len(chans)].Schedule(ev)
	}
	b.ReportAllocs()
	// The warm-up lets every ring grow to its steady capacity, so even
	// -benchtime=1x reports 0 allocs/op.
	const warm = 16 * standing
	for i := 0; i < warm+b.N; i++ {
		if i == warm {
			b.ResetTimer()
		}
		chans[i%len(chans)].Schedule(ev)
		e.Step()
	}
}

// benchScheduleStep schedules one event and steps once per iteration, so
// the population stays at standing; with zeroEvery > 0, every zeroEvery-th
// event is scheduled at delay 0.
func benchScheduleStep(b *testing.B, zeroEvery int) {
	const standing = 1024
	e := NewEngine()
	ev := &countEvent{}
	for i := 0; i < standing; i++ {
		e.ScheduleEvent(time.Duration(i)*time.Millisecond, ev)
	}
	b.ReportAllocs()
	// The first standing iterations are warm-up: they grow both stores to
	// their steady capacity, so even -benchtime=1x reports 0 allocs/op.
	for i := 0; i < standing+b.N; i++ {
		if i == standing {
			b.ResetTimer()
		}
		delay := time.Duration(i%standing) * time.Millisecond
		if zeroEvery > 0 && i%zeroEvery == 0 {
			delay = 0
		}
		e.ScheduleEvent(delay, ev)
		e.Step()
	}
}
