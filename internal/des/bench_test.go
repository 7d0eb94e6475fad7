package des

import (
	"testing"
	"time"
)

// countEvent is the cheapest possible Event: one integer add.
type countEvent struct{ n int }

func (e *countEvent) Fire() { e.n++ }

// BenchmarkScheduleStep covers the engine's //rstorm:hotpath functions
// end to end — ScheduleEvent → push/siftUp or the instant FIFO, Step →
// next/pop/siftDown/before → Fire — against 1024 standing events. That is
// deeper than a loaded simulation: the measured mean queue depths are 82
// pending events (paper-emulab) and 33 (adaptive-chaos), so the heap cases
// here bound sift cost from above. "delayed" schedules every event into
// the future, the heap-only workload; "half-zero-delay" schedules every
// other event at delay 0, the measured mix of a loaded simulation, where
// about half of all events are same-instant hand-offs.
func BenchmarkScheduleStep(b *testing.B) {
	b.Run("delayed", func(b *testing.B) { benchScheduleStep(b, 0) })
	b.Run("half-zero-delay", func(b *testing.B) { benchScheduleStep(b, 2) })
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
