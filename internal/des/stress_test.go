package des

import (
	"testing"

	"repro/internal/rng"
)

// TestScheduleCancelStorm hammers the engine with interleaved schedules
// and cancellations from inside handlers and verifies the core
// invariants: the clock never goes backward, every fired event was live,
// and fired + cancelled-unfired accounts for every schedule.
func TestScheduleCancelStorm(t *testing.T) {
	src := rng.New(99)
	for round := 0; round < 20; round++ {
		var e Engine
		var scheduled, fired, cancelled int
		var live []Handle
		lastTime := -1.0

		var mkHandler func(depth int) Handler
		mkHandler = func(depth int) Handler {
			return func(e *Engine) {
				fired++
				if e.Now() < lastTime {
					t.Fatalf("clock went backward: %v after %v", e.Now(), lastTime)
				}
				lastTime = e.Now()
				// Randomly schedule more work and cancel random pending
				// handles.
				if depth < 3 {
					n := src.Intn(4)
					for i := 0; i < n; i++ {
						h := e.ScheduleAfter(src.Float64()*10, mkHandler(depth+1))
						scheduled++
						live = append(live, h)
					}
				}
				if len(live) > 0 && src.Bool(0.3) {
					idx := src.Intn(len(live))
					h := live[idx]
					if !e.Cancelled(h) {
						e.Cancel(h)
						cancelled++
					}
				}
			}
		}
		for i := 0; i < 50; i++ {
			h := e.Schedule(src.Float64()*100, mkHandler(0))
			scheduled++
			live = append(live, h)
		}
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("round %d: %d events left pending after Run", round, e.Pending())
		}
		if int(e.Fired()) != fired {
			t.Fatalf("round %d: engine fired %d, handlers saw %d", round, e.Fired(), fired)
		}
		if fired+cancelled != scheduled {
			t.Fatalf("round %d: fired %d + cancelled %d != scheduled %d", round, fired, cancelled, scheduled)
		}
	}
}

// TestManyEventsOrdered verifies strict time ordering over a large
// randomized schedule.
func TestManyEventsOrdered(t *testing.T) {
	var e Engine
	src := rng.New(123)
	const n = 50000
	var prev float64 = -1
	count := 0
	for i := 0; i < n; i++ {
		at := src.Float64() * 1e6
		e.Schedule(at, func(e *Engine) {
			if e.Now() < prev {
				t.Fatalf("out of order: %v after %v", e.Now(), prev)
			}
			prev = e.Now()
			count++
		})
	}
	e.Run()
	if count != n {
		t.Fatalf("fired %d of %d", count, n)
	}
}
