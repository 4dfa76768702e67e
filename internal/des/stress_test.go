package des

import (
	"testing"

	"repro/internal/rng"
)

// TestScheduleCancelStorm hammers a pool of timers with interleaved
// sets, re-sets and clears from inside handlers and verifies the core
// invariants: the clock never goes backward, every set is accounted for
// exactly once (it fired, was cleared, or was replaced by a later set),
// and a finished run leaves no timer armed and no entry in the heap.
func TestScheduleCancelStorm(t *testing.T) {
	src := rng.New(99)
	for round := 0; round < 20; round++ {
		var e Engine
		var sets, fired, cleared, rekeyed int
		lastTime := -1.0
		ts := make([]Timer, 64)
		arm := func(e *Engine, tm Timer, at Time) {
			if e.Armed(tm) {
				rekeyed++
			}
			e.Set(tm, at)
			sets++
		}
		for i := range ts {
			ts[i] = e.NewTimer(func(e *Engine) {
				fired++
				if e.Now() < lastTime {
					t.Fatalf("clock went backward: %v after %v", e.Now(), lastTime)
				}
				lastTime = e.Now()
				if sets < 5000 {
					for n := src.Intn(4); n > 0; n-- {
						arm(e, ts[src.Intn(len(ts))], e.Now()+src.Float64()*10)
					}
				}
				if tm := ts[src.Intn(len(ts))]; src.Bool(0.3) && e.Armed(tm) {
					e.Clear(tm)
					cleared++
				}
			})
		}
		for _, tm := range ts {
			arm(&e, tm, src.Float64()*100)
		}
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("round %d: %d events left pending after Run", round, e.Pending())
		}
		for i, tm := range ts {
			if e.Armed(tm) {
				t.Fatalf("round %d: timer %d armed after Run", round, i)
			}
		}
		if int(e.Fired()) != fired {
			t.Fatalf("round %d: engine fired %d, handlers saw %d", round, e.Fired(), fired)
		}
		if fired+cleared+rekeyed != sets {
			t.Fatalf("round %d: fired %d + cleared %d + re-set %d != set %d", round, fired, cleared, rekeyed, sets)
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
