package des

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestParkedHandlePending: an event scheduled past the horizon gets a
// pending Handle but no queue entry, and Cancel releases its slot.
func TestParkedHandlePending(t *testing.T) {
	var e Engine
	e.SetHorizon(10)
	h := e.Schedule(11, func(*Engine) { t.Error("parked event fired") })
	if h == (Handle{}) || e.Cancelled(h) {
		t.Fatalf("parked handle %+v is not pending", h)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending %d with only a parked event, want 0", e.Pending())
	}
	e.Cancel(h)
	if !e.Cancelled(h) {
		t.Error("Cancel left a parked handle pending")
	}
	fresh := e.Schedule(12, func(*Engine) {})
	if fresh.slot != h.slot {
		t.Errorf("cancelled parked slot %d not reused (fresh %d)", h.slot, fresh.slot)
	}
	e.Cancel(h) // stale: must not touch the event now in the slot
	if e.Cancelled(fresh) {
		t.Error("stale parked handle cancelled the event reusing its slot")
	}
	e.RunUntil(10)
	if e.Fired() != 0 || e.Now() != 10 {
		t.Errorf("fired %d, now %v; want 0 and 10", e.Fired(), e.Now())
	}
}

// TestResetFreesParked: Reset makes parked Handles stale and returns
// their slots, so 10^5 trials whose events are all parked (some
// cancelled, some not) keep the slot table at the size of one trial.
func TestResetFreesParked(t *testing.T) {
	var e Engine
	e.SetHorizon(100)
	fn := func(*Engine) { t.Error("parked event fired") }
	var hs [4]Handle
	for cycle := 0; cycle < 100000; cycle++ {
		e.Reset()
		for i := range hs {
			if cycle > 0 && !e.Cancelled(hs[i]) {
				t.Fatalf("cycle %d: handle %d pending across Reset", cycle, i)
			}
			hs[i] = e.Schedule(101+Time(i), fn)
		}
		e.Cancel(hs[cycle%4])
		e.RunUntil(100)
	}
	if len(e.slots) > len(hs) {
		t.Errorf("after 1e5 cycles: %d slots, want <= %d", len(e.slots), len(hs))
	}
	mustPanic(t, "Run after Reset of a bounded engine", func() { e.Run() })
}

// TestEventAtHorizonFires: an event exactly at the horizon is queued and
// fires; the next representable time is parked.
func TestEventAtHorizonFires(t *testing.T) {
	var e Engine
	e.SetHorizon(10)
	fired := false
	e.Schedule(10, func(*Engine) { fired = true })
	e.Schedule(math.Nextafter(10, 11), func(*Engine) { t.Error("event past the horizon fired") })
	if e.Pending() != 1 {
		t.Errorf("Pending %d, want 1", e.Pending())
	}
	e.RunUntil(10)
	if !fired {
		t.Error("event at the horizon did not fire")
	}
}

// TestBoundedEnginePanics: a bounded engine refuses runs that would
// reach past its horizon, and SetHorizon refuses invalid bounds.
func TestBoundedEnginePanics(t *testing.T) {
	var e Engine
	e.SetHorizon(10)
	mustPanic(t, "RunUntil past the horizon", func() { e.RunUntil(10.5) })
	mustPanic(t, "Run on a bounded engine", func() { e.Run() })
	e.RunUntil(5) // at or before the horizon is fine
	e.RunUntil(10)
	for _, h := range []Time{-1, math.Inf(-1), nan()} {
		mustPanic(t, "SetHorizon invalid", func() { e.SetHorizon(h) })
	}
	e.SetHorizon(0) // unbounded again: Run is allowed
	e.Run()
}

// TestInfiniteHorizonUnbounded: SetHorizon(+Inf) leaves the engine
// unbounded, as a censoring horizon that overflowed to +Inf asks: every
// event is queued, RunUntil(+Inf) fires them all, and Run is allowed.
func TestInfiniteHorizonUnbounded(t *testing.T) {
	var e Engine
	e.SetHorizon(math.Inf(1))
	fired := 0
	e.Schedule(1e300, func(*Engine) { fired++ })
	if e.Pending() != 1 {
		t.Errorf("Pending %d, want 1", e.Pending())
	}
	e.Run()
	e.Schedule(2e300, func(*Engine) { fired++ })
	e.RunUntil(math.Inf(1))
	if fired != 2 {
		t.Errorf("fired %d events, want 2", fired)
	}
}

// TestBoundedMatchesUnbounded is a model check: a hold model whose
// handlers schedule and cancel at random, some events landing past the
// horizon, fires the same events in the same order on a bounded engine
// as on an unbounded one run to the same horizon, across Resets.
func TestBoundedMatchesUnbounded(t *testing.T) {
	type firing struct {
		at Time
		id int
	}
	run := func(e *Engine, round int) []firing {
		src := rng.New(uint64(round) + 1)
		var got []firing
		var live []Handle
		next := 0
		var h func(id int) Handler
		h = func(id int) Handler {
			return func(e *Engine) {
				got = append(got, firing{e.Now(), id})
				for k := src.Intn(3); k > 0; k-- {
					next++
					live = append(live, e.ScheduleAfter(Time(src.Intn(40)), h(next)))
				}
				if len(live) > 0 && src.Bool(0.4) {
					e.Cancel(live[src.Intn(len(live))])
				}
			}
		}
		e.Reset()
		for i := 0; i < 5; i++ {
			next++
			live = append(live, e.Schedule(Time(src.Intn(60)), h(next)))
		}
		e.RunUntil(50)
		return got
	}
	var bounded, free Engine
	bounded.SetHorizon(50)
	for round := 0; round < 300; round++ {
		a, b := run(&bounded, round), run(&free, round)
		if len(a) != len(b) {
			t.Fatalf("round %d: bounded fired %d events, unbounded %d", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: firing %d is %+v bounded, %+v unbounded", round, i, a[i], b[i])
			}
		}
	}
}
