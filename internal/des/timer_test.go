package des

import (
	"testing"

	"repro/internal/rng"
)

// TestHoldAllocsZero runs the classic hold model with 64 pending events
// (each firing schedules one more a uniform delay ahead) and requires
// that, once the slot table and heap have grown, firing and rescheduling
// allocate nothing.
func TestHoldAllocsZero(t *testing.T) {
	var e Engine
	src := rng.New(7)
	var h Handler
	h = func(e *Engine) { e.ScheduleAfter(src.Float64(), h) }
	for i := 0; i < 64; i++ {
		e.Schedule(src.Float64(), h)
	}
	const events = 1000
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < events; i++ {
			e.Step()
		}
	})
	if perEvent := allocs / events; perEvent != 0 {
		t.Errorf("hold model allocates %v objects/event, want 0", perEvent)
	}
}

// TestTimerDisarmed: a timer is unarmed once it fires or Reset runs, and
// clearing it then leaves alone the event that has since taken its old
// heap position.
func TestTimerDisarmed(t *testing.T) {
	t.Run("after fire", func(t *testing.T) {
		var e Engine
		tm := e.NewTimer(func(*Engine) {})
		e.Set(tm, 1)
		e.Run()
		if e.Armed(tm) {
			t.Fatal("timer armed after it fired")
		}
		fired := false
		e.Schedule(2, func(*Engine) { fired = true })
		e.Clear(tm)
		e.Run()
		if !fired {
			t.Error("clearing a fired timer removed another event")
		}
	})
	t.Run("after reset", func(t *testing.T) {
		var e Engine
		fires := 0
		tm := e.NewTimer(func(*Engine) { fires++ })
		e.Set(tm, 5)
		e.Reset()
		if e.Armed(tm) {
			t.Error("Reset left a timer armed")
		}
		fired := false
		e.Schedule(1, func(*Engine) { fired = true })
		e.Clear(tm)
		e.Run()
		if !fired || fires != 0 {
			t.Errorf("after Reset: one-shot fired %v, timer fired %d times; want true and 0", fired, fires)
		}
		if e.Pending() != 0 || e.Fired() != 1 {
			t.Errorf("pending %d fired %d, want 0 and 1", e.Pending(), e.Fired())
		}
		// The timer outlives Reset: it can be armed and fire again.
		e.Set(tm, 3)
		e.Run()
		if fires != 1 {
			t.Errorf("timer fired %d times after re-arming, want 1", fires)
		}
	})
}

// TestSetReKeysInPlace: setting an armed timer moves its one heap entry
// and numbers it as a fresh event, so it fires after every event already
// armed for its new instant, whether it moved earlier or later.
func TestSetReKeysInPlace(t *testing.T) {
	var e Engine
	var order []string
	a := e.NewTimer(func(*Engine) { order = append(order, "a") })
	b := e.NewTimer(func(*Engine) { order = append(order, "b") })
	e.Set(a, 5)
	e.Schedule(5, func(*Engine) { order = append(order, "shot") })
	e.Set(b, 9)
	e.Set(a, 5) // same time, new sequence number: now after the one-shot
	e.Set(b, 1) // earlier
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3 (one entry per armed timer)", e.Pending())
	}
	e.Run()
	want := []string{"b", "shot", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
