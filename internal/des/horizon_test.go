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

// TestParkedTimerArmed: a timer set past the horizon is armed but has
// no heap entry, Clear disarms it, and setting it across the horizon
// moves it into the heap and out again.
func TestParkedTimerArmed(t *testing.T) {
	var e Engine
	e.SetHorizon(10)
	fired := 0
	tm := e.NewTimer(func(*Engine) { fired++ })
	e.Set(tm, 11)
	if !e.Armed(tm) {
		t.Fatal("parked timer is not armed")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending %d with only a parked timer, want 0", e.Pending())
	}
	e.Clear(tm)
	if e.Armed(tm) {
		t.Error("Clear left a parked timer armed")
	}
	e.Set(tm, 12)
	e.Set(tm, 9)
	if e.Pending() != 1 {
		t.Errorf("Pending %d after setting a parked timer within the horizon, want 1", e.Pending())
	}
	e.Set(tm, 20)
	if e.Pending() != 0 || !e.Armed(tm) {
		t.Errorf("Pending %d, armed %v after parking a queued timer; want 0 and true", e.Pending(), e.Armed(tm))
	}
	e.Set(tm, 9)
	e.RunUntil(10)
	if fired != 1 || e.Now() != 10 {
		t.Errorf("fired %d, now %v; want 1 and 10", fired, e.Now())
	}
}

// TestResetFreesParked: Reset disarms parked timers and returns the
// slots of parked one-shot events, so 10^5 trials whose events are all
// parked (some cleared, some not) keep the slot table at the size of
// one trial.
func TestResetFreesParked(t *testing.T) {
	var e Engine
	e.SetHorizon(100)
	fn := func(*Engine) { t.Error("parked event fired") }
	var ts [4]Timer
	for i := range ts {
		ts[i] = e.NewTimer(fn)
	}
	for cycle := 0; cycle < 100000; cycle++ {
		e.Reset()
		for i := range ts {
			if e.Armed(ts[i]) {
				t.Fatalf("cycle %d: timer %d armed across Reset", cycle, i)
			}
			e.Set(ts[i], 101+Time(i))
			e.Schedule(101+Time(i), fn)
		}
		e.Clear(ts[cycle%4])
		e.RunUntil(100)
	}
	if len(e.slots) > 2*len(ts) {
		t.Errorf("after 1e5 cycles: %d slots, want <= %d", len(e.slots), 2*len(ts))
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
// handlers set, re-set and clear timers and schedule one-shot events at
// random, some landing past the horizon, fires the same events in the
// same order on a bounded engine as on an unbounded one run to the same
// horizon, across Resets.
func TestBoundedMatchesUnbounded(t *testing.T) {
	type firing struct {
		at Time
		id int
	}
	type model struct {
		e   Engine
		src *rng.Source
		got []firing
		ts  [8]Timer
	}
	newModel := func(horizon Time) *model {
		m := &model{}
		m.e.SetHorizon(horizon)
		shot := func(e *Engine) { m.got = append(m.got, firing{e.Now(), -1}) }
		for k := range m.ts {
			m.ts[k] = m.e.NewTimer(func(e *Engine) {
				m.got = append(m.got, firing{e.Now(), k})
				for n := m.src.Intn(3); n > 0; n-- {
					e.Set(m.ts[m.src.Intn(len(m.ts))], e.Now()+Time(m.src.Intn(40)))
				}
				if m.src.Bool(0.4) {
					e.Clear(m.ts[m.src.Intn(len(m.ts))])
				}
				if m.src.Bool(0.3) {
					e.ScheduleAfter(Time(m.src.Intn(40)), shot)
				}
			})
		}
		return m
	}
	run := func(m *model, round int) []firing {
		m.src = rng.New(uint64(round) + 1)
		m.got = m.got[:0]
		m.e.Reset()
		for i := 0; i < 5; i++ {
			m.e.Set(m.ts[m.src.Intn(len(m.ts))], Time(m.src.Intn(60)))
		}
		m.e.RunUntil(50)
		return m.got
	}
	bounded, free := newModel(50), newModel(0)
	for round := 0; round < 300; round++ {
		a, b := run(bounded, round), run(free, round)
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
