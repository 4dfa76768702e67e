package des

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func(*Engine) { order = append(order, 3) })
	e.Schedule(1, func(*Engine) { order = append(order, 1) })
	e.Schedule(2, func(*Engine) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("firing order = %v, want [1 2 3]", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("fired = %d, want 3", e.Fired())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: order = %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func(*Engine) {})
}

func TestScheduleInvalidPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(e *Engine)
	}{
		{"nan", func(e *Engine) { e.Schedule(nan(), func(*Engine) {}) }},
		{"nil handler", func(e *Engine) { e.Schedule(1, nil) }},
		{"negative delay", func(e *Engine) { e.ScheduleAfter(-1, func(*Engine) {}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			var e Engine
			c.f(&e)
		})
	}
}

func nan() float64 {
	v := 0.0
	return v / v
}

func TestHandlerSchedulesMore(t *testing.T) {
	var e Engine
	var times []Time
	var chain func(e *Engine)
	chain = func(e *Engine) {
		times = append(times, e.Now())
		if len(times) < 5 {
			e.ScheduleAfter(2, chain)
		}
	}
	e.Schedule(1, chain)
	e.Run()
	want := []Time{1, 3, 5, 7, 9}
	if len(times) != len(want) {
		t.Fatalf("chain times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("chain times = %v, want %v", times, want)
		}
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	tm := e.NewTimer(func(*Engine) { fired = true })
	e.Set(tm, 1)
	e.Clear(tm)
	if e.Armed(tm) {
		t.Error("cleared timer still armed")
	}
	e.Run()
	if fired {
		t.Error("cleared timer fired")
	}
	// Clearing again, and after the run, is a no-op.
	e.Clear(tm)
}

func TestCancelFromHandler(t *testing.T) {
	var e Engine
	var secondFired bool
	second := e.NewTimer(func(*Engine) { secondFired = true })
	e.Schedule(1, func(e *Engine) { e.Clear(second) })
	e.Set(second, 2)
	e.Run()
	if secondFired {
		t.Error("timer cleared by an earlier handler still fired")
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []Time
	for _, at := range []Time{1, 5, 10, 15} {
		at := at
		e.Schedule(at, func(e *Engine) { fired = append(fired, e.Now()) })
	}
	e.RunUntil(10)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1,5,10", fired)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// Continue to the rest.
	e.RunUntil(20)
	if len(fired) != 4 || e.Now() != 20 {
		t.Errorf("after second RunUntil: fired=%v now=%v", fired, e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var e Engine
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Errorf("idle clock = %v, want 42", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil into the past did not panic")
		}
	}()
	e.RunUntil(41)
}

func TestStop(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func(e *Engine) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("events fired = %d, want 3 (stopped)", count)
	}
	if !e.Stopped() {
		t.Error("engine should report stopped")
	}
	// Resume processes the rest.
	e.Run()
	if count != 10 {
		t.Errorf("after resume, events fired = %d, want 10", count)
	}
}

func TestStopDuringRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i), func(e *Engine) {
			count++
			e.Stop()
		})
	}
	e.RunUntil(10)
	if count != 1 {
		t.Errorf("fired %d, want 1", count)
	}
	// The clock must not jump to the horizon when stopped early.
	if e.Now() != 1 {
		t.Errorf("clock = %v, want 1 (stopped before horizon)", e.Now())
	}
}

// A closed done channel stops an endless Run or RunUntil at the first
// poll; an open one changes nothing.
func TestSetDoneInterrupts(t *testing.T) {
	var tick Handler
	tick = func(e *Engine) { e.ScheduleAfter(1, tick) }
	done := make(chan struct{})

	var e Engine
	e.SetDone(done)
	e.Schedule(0, tick)
	e.RunUntil(5000)
	if e.Stopped() || e.Fired() != 5001 || e.Now() != 5000 {
		t.Fatalf("open done: stopped %v after %d events at %v, want a full run of 5001 to 5000",
			e.Stopped(), e.Fired(), e.Now())
	}

	close(done)
	for _, bounded := range []bool{false, true} {
		e.Reset()
		if bounded {
			e.SetHorizon(1e9)
		}
		e.Schedule(0, tick)
		if bounded {
			e.RunUntil(1e9)
		} else {
			e.Run()
		}
		if !e.Stopped() {
			t.Fatalf("bounded %v: run not stopped", bounded)
		}
		if e.Fired() != donePoll {
			t.Errorf("bounded %v: %d events fired before the poll, want %d", bounded, e.Fired(), donePoll)
		}
		if e.Now() >= 1e9 {
			t.Errorf("bounded %v: clock jumped to the horizon after an interrupt", bounded)
		}
	}
}

func TestDeterministicUnderPermutation(t *testing.T) {
	// The firing order depends only on (time, scheduling order), so two
	// engines given the same schedule produce identical traces.
	f := func(rawTimes []uint16) bool {
		if len(rawTimes) == 0 {
			return true
		}
		times := make([]Time, len(rawTimes))
		for i, r := range rawTimes {
			times[i] = Time(r % 100)
		}
		run := func() []Time {
			var e Engine
			var trace []Time
			for _, at := range times {
				at := at
				e.Schedule(at, func(e *Engine) { trace = append(trace, e.Now()) })
			}
			e.Run()
			return trace
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return sort.Float64sAreSorted(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroDelayFIFO(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(1, func(e *Engine) {
		order = append(order, "first")
		e.ScheduleAfter(0, func(*Engine) { order = append(order, "chained") })
	})
	e.Schedule(1, func(*Engine) { order = append(order, "second") })
	e.Run()
	want := []string{"first", "second", "chained"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestClearRemovesEntry: clearing a timer takes its heap entry out at
// once, so Pending counts only events that can still fire.
func TestClearRemovesEntry(t *testing.T) {
	var e Engine
	tm := e.NewTimer(func(*Engine) { t.Error("cleared timer fired") })
	e.Set(tm, 1)
	e.Schedule(2, func(*Engine) {})
	e.Clear(tm)
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("pending after run = %d, want 0", e.Pending())
	}
	if e.Fired() != 1 {
		t.Errorf("fired = %d, want 1", e.Fired())
	}
}
