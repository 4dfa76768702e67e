package des

import (
	"sort"
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

// TestStaleHandleCannotCancelReusedSlot checks generation safety: a
// Handle whose event fired, or that Reset freed, must not cancel the
// event that has since taken over its slot.
func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	t.Run("after fire", func(t *testing.T) {
		var e Engine
		old := e.Schedule(1, func(*Engine) {})
		e.Run()
		fired := false
		fresh := e.Schedule(2, func(*Engine) { fired = true })
		if fresh.slot != old.slot {
			t.Fatalf("slot not reused: old %d, fresh %d", old.slot, fresh.slot)
		}
		e.Cancel(old)
		if e.Cancelled(fresh) {
			t.Fatal("stale handle cancelled the event reusing its slot")
		}
		e.Run()
		if !fired {
			t.Error("event reusing a fired handle's slot did not fire")
		}
	})
	t.Run("after reset", func(t *testing.T) {
		var e Engine
		old := e.Schedule(5, func(*Engine) { t.Error("event pending at Reset fired") })
		e.Reset()
		if !e.Cancelled(old) {
			t.Error("Reset left a handle pending")
		}
		fired := false
		fresh := e.Schedule(1, func(*Engine) { fired = true })
		if fresh.slot != old.slot {
			t.Fatalf("slot not reused: old %d, fresh %d", old.slot, fresh.slot)
		}
		e.Cancel(old)
		e.Run()
		if !fired {
			t.Error("stale handle from before Reset cancelled the event reusing its slot")
		}
		if e.Pending() != 0 || e.Fired() != 1 {
			t.Errorf("pending %d fired %d, want 0 and 1", e.Pending(), e.Fired())
		}
	})
}

// TestRandomScheduleCancelMatchesReference is a model check: random
// schedules (coarse times, so ties are common) interleaved with random
// cancels of live, fired and cancelled handles, across Resets of one
// engine, must fire exactly the uncancelled events in (time, scheduling
// order), the order a reference sort gives.
func TestRandomScheduleCancelMatchesReference(t *testing.T) {
	type ref struct {
		at        Time
		seq       int
		cancelled bool
	}
	src := rng.New(2024)
	var e Engine
	for round := 0; round < 200; round++ {
		e.Reset()
		var refs []ref
		var handles []Handle
		var got []int
		n := 1 + src.Intn(300)
		for len(refs) < n {
			if len(handles) > 0 && src.Bool(0.3) {
				i := src.Intn(len(handles))
				e.Cancel(handles[i])
				refs[i].cancelled = true
				continue
			}
			seq := len(refs)
			refs = append(refs, ref{at: Time(src.Intn(50)), seq: seq})
			handles = append(handles, e.Schedule(refs[seq].at, func(*Engine) { got = append(got, seq) }))
		}
		// Fire part of the run, then cancel at random again: handles of
		// fired events must be inert.
		e.RunUntil(25)
		for i := 0; i < n/4; i++ {
			j := src.Intn(n)
			if refs[j].at > 25 {
				refs[j].cancelled = true
			}
			e.Cancel(handles[j])
		}
		e.Run()

		var want []int
		sort.SliceStable(refs, func(i, j int) bool { return refs[i].at < refs[j].at })
		for _, r := range refs {
			if !r.cancelled {
				want = append(want, r.seq)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: fired %d events, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: firing %d is event %d, want %d", round, i, got[i], want[i])
			}
		}
	}
}
