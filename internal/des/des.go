// Package des is a minimal deterministic discrete-event simulation engine:
// a simulation clock plus a priority queue of timed callbacks.
//
// The Monte Carlo reliability simulator in internal/sim is built on top of
// it. Three properties matter there and shape the design:
//
//   - Determinism. Events at equal times fire in the order they were
//     armed (FIFO tie-break by sequence number), so a trial is a pure
//     function of its random seed.
//   - Cheap re-arming. Fault/repair/audit processes constantly move each
//     other's pending events (a faulty transition redraws every healthy
//     replica's fault arrival). Each process owns a Timer: setting an
//     armed Timer re-keys its one heap entry in place, and clearing it
//     removes the entry at once, so the heap never holds a dead entry.
//   - No allocation at steady state. A worker runs millions of short
//     simulations on one Engine, so arming, firing, clearing and Reset
//     reuse memory instead of allocating it.
//
// A Timer is a slot of the event table bound to one handler for the
// engine's lifetime: NewTimer makes it, Set arms or re-arms it, Clear
// disarms it, and firing disarms it before its handler runs, so the
// handler may Set it again. Set always takes the next sequence number,
// so a re-armed Timer is keyed exactly as a cancelled event followed by
// a freshly scheduled one would be. Schedule arms a one-shot Timer whose
// slot returns to a free list when it fires. The queue is a 4-ary
// min-heap of value entries (time, seq, slot); each slot records its
// entry's heap index, which every sift keeps current.
//
// An engine may be told its horizon (SetHorizon): the time past which
// nothing will ever be run. Such a bounded engine parks a Timer set
// strictly after the horizon: the Timer is armed and takes a sequence
// number, so every queued event keeps the (time, seq) key it would have
// had, but it has no heap entry. RunUntil(h) fires no event later than
// h, so for h up to the horizon a parked event could not have fired:
// parking changes which events the heap holds, never which events fire
// or in what order.
//
// Time is a float64 in hours, consistent with the rest of the repository.
package des

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in hours.
type Time = float64

// Handler is a callback invoked when its event fires. It runs on the
// engine's single logical thread: handlers may arm and clear freely but
// must not retain the engine across goroutines.
type Handler func(e *Engine)

// Timer is a reusable event bound to one handler by NewTimer. Use only
// Timers that NewTimer returned, on the engine that made them.
type Timer struct {
	slot uint32
}

// Slot positions that are not heap indices.
const (
	idle   = -1 // not armed
	parked = -2 // armed past the horizon, not in the heap
)

// slot is one entry of the event table: its handler, the heap index of
// its entry (or idle, or parked), and whether it holds a one-shot event,
// whose slot returns to the free list when the event fires.
type slot struct {
	fn   Handler
	pos  int32
	once bool
}

// entry is a heap element: an event's firing key and its slot.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is a discrete-event scheduler. The zero value is ready to use at
// time 0.
type Engine struct {
	now     Time
	queue   []entry // 4-ary min-heap on (at, seq)
	slots   []slot
	free    []uint32 // one-shot slots not in use
	seq     uint64
	fired   uint64
	stopped bool
	// horizon, when positive, bounds the engine (see SetHorizon).
	horizon Time
	// done, when non-nil, is polled by Run and RunUntil (see SetDone).
	done <-chan struct{}
}

// donePoll is one less than the number of fired events between two
// polls of the done channel: a power of two, so the poll costs one mask
// test per event and a channel check every 1024 events.
const donePoll = 1<<10 - 1

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events that have fired.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued events: armed Timers that are
// not parked, and one-shot events that have not fired.
func (e *Engine) Pending() int { return len(e.queue) }

// NewTimer binds fn to a new, unarmed Timer. Timers survive Reset, so a
// worker binds its handlers once for all the trials it runs.
func (e *Engine) NewTimer(fn Handler) Timer {
	if fn == nil {
		panic("des: NewTimer with nil handler")
	}
	e.slots = append(e.slots, slot{fn: fn, pos: idle})
	return Timer{slot: uint32(len(e.slots) - 1)}
}

// Set arms t to fire at absolute time at, in place of any time it was
// armed for. It takes the next sequence number, so t fires after every
// event already armed for the same instant. It panics if at is before
// the current time or not a finite number: arming into the past is
// always a simulator bug, and failing loudly at the call site is the
// only useful behaviour.
func (e *Engine) Set(t Timer, at Time) {
	if !(at >= e.now && at <= math.MaxFloat64) { // also false for NaN
		panic(fmt.Sprintf("des: event at %v: before now %v or not finite", at, e.now))
	}
	s := &e.slots[t.slot]
	switch {
	case e.horizon > 0 && at > e.horizon:
		e.Clear(t)
		s.pos = parked
	case s.pos >= 0:
		e.fix(int(s.pos), entry{at: at, seq: e.seq, slot: t.slot})
	default:
		e.push(entry{at: at, seq: e.seq, slot: t.slot})
	}
	e.seq++
}

// Clear disarms t, removing its heap entry at once. Clearing an unarmed
// Timer is a no-op, so owners can Clear defensively.
func (e *Engine) Clear(t Timer) {
	s := &e.slots[t.slot]
	if s.pos >= 0 {
		e.remove(int(s.pos))
	}
	s.pos = idle
}

// Armed reports whether t is set to fire: queued, or parked past the
// horizon. A Timer is unarmed once it fires, is cleared, or Reset runs.
func (e *Engine) Armed(t Timer) bool { return e.slots[t.slot].pos != idle }

// Schedule registers fn to run once at absolute time at, on a one-shot
// Timer from the free list. It panics like Set, and on a nil handler.
func (e *Engine) Schedule(at Time, fn Handler) {
	if fn == nil {
		panic("des: Schedule with nil handler")
	}
	var t Timer
	if n := len(e.free); n > 0 {
		t = Timer{slot: e.free[n-1]}
		e.free = e.free[:n-1]
		e.slots[t.slot].fn = fn
	} else {
		t = e.NewTimer(fn)
		e.slots[t.slot].once = true
	}
	e.Set(t, at)
}

// ScheduleAfter registers fn to run once, delay hours from now. Negative
// delays panic; a zero delay fires after all events already armed for
// the current instant (FIFO).
func (e *Engine) ScheduleAfter(delay Time, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("des: ScheduleAfter negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// Step fires the next pending event, advancing the clock to its time. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	top := e.queue[0]
	e.remove(0)
	s := &e.slots[top.slot]
	s.pos = idle
	fn := s.fn
	if s.once {
		s.fn = nil
		e.free = append(e.free, top.slot)
	}
	e.now = top.at
	e.fired++
	fn(e)
	return true
}

// Run fires events until the queue is empty or Stop is called. It
// panics on a bounded engine, whose parked events it would skip.
func (e *Engine) Run() {
	if e.horizon > 0 {
		panic("des: Run on a bounded engine (use RunUntil)")
	}
	e.stopped = false
	for !e.halted() && e.Step() {
	}
}

// RunUntil fires all events due at or before horizon (unless Stop is
// called), then advances the clock to horizon. It panics if horizon is in
// the past, or past the bound of a bounded engine.
func (e *Engine) RunUntil(horizon Time) {
	if horizon < e.now {
		panic(fmt.Sprintf("des: RunUntil horizon %v before now %v", horizon, e.now))
	}
	if e.horizon > 0 && horizon > e.horizon {
		panic(fmt.Sprintf("des: RunUntil %v past the engine's horizon %v", horizon, e.horizon))
	}
	e.stopped = false
	for !e.halted() && len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.Step()
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
}

// Reset returns the engine to its zero state — time 0, empty queue,
// sequence counter 0 — while keeping the queue, the slot table and every
// Timer, so a worker can run millions of short simulations on one Engine
// without allocating. Every Timer is disarmed, parked ones included, and
// pending one-shot events are dropped. The horizon set by SetHorizon
// stays.
func (e *Engine) Reset() {
	e.queue = e.queue[:0]
	e.free = e.free[:0]
	for i := range e.slots {
		s := &e.slots[i]
		s.pos = idle
		if s.once {
			s.fn = nil
			e.free = append(e.free, uint32(i))
		}
	}
	e.now, e.seq, e.fired, e.stopped = 0, 0, 0, false
}

// Stop halts Run/RunUntil after the current handler returns. The queue is
// left intact so the run can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called, or the done channel found
// closed, during the last Run/RunUntil.
func (e *Engine) Stopped() bool { return e.stopped }

// SetDone makes Run and RunUntil poll done every 1024 fired events and
// return early, as if Stop had been called, once it is closed; a nil
// done (the default) is never polled. Polling draws nothing and changes
// no event, so a run that is not interrupted is the run it would have
// been. The channel survives Reset, so a worker sets it once for all the
// trials it runs.
func (e *Engine) SetDone(done <-chan struct{}) { e.done = done }

// halted reports whether the run loop must stop: Stop was called, or
// this is a polling event and done is closed.
func (e *Engine) halted() bool {
	if !e.stopped && e.done != nil && e.fired&donePoll == donePoll {
		select {
		case <-e.done:
			e.stopped = true
		default:
		}
	}
	return e.stopped
}

// SetHorizon bounds the engine at h: from now on an event armed strictly
// after h is parked instead of queued (see the package comment), and
// RunUntil past h and Run panic, because they would skip parked events.
// h == 0 or +Inf removes the bound: nothing is armed after +Inf. The
// bound survives Reset, so a worker sets it once for all the trials it
// runs. It panics if h is negative or NaN.
func (e *Engine) SetHorizon(h Time) {
	if math.IsNaN(h) || h < 0 {
		panic(fmt.Sprintf("des: SetHorizon %v must be >= 0", h))
	}
	if math.IsInf(h, 1) {
		h = 0
	}
	e.horizon = h
}

// push adds x to the heap.
func (e *Engine) push(x entry) {
	e.queue = append(e.queue, x)
	e.fix(len(e.queue)-1, x)
}

// remove deletes the heap entry at index i, filling its hole with the
// last entry. The caller resets the removed entry's slot position.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	x := e.queue[n]
	e.queue = e.queue[:n]
	if i < n {
		e.fix(i, x)
	}
}

// fix puts x into the hole at heap index i, sifting it toward the root
// or, if it does not rise, toward the leaves, and records the new
// position of every entry it places.
func (e *Engine) fix(i int, x entry) {
	q := e.queue
	rose := false
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		e.slots[q[i].slot].pos = int32(i)
		i, rose = p, true
	}
	for n := len(q); !rose; {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		e.slots[q[i].slot].pos = int32(i)
		i = m
	}
	q[i] = x
	e.slots[x.slot].pos = int32(i)
}
