// Package des is a minimal deterministic discrete-event simulation engine:
// a simulation clock plus a priority queue of scheduled callbacks.
//
// The Monte Carlo reliability simulator in internal/sim is built on top of
// it. Three properties matter there and shape the design:
//
//   - Determinism. Events at equal times fire in scheduling order (FIFO
//     tie-break by sequence number), so a trial is a pure function of its
//     random seed.
//   - Cheap cancellation. Fault/repair/audit processes constantly
//     invalidate each other's pending events (a repaired replica cancels
//     its pending second-fault event). Cancellation is O(1).
//   - No allocation at steady state. A worker runs millions of short
//     simulations on one Engine, so scheduling, firing, cancelling and
//     Reset reuse memory instead of allocating it.
//
// Events live in a slot table. Each slot holds the event's handler, a
// generation counter and a free-list link. A Handle is the value pair
// (slot, generation); firing or cancelling an event bumps its slot's
// generation and returns the slot to the free list, so a stale Handle —
// one whose event fired, was cancelled or was freed by Reset — no longer
// matches its slot and is harmless to keep and to Cancel. The queue is a
// 4-ary min-heap of value entries (time, seq, slot, generation); an entry
// whose generation no longer matches its slot is dropped lazily when it
// reaches the top.
//
// An engine may be told its horizon (SetHorizon): the time past which
// nothing will ever be run. Such a bounded engine parks an event
// scheduled strictly after the horizon: the event takes a slot, so its
// Handle is pending and can be cancelled like any other, and it takes a
// sequence number, so every queued event keeps the (time, seq) key it
// would have had, but it never enters the heap. RunUntil(h) fires no
// event later than h, so for h up to the horizon a parked event could
// not have fired: parking changes which events the heap holds, never
// which events fire or in what order.
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
// engine's single logical thread: handlers may schedule and cancel freely
// but must not retain the engine across goroutines.
type Handler func(e *Engine)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle means "no event": generations start at 1, so it never matches a
// slot.
type Handle struct {
	slot, gen uint32
}

// slot is one entry of the event table: the pending event's handler,
// the generation its Handle carries, and the next free slot (index+1, 0
// ends the list) while it is free.
type slot struct {
	fn   Handler
	gen  uint32
	next uint32
}

// entry is a heap element: an event's firing key plus the slot and
// generation that say whether it is still live.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
	gen  uint32
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
	free    uint32 // first free slot, index+1; 0 when none is free
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

// Pending returns the number of queued (possibly cancelled but not yet
// dropped) events. Events parked past the horizon are not queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule registers fn to run at absolute time at. It panics if at is
// before the current time or not a finite number: scheduling into the past
// is always a simulator bug, and failing loudly at the call site is the
// only useful behaviour.
func (e *Engine) Schedule(at Time, fn Handler) Handle {
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("des: Schedule at non-finite time %v", at))
	}
	if at < e.now {
		panic(fmt.Sprintf("des: Schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("des: Schedule with nil handler")
	}
	if e.horizon > 0 && at > e.horizon {
		return e.park()
	}
	i := e.alloc()
	s := &e.slots[i]
	s.fn = fn
	e.push(entry{at: at, seq: e.seq, slot: i, gen: s.gen})
	e.seq++
	return Handle{slot: i, gen: s.gen}
}

// alloc takes a slot off the free list, growing the table when none is
// free, and returns its index.
func (e *Engine) alloc() uint32 {
	if e.free == 0 {
		e.slots = append(e.slots, slot{gen: 1})
		return uint32(len(e.slots) - 1)
	}
	i := e.free - 1
	e.free = e.slots[i].next
	return i
}

// ScheduleAfter registers fn to run delay hours from now. Negative delays
// panic; a zero delay fires after all events already scheduled for the
// current instant (FIFO).
func (e *Engine) ScheduleAfter(delay Time, fn Handler) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: ScheduleAfter negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// Cancel prevents h's event from firing. Cancelling the zero Handle or a
// Handle whose event already fired, was cancelled or was freed by Reset
// is a no-op, so owners can Cancel defensively.
func (e *Engine) Cancel(h Handle) {
	if !e.Cancelled(h) {
		e.release(h.slot)
	}
}

// Cancelled reports whether h's event is no longer pending: it was
// cancelled, it fired, or Reset freed it. The zero Handle is never
// pending. Slots are reused, so this cannot tell those cases apart.
func (e *Engine) Cancelled(h Handle) bool {
	return int(h.slot) >= len(e.slots) || e.slots[h.slot].gen != h.gen
}

// release retires slot i's event: the generation bump makes its Handle
// and heap entry stale, and the slot goes back on the free list.
func (e *Engine) release(i uint32) {
	s := &e.slots[i]
	s.fn = nil
	if s.gen++; s.gen == 0 { // skip 0 on wrap-around: it is the zero Handle's
		s.gen = 1
	}
	s.next = e.free
	e.free = i + 1
}

// Step fires the next pending event, advancing the clock to its time. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	if !e.dropStale() {
		return false
	}
	ev := e.pop()
	fn := e.slots[ev.slot].fn
	e.release(ev.slot)
	e.now = ev.at
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

// RunUntil fires all events scheduled at or before horizon (unless Stop is
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
	for !e.halted() && e.dropStale() && e.queue[0].at <= horizon {
		e.Step()
	}
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
}

// Reset returns the engine to its zero state — time 0, empty queue,
// sequence counter 0 — while keeping the queue and slot table, so a
// worker can run millions of short simulations on one Engine without
// allocating. Every slot is released, so still-pending events, parked
// ones included, are freed like cancelled ones and every Handle issued
// before the call becomes stale. The horizon set by SetHorizon stays.
func (e *Engine) Reset() {
	e.queue = e.queue[:0]
	e.free = 0
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.release(uint32(i))
	}
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.fired = 0
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

// SetHorizon bounds the engine at h: from now on an event scheduled
// strictly after h is parked instead of queued (see the package
// comment), and RunUntil past h and Run panic, because they would skip
// parked events. h == 0 or +Inf removes the bound: nothing is scheduled
// after +Inf. The bound survives Reset, so a worker sets it once for all
// the trials it runs. It panics if h is negative or NaN.
func (e *Engine) SetHorizon(h Time) {
	if math.IsNaN(h) || h < 0 {
		panic(fmt.Sprintf("des: SetHorizon %v must be >= 0", h))
	}
	if math.IsInf(h, 1) {
		h = 0
	}
	e.horizon = h
}

// dropStale pops cancelled entries off the top of the heap and reports
// whether a live event remains.
func (e *Engine) dropStale() bool {
	for len(e.queue) > 0 {
		if top := &e.queue[0]; e.slots[top.slot].gen == top.gen {
			return true
		}
		e.pop()
	}
	return false
}

// push adds x to the heap, sifting it up toward the root.
func (e *Engine) push(x entry) {
	e.queue = append(e.queue, x)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes and returns the heap's minimum, sifting the last entry
// down from the root into the hole.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
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
		i = m
	}
	q[i] = x
	return top
}

// park schedules an event past the horizon: it takes a slot and a
// sequence number like a queued one but never enters the heap. Reset
// frees its slot with every other.
func (e *Engine) park() Handle {
	i := e.alloc()
	e.seq++
	return Handle{slot: i, gen: e.slots[i].gen}
}
