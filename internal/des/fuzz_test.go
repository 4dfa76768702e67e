package des

import (
	"slices"
	"testing"
)

// FuzzEngine reads its input as a program of engine operations, two
// bytes each (an opcode byte and an argument), runs it on an Engine and
// on a naive reference that keeps every event in a list and fires the
// least (at, seq), and requires the two to agree after every operation:
// the same firings in the same order, the same Now and Fired, the same
// Armed for every timer, and a Pending equal to the reference's queued
// events, so the heap never holds a stale entry. Handlers act too, so
// Set, Clear and Schedule also run from inside Step and RunUntil.
// Times are small integers, so ties are common.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &engineRun{t: t}
		for i := 0; i+1 < len(prog); i += 2 {
			r.op(prog[i], prog[i+1])
			r.check(i / 2)
		}
	})
}

// maxFuzzTimers bounds the timers a program can make.
const maxFuzzTimers = 16

// refEvent is one event of the reference engine.
type refEvent struct {
	at     Time
	seq    uint64
	armed  bool // a timer that is set, or a one-shot that has not fired
	queued bool // armed and not parked past the horizon
}

// engineRun drives an Engine and its reference in lockstep. Timer k
// fires as id k, the j-th one-shot since the last Reset as id -1-j.
type engineRun struct {
	t      *testing.T
	e      Engine
	timers []Timer
	shots  int // one-shots scheduled on e since its last Reset
	got    []int

	now, horizon Time
	seq, fired   uint64
	refTimers    []refEvent
	refShots     []refEvent
	want         []int
}

// op applies one operation to both engines. Arguments are clamped to
// valid calls: the panics are tested elsewhere.
func (r *engineRun) op(code, arg byte) {
	k := int(code >> 3)
	delay := Time(arg % 16)
	switch code % 8 {
	case 0:
		if len(r.timers) < maxFuzzTimers {
			r.newTimer()
		}
	case 1:
		if len(r.timers) > 0 {
			k %= len(r.timers)
			r.e.Set(r.timers[k], r.now+delay)
			r.arm(&r.refTimers[k], r.now+delay)
		}
	case 2:
		if len(r.timers) > 0 {
			k %= len(r.timers)
			r.e.Clear(r.timers[k])
			r.refTimers[k] = refEvent{}
		}
	case 3:
		r.schedule(r.now + delay)
		r.refSchedule(r.now + delay)
	case 4:
		want := r.refStep()
		if got := r.e.Step(); got != want {
			r.t.Fatalf("Step = %v, reference %v", got, want)
		}
	case 5:
		h := r.now + Time(arg%32)
		if r.horizon > 0 && h > r.horizon {
			h = r.horizon
		}
		if h >= r.now {
			r.e.RunUntil(h)
			r.refRunUntil(h)
		}
	case 6:
		r.e.Reset()
		r.shots = 0
		r.now, r.seq, r.fired = 0, 0, 0
		clear(r.refTimers)
		r.refShots = r.refShots[:0]
	case 7:
		h := r.now + Time(arg%32)
		if arg%4 == 0 {
			h = 0
		}
		r.e.SetHorizon(h)
		r.horizon = h
	}
}

// newTimer makes timer k on both engines. Its handler records the
// firing and then, by k mod 4, re-arms itself, schedules a one-shot, or
// clears timer k-1; refStep mirrors it.
func (r *engineRun) newTimer() {
	k := len(r.timers)
	r.timers = append(r.timers, r.e.NewTimer(func(e *Engine) {
		r.got = append(r.got, k)
		switch k % 4 {
		case 1:
			e.Set(r.timers[k], e.Now()+Time(k%3+1))
		case 2:
			r.schedule(e.Now() + 2)
		case 3:
			e.Clear(r.timers[k-1])
		}
	}))
	r.refTimers = append(r.refTimers, refEvent{})
}

// schedule adds a one-shot event to the Engine.
func (r *engineRun) schedule(at Time) {
	id := -1 - r.shots
	r.shots++
	r.e.Schedule(at, func(*Engine) { r.got = append(r.got, id) })
}

// arm sets a reference event at at with the next sequence number.
func (r *engineRun) arm(ev *refEvent, at Time) {
	*ev = refEvent{at: at, seq: r.seq, armed: true, queued: r.horizon == 0 || at <= r.horizon}
	r.seq++
}

func (r *engineRun) refSchedule(at Time) {
	r.refShots = append(r.refShots, refEvent{})
	r.arm(&r.refShots[len(r.refShots)-1], at)
}

// refNext returns the reference's queued event with the least (at, seq)
// and its id, or nil.
func (r *engineRun) refNext() (*refEvent, int) {
	var best *refEvent
	id := 0
	consider := func(ev *refEvent, evID int) {
		if ev.queued && (best == nil || ev.at < best.at || ev.at == best.at && ev.seq < best.seq) {
			best, id = ev, evID
		}
	}
	for k := range r.refTimers {
		consider(&r.refTimers[k], k)
	}
	for j := range r.refShots {
		consider(&r.refShots[j], -1-j)
	}
	return best, id
}

// refStep fires the reference's next event and reports whether there
// was one.
func (r *engineRun) refStep() bool {
	ev, id := r.refNext()
	if ev == nil {
		return false
	}
	r.now = ev.at
	r.fired++
	*ev = refEvent{}
	r.want = append(r.want, id)
	if id >= 0 {
		switch id % 4 {
		case 1:
			r.arm(&r.refTimers[id], r.now+Time(id%3+1))
		case 2:
			r.refSchedule(r.now + 2)
		case 3:
			r.refTimers[id-1] = refEvent{}
		}
	}
	return true
}

func (r *engineRun) refRunUntil(h Time) {
	for {
		if ev, _ := r.refNext(); ev == nil || ev.at > h {
			break
		}
		r.refStep()
	}
	r.now = max(r.now, h)
}

// check compares the Engine with the reference after operation n.
func (r *engineRun) check(n int) {
	t := r.t
	if !slices.Equal(r.got, r.want) {
		t.Fatalf("op %d: fired %v, reference %v", n, r.got, r.want)
	}
	if r.e.Now() != r.now || r.e.Fired() != r.fired {
		t.Fatalf("op %d: now %v fired %d, reference %v and %d", n, r.e.Now(), r.e.Fired(), r.now, r.fired)
	}
	queued := 0
	for k, tm := range r.timers {
		if got, want := r.e.Armed(tm), r.refTimers[k].armed; got != want {
			t.Fatalf("op %d: timer %d armed %v, reference %v", n, k, got, want)
		}
		if r.refTimers[k].queued {
			queued++
		}
	}
	for _, ev := range r.refShots {
		if ev.queued {
			queued++
		}
	}
	if r.e.Pending() != queued {
		t.Fatalf("op %d: Pending %d, reference queues %d", n, r.e.Pending(), queued)
	}
}
