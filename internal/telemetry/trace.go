package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync"
	"time"
)

// Trace is one request's span timeline: an ID plus ordered named marks
// (received → resolved → queued → running → encoded → served in the
// simulation service). A nil *Trace is a valid no-op receiver, so code
// can mark unconditionally whether or not a trace rides the context.
//
// A trace is never reused: work a request hands off (a scheduler job)
// may still mark it after the request has been answered.
type Trace struct {
	// ID is the request identifier, returned to clients in the
	// X-Ltsimd-Request header and stamped on every log record.
	ID string
	// Start anchors the timeline; marks are reported as offsets from it.
	Start time.Time

	random [8]byte // the randomness ID encodes

	mu    sync.Mutex
	marks []Mark
	// inline backs the first marks of a begun trace, as many as an
	// /estimate records, so marking a request allocates nothing; later
	// marks spill to the heap.
	inline [6]Mark
}

// Mark is one named point on a trace's timeline.
type Mark struct {
	Name string
	At   time.Time
}

// Span is a mark rendered for logging: its offset from the trace start
// in milliseconds.
type Span struct {
	Name string  `json:"name"`
	AtMS float64 `json:"at_ms"`
}

// NewTrace starts a trace now with a fresh random ID.
func NewTrace() *Trace {
	t := new(Trace)
	t.Begin()
	return t
}

// Begin starts t, a zero Trace, now with a fresh random ID. It lets a
// trace live inside a larger per-request object instead of in an
// allocation of its own; NewTrace is Begin on a new Trace.
func (t *Trace) Begin() {
	t.ID = traceID(&t.random)
	t.Start = time.Now()
	t.marks = t.inline[:0]
}

// newTraceID returns 16 hex characters of crypto randomness.
func newTraceID() string { return traceID(new([8]byte)) }

// traceID draws b from crypto randomness and returns it as 16 hex
// characters. Begin draws into its trace, so the race runtime, which
// moves a buffer handed to crypto/rand to the heap, allocates nothing
// more for it.
func traceID(b *[8]byte) string {
	// crypto/rand.Read never fails on supported platforms (it aborts the
	// program instead), so the error is genuinely unreachable.
	rand.Read(b[:])
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// Mark appends a named point at the current time. Safe on a nil trace
// and from concurrent goroutines (the scheduler worker marks "running"
// while the request goroutine may be marking its own points).
func (t *Trace) Mark(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.marks = append(t.marks, Mark{Name: name, At: time.Now()})
	t.mu.Unlock()
}

// Marks returns a copy of the timeline in mark order.
func (t *Trace) Marks() []Mark {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Mark(nil), t.marks...)
}

// At returns the first mark with the given name.
func (t *Trace) At(name string) (time.Time, bool) {
	if t == nil {
		return time.Time{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.marks {
		if m.Name == name {
			return m.At, true
		}
	}
	return time.Time{}, false
}

// Spans renders the timeline as offsets from Start, for structured
// logging ({"name":"queued","at_ms":1.42}, ...).
func (t *Trace) Spans() []Span {
	marks := t.Marks()
	spans := make([]Span, len(marks))
	for i, m := range marks {
		spans[i] = Span{Name: m.Name, AtMS: float64(m.At.Sub(t.Start).Nanoseconds()) / 1e6}
	}
	return spans
}

// LogAttrs returns the trace's standard log attributes: its ID and the
// span timeline.
func (t *Trace) LogAttrs() []slog.Attr {
	if t == nil {
		return nil
	}
	return []slog.Attr{slog.String("request", t.ID), slog.Any("spans", t.Spans())}
}

// ctxKey is the context key type for traces.
type ctxKey struct{}

// TraceContext is a context that carries a trace: Value answers the
// trace key with Trace and defers every other key to the embedded
// parent. WithTrace allocates one; a per-request object can hold one by
// value instead, so attaching its trace allocates nothing.
type TraceContext struct {
	context.Context
	Trace *Trace
}

// Value returns the carried trace for the trace key, and otherwise the
// parent's value.
func (c *TraceContext) Value(key any) any {
	if key == (ctxKey{}) {
		return c.Trace
	}
	return c.Context.Value(key)
}

// WithTrace attaches t to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return &TraceContext{Context: ctx, Trace: t}
}

// TraceFrom returns the context's trace, or nil — and nil is safe to
// Mark, so callers never need to branch.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
