package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// span is one timed interval of the traced pass. Spans of one operation
// share a root: a child names the span that caused it in Parent (0 for a
// root).
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
}

// tracer keeps the traced pass's spans in memory until the run ends. A
// nil *tracer records nothing, so the untraced pass runs the same code
// with every span call a no-op.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// start opens a span now. On a nil tracer it returns an inert span whose
// ID is 0.
func (t *tracer) start(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

func (s openSpan) ID() int64 { return s.id }

func (s openSpan) end() {
	if s.t != nil {
		s.t.record(s.id, s.name, s.parent, s.start, time.Now())
	}
}

// record adds a span whose interval was measured elsewhere (a progress
// batch, an HTTP request timed by the load generator). id 0 allocates a
// fresh one.
func (t *tracer) record(id int64, name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	sp := span{ID: id, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// table returns per-name totals with self time: each span's duration
// minus the part of its interval covered by its children (overlapping
// children count once).
func (t *tracer) table() []spanStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.EndNS - s.StartNS
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(children[s.ID], s.StartNS, s.EndNS))
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// printTable writes the self-time table.
func (t *tracer) printTable(w io.Writer) {
	fmt.Fprintf(w, "# spans: %-26s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, st := range t.table() {
		fmt.Fprintf(w, "# spans: %-26s %8d %12.3f %12.3f\n", st.Name, st.Count,
			float64(st.Total.Nanoseconds())/1e6, float64(st.Self.Nanoseconds())/1e6)
	}
}

// write saves every span as {"spans": [...]}.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// missLog is the daemon's request log as the traced pass reads it: a
// slog.Handler given to service.Config.Logger that keeps, for each
// /estimate the daemon actually simulated (cache "miss"), the
// queued→running wait and the running→encoded run time from the
// request's span timeline.
type missLog struct {
	mu             sync.Mutex
	queueWait, run []float64 // ms
}

func (l *missLog) Enabled(context.Context, slog.Level) bool { return true }

func (l *missLog) Handle(_ context.Context, r slog.Record) error {
	var cache string
	var spans []telemetry.Span
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "cache":
			cache = a.Value.String()
		case "spans":
			spans, _ = a.Value.Any().([]telemetry.Span)
		}
		return true
	})
	if cache != "miss" {
		return nil
	}
	at := make(map[string]float64, len(spans))
	for _, s := range spans {
		at[s.Name] = s.AtMS
	}
	queued, ok1 := at["queued"]
	running, ok2 := at["running"]
	encoded, ok3 := at["encoded"]
	if ok1 && ok2 && ok3 {
		l.mu.Lock()
		l.queueWait = append(l.queueWait, running-queued)
		l.run = append(l.run, encoded-running)
		l.mu.Unlock()
	}
	return nil
}

func (l *missLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *missLog) WithGroup(string) slog.Handler      { return l }
