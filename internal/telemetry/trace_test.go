package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"
)

func TestTraceMarksOrdered(t *testing.T) {
	tr := NewTrace()
	if len(tr.ID) != 16 {
		t.Fatalf("trace ID %q, want 16 hex chars", tr.ID)
	}
	for _, name := range []string{"received", "queued", "running", "served"} {
		tr.Mark(name)
	}
	marks := tr.Marks()
	if len(marks) != 4 {
		t.Fatalf("got %d marks, want 4", len(marks))
	}
	for i := 1; i < len(marks); i++ {
		if marks[i].At.Before(marks[i-1].At) {
			t.Errorf("mark %q at %v precedes %q at %v", marks[i].Name, marks[i].At, marks[i-1].Name, marks[i-1].At)
		}
	}
	q, _ := tr.At("queued")
	ru, _ := tr.At("running")
	se, _ := tr.At("served")
	if q.After(ru) || ru.After(se) {
		t.Errorf("span order violated: queued=%v running=%v served=%v", q, ru, se)
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].AtMS < spans[i-1].AtMS {
			t.Errorf("span offsets not monotonic: %+v", spans)
		}
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Mark("anything")
	if tr.Marks() != nil || tr.Spans() != nil && len(tr.Spans()) != 0 {
		t.Error("nil trace should carry no marks")
	}
	if _, ok := tr.At("x"); ok {
		t.Error("nil trace At returned ok")
	}
	if tr.LogAttrs() != nil {
		t.Error("nil trace LogAttrs should be nil")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("TraceFrom did not return the attached trace")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("TraceFrom on empty context should be nil")
	}
	// The nil result must be markable without branching.
	TraceFrom(context.Background()).Mark("noop")
}

// TestTraceLogEmission checks a trace renders as one structured NDJSON
// record with id and spans.
func TestTraceLogEmission(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTrace()
	tr.Mark("received")
	tr.Mark("served")
	logger.LogAttrs(context.Background(), slog.LevelInfo, "request", tr.LogAttrs()...)

	var rec struct {
		Msg     string `json:"msg"`
		Request string `json:"request"`
		Spans   []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if rec.Request != tr.ID {
		t.Errorf("request id = %q, want %q", rec.Request, tr.ID)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].Name != "received" || rec.Spans[1].Name != "served" {
		t.Errorf("spans = %+v", rec.Spans)
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := newTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// A TraceContext answers the trace key itself and defers every other
// key to its parent, so attaching a trace hides nothing the request
// context already carried.
func TestTraceContextDefersOtherKeys(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "parent value")
	tr := NewTrace()
	ctx := &TraceContext{Context: parent, Trace: tr}
	if got := TraceFrom(ctx); got != tr {
		t.Error("TraceFrom did not return the carried trace")
	}
	if got := ctx.Value(key{}); got != "parent value" {
		t.Errorf("Value(parent key) = %v, want the parent's value", got)
	}
}
