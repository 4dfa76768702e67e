package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value", "note")
	if err := tb.AddRow("alpha", 0.1, "correlated"); err != nil {
		t.Fatal(err)
	}
	tb.MustAddRow("mttdl", 6128.7, "years")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Demo", "name", "value", "alpha", "0.1000", "6128.7", "years"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Errorf("render has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableShapeError(t *testing.T) {
	tb := NewTable("x", "a", "b")
	if err := tb.AddRow(1); err == nil {
		t.Error("short row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow did not panic on shape error")
		}
	}()
	tb.MustAddRow(1, 2, 3)
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{1.4e6, "1.4e+06"},
		{6128.7, "6128.7"},
		{32.0, "32.00"},
		{0.79, "0.7900"},
		{0.0001234, "0.000123"},
		{-42.5, "-42.50"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestLinePlotRender(t *testing.T) {
	var p LinePlot
	p.Title = "MTTDL vs replicas"
	p.XLabel = "replicas"
	p.YLabel = "MTTDL"
	p.LogY = true
	p.MustAdd(Series{Name: "alpha=1", X: []float64{1, 2, 3}, Y: []float64{10, 1000, 100000}})
	p.MustAdd(Series{Name: "alpha=0.1", X: []float64{1, 2, 3}, Y: []float64{10, 100, 1000}})
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"MTTDL vs replicas", "legend:", "alpha=1", "alpha=0.1", "*", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q in:\n%s", want, out)
		}
	}
}

func TestLinePlotErrors(t *testing.T) {
	var p LinePlot
	if err := p.Render(&strings.Builder{}); err == nil {
		t.Error("empty plot rendered")
	}
	if err := p.Add(Series{Name: "bad", X: []float64{1}, Y: nil}); err == nil {
		t.Error("mismatched series accepted")
	}
	// Series with only non-plottable points.
	var q LinePlot
	q.LogY = true
	q.MustAdd(Series{Name: "neg", X: []float64{1}, Y: []float64{-5}})
	if err := q.Render(&strings.Builder{}); err == nil {
		t.Error("plot with no plottable points rendered")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic")
		}
	}()
	p.MustAdd(Series{Name: "bad", X: nil, Y: nil})
}

func TestLinePlotDegenerateRanges(t *testing.T) {
	var p LinePlot
	p.MustAdd(Series{Name: "flat", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}})
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatalf("flat series failed to render: %v", err)
	}
	var q LinePlot
	q.MustAdd(Series{Name: "point", X: []float64{1}, Y: []float64{1}})
	sb.Reset()
	if err := q.Render(&sb); err != nil {
		t.Fatalf("single point failed to render: %v", err)
	}
}

func TestLinePlotSkipsInvalidPoints(t *testing.T) {
	var p LinePlot
	p.LogX = true
	p.MustAdd(Series{
		Name: "mixed",
		X:    []float64{0, 1, 10, math.NaN()},
		Y:    []float64{1, 2, 3, 4},
	})
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatalf("mixed-validity series failed: %v", err)
	}
}
