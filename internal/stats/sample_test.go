package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSampleQuantiles(t *testing.T) {
	s := NewSample([]float64{15, 20, 35, 40, 50})
	cases := []struct{ p, want float64 }{
		{0, 15}, {1, 50}, {0.5, 35},
		{0.25, 20}, {0.75, 40},
		{0.1, 17}, // interpolated: 15 + 0.4*(20-15)
	}
	for _, c := range cases {
		got, err := s.Quantile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSampleQuantileErrors(t *testing.T) {
	empty := NewSample(nil)
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("quantile of empty sample should fail")
	}
	s := NewSample([]float64{1, 2})
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(p); err == nil {
			t.Errorf("Quantile(%v) should fail", p)
		}
	}
}

func TestSampleSingleValue(t *testing.T) {
	s := NewSample([]float64{7})
	for _, p := range []float64{0, 0.3, 1} {
		got, err := s.Quantile(p)
		if err != nil || got != 7 {
			t.Errorf("Quantile(%v) = %v, %v; want 7, nil", p, got, err)
		}
	}
}

func TestSampleAddAndMedian(t *testing.T) {
	s := NewSample(nil)
	for _, v := range []float64{9, 1, 5} {
		s.Add(v)
	}
	m, err := s.Median()
	if err != nil {
		t.Fatal(err)
	}
	if m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	// Adding after a sort must invalidate the cached order.
	s.Add(0)
	m, err = s.Quantile(0)
	if err != nil || m != 0 {
		t.Errorf("min after Add = %v, want 0", m)
	}
}

func TestSampleDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	s := NewSample(in)
	in[0] = 100
	if got, _ := s.Quantile(1); got != 3 {
		t.Errorf("sample aliased caller slice: max = %v, want 3", got)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	src := rng.New(9)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = normal(src, 50, 10)
	}
	s := NewSample(xs)
	iv, err := s.BootstrapMeanCI(0.95, 500, src)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(s.Mean()) {
		t.Errorf("bootstrap CI %+v should contain sample mean %v", iv, s.Mean())
	}
	// Width should be close to the Student-t width for normal data.
	var r Running
	r.AddAll(xs)
	tIv, err := r.MeanCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := iv.HalfWidth() / tIv.HalfWidth(); ratio < 0.7 || ratio > 1.4 {
		t.Errorf("bootstrap/t interval width ratio = %v, want ~1", ratio)
	}
}

func TestBootstrapErrors(t *testing.T) {
	src := rng.New(10)
	if _, err := NewSample([]float64{1}).BootstrapMeanCI(0.95, 100, src); err == nil {
		t.Error("bootstrap on 1 observation should fail")
	}
	if _, err := NewSample([]float64{1, 2, 3}).BootstrapMeanCI(0.95, 5, src); err == nil {
		t.Error("bootstrap with 5 resamples should fail")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, 0, 1.9, 2, 9.999, 10, 42} {
		h.Add(v)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin 0 count = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Errorf("bin 1 count = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.999
		t.Errorf("bin 4 count = %d, want 1", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Errorf("total = %d, want 7", h.Total())
	}
	lo, hi := h.BinBounds(1)
	if lo != 2 || hi != 4 {
		t.Errorf("BinBounds(1) = [%v, %v), want [2, 4)", lo, hi)
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewLogHistogram(0, 100, 4); err == nil {
		t.Error("log histogram with lo=0 accepted")
	}
}

func TestLogHistogram(t *testing.T) {
	h, err := NewLogHistogram(1, 10000, 4) // decades: [1,10), [10,100), ...
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 20, 200, 2000, 0.5, -3, 1e6} {
		h.Add(v)
	}
	for i := 0; i < 4; i++ {
		if h.Counts[i] != 1 {
			t.Errorf("decade bin %d count = %d, want 1", i, h.Counts[i])
		}
	}
	if h.Under != 2 { // 0.5 (below range) and -3 (non-positive)
		t.Errorf("under = %d, want 2", h.Under)
	}
	if h.Over != 1 {
		t.Errorf("over = %d, want 1", h.Over)
	}
	lo, hi := h.BinBounds(2)
	if !almostEqual(lo, 100, 1e-9) || !almostEqual(hi, 1000, 1e-6) {
		t.Errorf("BinBounds(2) = [%v, %v), want [100, 1000)", lo, hi)
	}
}
