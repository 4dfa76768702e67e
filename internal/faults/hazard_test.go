package faults

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func mustProcess(t *testing.T, mean float64) *Process {
	t.Helper()
	p, err := NewProcess(mean)
	if err != nil {
		t.Fatalf("NewProcess(%v): %v", mean, err)
	}
	return p
}

// TestSampleNextAtNilProfileBitIdentical pins the constant-path contract:
// with no profile attached, SampleNextAt consumes exactly the one draw
// SampleNext does and returns the identical value, so switching call
// sites to SampleNextAt cannot perturb any historical result. A profile
// detached with SetProfile(nil) counts as never attached.
func TestSampleNextAtNilProfileBitIdentical(t *testing.T) {
	detached := mustProcess(t, 1234.5)
	detached.SetProfile(WeibullHazard{Shape: 2, Scale: 5000})
	detached.SetProfile(nil)
	for _, a := range []*Process{mustProcess(t, 1234.5), detached} {
		b := mustProcess(t, 1234.5)
		srcA, srcB := rng.New(7), rng.New(7)
		for i := 0; i < 1000; i++ {
			now := float64(i) * 17.25
			va := a.SampleNextAt(now, srcA)
			vb := b.SampleNext(srcB)
			if va != vb {
				t.Fatalf("detached %v, draw %d: SampleNextAt %v != SampleNext %v", a == detached, i, va, vb)
			}
		}
	}
}

// TestWeibullThinningClosedFormMean is the statistical contract: a
// process with mean m under WeibullHazard{Shape: k, Scale: m} has
// first-arrival times distributed exactly Weibull(k, m), whose mean is
// m·Γ(1+1/k). The sampler must agree with the closed form.
func TestWeibullThinningClosedFormMean(t *testing.T) {
	const mean = 40000.0
	const n = 100000
	for _, shape := range []float64{1.5, 2, 3} {
		h, err := NewWeibullHazard(shape, mean)
		if err != nil {
			t.Fatalf("NewWeibullHazard: %v", err)
		}
		p := mustProcess(t, mean)
		p.SetProfile(h)
		src := rng.New(42)
		sum := 0.0
		for i := 0; i < n; i++ {
			v := p.SampleNextAt(0, src)
			if math.IsInf(v, 1) || v <= 0 {
				t.Fatalf("shape %v: draw %d = %v", shape, i, v)
			}
			sum += v
		}
		got := sum / n
		want := mean * math.Gamma(1+1/shape)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("shape %v: sample mean %v vs closed form %v (rel err %.4f)", shape, got, want, rel)
		}
	}
}

// TestConstantFastPathMatchesThinning: ConstantHazard skips the
// thinning walk, and must draw exactly what the walk draws for the same
// envelope — a single-segment PiecewiseHazard walks it.
func TestConstantFastPathMatchesThinning(t *testing.T) {
	for _, factor := range []float64{1, 0.25, 3, 1e-300, 1e300} {
		fast := mustProcess(t, 1000)
		fast.SetProfile(ConstantHazard{Factor: factor})
		walk := mustProcess(t, 1000)
		walk.SetProfile(PiecewiseHazard{Factors: []float64{factor}})
		fast.SetAcceleration(2)
		walk.SetAcceleration(2)
		srcA, srcB := rng.New(3), rng.New(3)
		for i, now := range []float64{0, 1, 123.456, 5e6, 1e18, 2e18} {
			for j := 0; j < 200; j++ {
				a, b := fast.SampleNextAt(now, srcA), walk.SampleNextAt(now, srcB)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("factor %v, now %d, draw %d: fast path %v, thinning walk %v", factor, i, j, a, b)
				}
			}
		}
	}
}

// TestWeibullDrawsOneUniformPerArrival is the work gate of the Weibull
// sampler: one SampleNextAt call leaves the source exactly one
// Float64Open ahead of a clone taken before it, for shapes with and
// without a closed-form inverse, bare and under ScaledHazard factors,
// from any start. A steep profile — shape 100, which a thinning walk
// could only sample by rejecting candidates by the billion — still
// matches the closed form Weibull(k, m) mean m·Γ(1+1/k), and a scale far
// beyond the channel's mean is "never".
func TestWeibullDrawsOneUniformPerArrival(t *testing.T) {
	steep := WeibullHazard{Shape: 100, Scale: 100}
	for _, h := range []Hazard{
		WeibullHazard{Shape: 1.5, Scale: 200000},
		WeibullHazard{Shape: 2, Scale: 200000},
		WeibullHazard{Shape: 2.5, Scale: 200000},
		ScaledHazard{Base: ScaledHazard{Base: WeibullHazard{Shape: 3, Scale: 5e4}, Factor: 0.7}, Factor: 1.3},
		steep,
		WeibullHazard{Shape: 3, Scale: 1e172},
	} {
		p := mustProcess(t, 1e5)
		p.SetProfile(h)
		src := rng.New(5)
		for i := 0; i < 3000; i++ {
			p.SetAcceleration(1 + float64(i%3))
			now := []float64{0, 1, 150, 438300, 5e6, 1e18}[i%6]
			clone := *src
			p.SampleNextAt(now, src)
			clone.Float64Open()
			if *src != clone {
				t.Fatalf("%+v from %v: the draw did not take exactly one uniform", h, now)
			}
		}
	}

	const mean, shape = 100.0, 100.0
	for _, h := range []Hazard{steep, ScaledHazard{Base: steep, Factor: 1}} {
		p := mustProcess(t, mean)
		p.SetProfile(h)
		src := rng.New(5)
		const n = 10000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += p.SampleNextAt(0, src)
		}
		got, want := sum/n, mean*math.Gamma(1+1/shape)
		// The Weibull(100, 100) standard deviation is about 1.28: allow
		// five standard errors of the mean.
		if tol := 5 * 1.28 / math.Sqrt(n); math.Abs(got-want) > tol {
			t.Errorf("%T: sample mean %v vs closed form %v (tolerance %.3f)", h, got, want, tol)
		}
	}

	p := mustProcess(t, 1.4e6)
	p.SetProfile(WeibullHazard{Shape: 2, Scale: 1e300})
	if v := p.SampleNextAt(0, rng.New(1)); !math.IsInf(v, 1) {
		t.Errorf("scale 1e300 over a 1.4e6 h mean: first fault at %v, want +Inf", v)
	}
}

// TestWeibullAdvanceInvertsIntegral: the Weibull kernel's advance(t,
// mass) lands where the integrated multiplier Scale·(u/Scale)^Shape has
// grown by mass, never before t, and without overflow at extreme shapes.
func TestWeibullAdvanceInvertsIntegral(t *testing.T) {
	integral := func(h WeibullHazard, u float64) float64 { return h.Scale * math.Pow(u/h.Scale, h.Shape) }
	for _, c := range []struct {
		h       WeibullHazard
		t, mass float64
	}{
		{WeibullHazard{Shape: 2, Scale: 1000}, 0, 5},
		{WeibullHazard{Shape: 2, Scale: 1000}, 700, 5},
		{WeibullHazard{Shape: 1.5, Scale: 200000}, 1e5, 3e4},
		{WeibullHazard{Shape: 100, Scale: 100}, 95, 0.01},
		{WeibullHazard{Shape: 1, Scale: 10}, 3, 4},
	} {
		u := weibullKernel(c.h).advance(c.t, c.mass)
		if u < c.t {
			t.Fatalf("%+v from %v: advance = %v", c.h, c.t, u)
		}
		if got := integral(c.h, u) - integral(c.h, c.t); math.Abs(got-c.mass) > 1e-9*math.Max(1, integral(c.h, u)) {
			t.Errorf("%+v from %v: integral grew by %v, want %v", c.h, c.t, got, c.mass)
		}
	}
	for _, c := range []struct {
		h       WeibullHazard
		t, mass float64
		want    float64
	}{
		{WeibullHazard{Shape: 1e300, Scale: 10}, 20, 1, 20},       // past Scale the hazard is infinite
		{WeibullHazard{Shape: 1e300, Scale: 10}, 5, 1, 10},        // before it, zero
		{WeibullHazard{Shape: 2, Scale: 1}, 1e200, 1e-300, 1e200}, // negligible mass
		{WeibullHazard{Shape: 2, Scale: 5}, 3, math.Inf(1), math.Inf(1)},
	} {
		if u := weibullKernel(c.h).advance(c.t, c.mass); !(u == c.want || math.Abs(u-c.want) <= 1e-12*c.want) {
			t.Errorf("%+v from %v with mass %v: advance = %v, want %v", c.h, c.t, c.mass, u, c.want)
		}
	}
}

// weibullKernel returns h's Weibull kernel with no ScaledHazard factors,
// for any shape: h.kernel() resolves Shape 1 into a constant kernel,
// which has no advance.
func weibullKernel(h WeibullHazard) *kernel {
	return &kernel{kind: kernelWeibull, shape: h.Shape, scale: h.Scale}
}

// TestPiecewiseThinningClosedFormSurvival checks the piecewise sampler
// against the exact first-arrival survival function: with base mean m
// and factor f on [0, b), P(T > b) = exp(−f·b/m).
func TestPiecewiseThinningClosedFormSurvival(t *testing.T) {
	const mean = 1000.0
	const n = 100000
	h, err := NewPiecewiseHazard([]float64{500}, []float64{2, 0.5})
	if err != nil {
		t.Fatalf("NewPiecewiseHazard: %v", err)
	}
	p := mustProcess(t, mean)
	p.SetProfile(h)
	src := rng.New(9)
	beyond := 0
	for i := 0; i < n; i++ {
		if p.SampleNextAt(0, src) > 500 {
			beyond++
		}
	}
	got := float64(beyond) / n
	want := math.Exp(-2 * 500 / mean)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(T > 500) = %v, want %v", got, want)
	}
}

// TestConstantHazardExponential checks that a factor-f constant profile
// is statistically an exponential at f times the base rate.
func TestConstantHazardExponential(t *testing.T) {
	const mean = 5000.0
	h, err := NewConstantHazard(2.5)
	if err != nil {
		t.Fatalf("NewConstantHazard: %v", err)
	}
	p := mustProcess(t, mean)
	p.SetProfile(h)
	src := rng.New(3)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.SampleNextAt(0, src)
	}
	got := sum / n
	want := mean / 2.5
	if rel := math.Abs(got-want) / want; rel > 0.01 {
		t.Errorf("sample mean %v, want %v", got, want)
	}
}

// TestSampleNextAtDeterministic pins per-seed determinism of the
// profiled path: identical seeds reproduce identical draw sequences.
func TestSampleNextAtDeterministic(t *testing.T) {
	h, err := NewWeibullHazard(2, 30000)
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []float64 {
		p := mustProcess(t, 30000)
		p.SetProfile(h)
		src := rng.New(11)
		out := make([]float64, 200)
		for i := range out {
			out[i] = p.SampleNextAt(float64(i)*100, src)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestSampleNextAtDisabled checks disabled processes stay disabled under
// a profile, and zero-tail profiles return +Inf instead of looping.
func TestSampleNextAtDisabled(t *testing.T) {
	p := mustProcess(t, math.Inf(1))
	h, _ := NewConstantHazard(4)
	p.SetProfile(h)
	if v := p.SampleNextAt(0, rng.New(1)); !math.IsInf(v, 1) {
		t.Errorf("disabled process sampled %v, want +Inf", v)
	}

	// A profile whose final segment is rate 0: arrivals past the last
	// bound are impossible, so the sampler must terminate with +Inf.
	dead, err := NewPiecewiseHazard([]float64{10}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	q := mustProcess(t, 1e9) // nearly no mass in [0, 10)
	q.SetProfile(dead)
	sawInf := false
	src := rng.New(5)
	for i := 0; i < 100; i++ {
		if math.IsInf(q.SampleNextAt(0, src), 1) {
			sawInf = true
			break
		}
	}
	if !sawInf {
		t.Error("zero-tail profile never returned +Inf")
	}
}

// TestEnvelopeBounds checks the soundness invariant of the thinning
// oracle walkNextAt walks: multiplier(h, t) <= bound over each envelope
// window.
func TestEnvelopeBounds(t *testing.T) {
	profiles := []Hazard{
		ConstantHazard{Factor: 3},
		PiecewiseHazard{Bounds: []float64{100, 5000}, Factors: []float64{4, 1, 9}},
		WeibullHazard{Shape: 3, Scale: 10000},
		ScaledHazard{Base: WeibullHazard{Shape: 2, Scale: 400}, Factor: 0.25},
	}
	for _, h := range profiles {
		if err := h.Validate(); err != nil {
			t.Fatalf("%T: %v", h, err)
		}
		for _, from := range []float64{0, 50, 100, 999, 5000, 123456} {
			bound, dt := envelope(h, from, 1000)
			if dt <= 0 {
				t.Fatalf("%T: envelope(%v) window %v <= 0", h, from, dt)
			}
			end := from + dt
			if math.IsInf(end, 1) {
				end = from + 1e7
			}
			for i := 0; i <= 20; i++ {
				at := from + (end-from)*float64(i)/20
				if at >= from+dt {
					break
				}
				if m := multiplier(h, at); m > bound*(1+1e-12) {
					t.Fatalf("%T: multiplier(%v) = %v exceeds envelope %v from %v", h, at, m, bound, from)
				}
			}
		}
	}
}

// TestMeanMultiplierClosedForms pins the analytic averages the
// equal-mean-rate normalization depends on, read from the kernel.
func TestMeanMultiplierClosedForms(t *testing.T) {
	mean := func(h Hazard, horizon float64) float64 {
		k := h.kernel()
		return k.mean(horizon)
	}
	w := WeibullHazard{Shape: 2, Scale: 1000}
	if got, want := mean(w, 4000), 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("weibull mean multiplier %v, want %v", got, want)
	}
	pw := PiecewiseHazard{Bounds: []float64{100}, Factors: []float64{5, 1}}
	// (5·100 + 1·900)/1000 = 1.4
	if got, want := mean(pw, 1000), 1.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("piecewise mean multiplier %v, want %v", got, want)
	}
	// Horizon inside the first segment.
	if got, want := mean(pw, 50), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("piecewise short-horizon mean multiplier %v, want %v", got, want)
	}
	// Horizon exactly on the bound: the first segment, all at factor 5.
	if got, want := mean(pw, 100), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("piecewise mean multiplier at the bound %v, want %v", got, want)
	}
	// A normalized profile's own mean, ScaledHazard factor included, is 1.
	for _, h := range []Hazard{pw, w, ConstantHazard{Factor: 2.5}, WeibullHazard{Shape: 1, Scale: 10}} {
		n, err := Normalize(h, 4000)
		if err != nil {
			t.Fatalf("Normalize(%v): %v", h, err)
		}
		if got := mean(n, 4000); math.Abs(got-1) > 1e-12 {
			t.Errorf("normalized %v: mean multiplier %v, want 1", h, got)
		}
	}
}

// TestNormalizeAtSegmentBounds normalizes piecewise and bathtub
// profiles over a horizon exactly on each segment bound and a relative
// 1e-12 either side of it. Each normalized profile must see mean
// multiplier Λ(0, h)/h = 1 within 1e-12, and the normalizing factor
// must not jump across the bound. Moving the horizon by a relative
// 1e-12 moves the factor by about 1e-12 times the jump in φ over the
// mean, so a relative 1e-9 is far looser than correct arithmetic needs
// and far tighter than charging a segment at its neighbour's factor.
func TestNormalizeAtSegmentBounds(t *testing.T) {
	for _, h := range []PiecewiseHazard{
		{Bounds: []float64{100}, Factors: []float64{5, 1}},
		{Bounds: []float64{1000, 5000}, Factors: []float64{3, 1, 0.5}},
		{Bounds: []float64{1e4, 2e4, 3e6}, Factors: []float64{1, 0, 2, 0}},
		{Bounds: []float64{2000, 12000}, Factors: []float64{3, 1, 6}},  // E17's bathtub
		{Bounds: []float64{2000, 12000}, Factors: []float64{3, 1, 12}}, // and its steep wear-out
		{Bounds: []float64{12000}, Factors: []float64{1, 6}},           // a bathtub with no burn-in
	} {
		for _, b := range h.Bounds {
			var factors [3]float64
			for i, horizon := range []float64{b * (1 - 1e-12), b, b * (1 + 1e-12)} {
				n, err := Normalize(h, horizon)
				if err != nil {
					t.Fatalf("%v at %v h: %v", h, horizon, err)
				}
				k := n.kernel()
				if m := k.cumulative(0, horizon) / horizon; math.Abs(m-1) > 1e-12 {
					t.Errorf("%v normalized at %v h: mean multiplier %v, want 1", h, horizon, m)
				}
				factors[i] = n.Factor
			}
			for _, f := range []float64{factors[0], factors[2]} {
				if math.Abs(f-factors[1]) > 1e-9*factors[1] {
					t.Errorf("%v: factor %v at the bound %v h, %v beside it", h, factors[1], b, f)
				}
			}
		}
	}
}

// TestHazardValidation exercises the constructors' domain checks.
func TestHazardValidation(t *testing.T) {
	if _, err := NewConstantHazard(0); err == nil {
		t.Error("constant factor 0 accepted")
	}
	if _, err := NewConstantHazard(math.Inf(1)); err == nil {
		t.Error("constant factor +Inf accepted")
	}
	if _, err := NewWeibullHazard(0.5, 100); err == nil {
		t.Error("weibull shape < 1 accepted")
	}
	if _, err := NewWeibullHazard(2, 0); err == nil {
		t.Error("weibull scale 0 accepted")
	}
	if _, err := NewPiecewiseHazard([]float64{10, 5}, []float64{1, 2, 3}); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := NewPiecewiseHazard([]float64{10}, []float64{1}); err == nil {
		t.Error("factor/bound length mismatch accepted")
	}
	if _, err := NewPiecewiseHazard([]float64{10}, []float64{0, 0}); err == nil {
		t.Error("all-zero piecewise accepted")
	}
	if _, err := NewPiecewiseHazard(nil, []float64{2}); err != nil {
		t.Error("single-segment piecewise rejected")
	}
	if _, err := Normalize(nil, 100); err == nil {
		t.Error("normalizing nil accepted")
	}
	if _, err := Normalize(ConstantHazard{Factor: 1}, 0); err == nil {
		t.Error("normalization horizon 0 accepted")
	}
	// A mean multiplier of ~1e-310 is positive, but its reciprocal
	// overflows: the scaled profile would fail its own validation.
	if n, err := Normalize(WeibullHazard{Shape: 71.57142857142857, Scale: 50000}, 2); err == nil {
		t.Errorf("normalizing a vanishing mean multiplier accepted: %+v", n)
	}
}
