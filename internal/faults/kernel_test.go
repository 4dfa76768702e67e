package faults

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// multiplier is the pointwise view of a profile the kernels are checked
// against: φ(t) >= 0 at t hours since the start of the trial, with
// ScaledHazard factors applied outermost last. The package itself never
// evaluates φ at a point; it samples and normalizes through Λ.
func multiplier(h Hazard, t float64) float64 {
	switch h := h.(type) {
	case ConstantHazard:
		return h.Factor
	case PiecewiseHazard:
		return h.Factors[segment(h.Bounds, t)]
	case WeibullHazard:
		if h.Shape == 1 {
			return 1
		}
		if t <= 0 {
			return 0
		}
		return h.Shape * math.Pow(t/h.Scale, h.Shape-1)
	case ScaledHazard:
		return h.Factor * multiplier(h.Base, t)
	}
	panic("multiplier: unknown profile")
}

// envelope is the thinning envelope walkNextAt walks: a bound >= φ over
// [t, t+dt) and the window length dt, read from the profile's fields
// and multiplier, never from its kernel. Constant and piecewise profiles are
// their own tight envelopes. A Weibull window is (t + w)/(4·Shape) long
// and bounded by the multiplier at its end, which is sound because the
// profile is non-decreasing; w sets where windows start to grow, and
// dividing by Shape keeps a steep profile from overshooting φ by more
// than about e per window.
func envelope(h Hazard, t, w float64) (bound, dt float64) {
	switch h := h.(type) {
	case ConstantHazard:
		return h.Factor, math.Inf(1)
	case PiecewiseHazard:
		i := segment(h.Bounds, t)
		if i == len(h.Bounds) {
			return h.Factors[i], math.Inf(1)
		}
		return h.Factors[i], h.Bounds[i] - t
	case WeibullHazard:
		if h.Shape == 1 {
			return 1, math.Inf(1)
		}
		dt = (t + w) / (4 * h.Shape)
		return multiplier(h, t+dt), dt
	case ScaledHazard:
		bound, dt = envelope(h.Base, t, w)
		return h.Factor * bound, dt
	}
	panic("envelope: unknown profile")
}

// walkNextAt is the oracle for SampleNextAt: Lewis–Shedler thinning of
// h against envelope (window scale w), drawing one exponential
// candidate per window through rng.Source.Exp, as the kernels draw, and
// accepting it with probability φ/bound. p
// supplies the mean, acceleration and bias; its own profile is not
// read.
func walkNextAt(p *Process, h Hazard, now, w float64, src *rng.Source) float64 {
	if p.Disabled() {
		return math.Inf(1)
	}
	base := p.accel * p.bias / p.mean
	for t := now; t <= maxHazardTime; {
		bound, dt := envelope(h, t, w)
		end := t + dt
		if bound <= 0 {
			if math.IsInf(end, 1) {
				break
			}
			t = end
			continue
		}
		t += src.Exp() / (base * bound)
		if t >= end {
			t = end
			continue
		}
		m := multiplier(h, t)
		if m >= bound || src.Float64Open()*bound <= m {
			return t - now
		}
	}
	return math.Inf(1)
}

// ksCritical is the asymptotic Kolmogorov–Smirnov critical coefficient
// at significance 0.001, √(−ln(0.0005)/2): a correct sampler fails one
// rule that compares against it with probability 0.1 % over fresh seeds.
const ksCritical = 1.9495

// ksUniform returns the one-sample Kolmogorov–Smirnov statistic of u
// against Uniform(0, 1). It sorts u.
func ksUniform(u []float64) float64 {
	slices.Sort(u)
	n := float64(len(u))
	d := 0.0
	for i, v := range u {
		d = max(d, float64(i+1)/n-v, v-float64(i)/n)
	}
	return d
}

// ksTwoSample returns the two-sample Kolmogorov–Smirnov statistic of a
// and b. It sorts both.
func ksTwoSample(a, b []float64) float64 {
	slices.Sort(a)
	slices.Sort(b)
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		v := min(a[i], b[j])
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestKernelMatchesInterfaceWalk draws from every kernel kind and from
// the thinning walk (walkNextAt) of the same profile. Draws cycle
// through accelerations 1, 2 and 7.5 and biases 1 and 3.
//
// Constant and piecewise kernels, Weibull shape 1 among them, must
// match the walk bit for bit, with the same stream and now spread over
// [0, 5e6]: their tight envelopes make the walk take the draws the
// kernel takes.
//
// A Weibull kernel inverts Λ where the walk thins, so its draws differ
// and each case must pass two Kolmogorov–Smirnov rules at significance
// 0.001 (ksCritical), with now cycling through 0, the middle of the
// case's horizon and a point past it: the kernel's draws, each mapped
// through its own closed-form CDF 1 − exp(−base·Λ(now, now+s)), against
// Uniform(0, 1); and the kernel's draws against the walk's over the
// same cycle. Each rule fails a correct sampler with probability 0.1 %
// over fresh seeds, so across the 16 Weibull rules here about 1.6 %;
// the seeds are fixed, so a pass stays a pass. Edge cases: a nested
// ScaledHazard, shape 100 bare and nested, and a scale so long that
// (t/Scale)² is subnormal and the sum under the root underflows, so
// every draw takes the log-space path.
func TestKernelMatchesInterfaceWalk(t *testing.T) {
	norm := func(shape float64) Hazard {
		h, err := Normalize(WeibullHazard{Shape: shape, Scale: 200000}, 438300)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	bathtub := PiecewiseHazard{Bounds: []float64{8766, 262980}, Factors: []float64{3, 1, 4}}
	accels := []float64{1, 2, 7.5}
	setDraw := func(p *Process, i int) {
		p.SetAcceleration(accels[i%3])
		p.SetBias(1 + 2*float64(i/3%2))
	}
	for _, c := range []struct {
		name string
		h    Hazard
		mean float64
		kind kernelKind
	}{
		{"constant", ConstantHazard{Factor: 1.5}, 1e5, kernelConstant},
		{"scaled-constant", ScaledHazard{Base: ConstantHazard{Factor: 1e-300}, Factor: 1e-30}, 1e5, kernelConstant},
		{"bathtub", bathtub, 1e5, kernelPiecewise},
		{"scaled-bathtub", ScaledHazard{Base: bathtub, Factor: 0.3}, 1e5, kernelPiecewise},
		{"piecewise-gaps", PiecewiseHazard{Bounds: []float64{1e4, 2e4, 3e6}, Factors: []float64{1, 0, 2, 0}}, 1e5, kernelPiecewise},
		{"weibull-1", norm(1), 1e5, kernelConstant},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := mustProcess(t, c.mean)
			p.SetProfile(c.h)
			if p.kern.kind != c.kind {
				t.Fatalf("kernel kind %v, want %v", p.kern.kind, c.kind)
			}
			srcK, srcW := rng.New(11), rng.New(11)
			for i := 0; i < 1e5; i++ {
				setDraw(p, i)
				now := 5e6 * float64(i%1001) / 1000
				got, want := p.SampleNextAt(now, srcK), walkNextAt(p, c.h, now, 1, srcW)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("draw %d (now %v, accel %v, bias %v): kernel %v, interface walk %v", i, now, p.accel, p.bias, got, want)
				}
			}
			if srcK.Uint64() != srcW.Uint64() {
				t.Error("kernel and interface walk consumed different numbers of draws")
			}
		})
	}

	steep := WeibullHazard{Shape: 100, Scale: 100}
	for _, c := range []struct {
		name string
		h    Hazard
		mean float64
		nows []float64 // now cycles through these: 0, mid-horizon, past it
		w    float64   // the walk's window scale (envelope)
		n    int
	}{
		{"weibull-1.5", norm(1.5), 1e5, []float64{0, 219150, 876600}, 2e5, 1e5},
		{"weibull-2", norm(2), 1e5, []float64{0, 219150, 876600}, 2e5, 1e5},
		{"weibull-2.5", norm(2.5), 1e5, []float64{0, 219150, 876600}, 2e5, 1e5},
		{"weibull-3", norm(3), 1e5, []float64{0, 219150, 876600}, 2e5, 1e5},
		{"weibull-3-nested", ScaledHazard{Base: ScaledHazard{Base: WeibullHazard{Shape: 3, Scale: 5e4}, Factor: 0.7}, Factor: 1.3}, 1e5, []float64{0, 219150, 876600}, 5e4, 1e5},
		{"weibull-3-subnormal-square", WeibullHazard{Shape: 3, Scale: 1e172}, 1e-299, []float64{0, 5e14, 2e15}, 1e15, 1e5},
		{"weibull-100-inversion", steep, 100, []float64{0, 50, 110}, 100, 2e4},
		{"weibull-100-inversion-nested", ScaledHazard{Base: ScaledHazard{Base: steep, Factor: 0.7}, Factor: 1.3}, 100, []float64{0, 50, 110}, 100, 2e4},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := mustProcess(t, c.mean)
			p.SetProfile(c.h)
			if p.kern.kind != kernelWeibull {
				t.Fatalf("kernel kind %v, want %v", p.kern.kind, kernelWeibull)
			}
			srcK, srcW := rng.New(11), rng.New(12)
			kernel, walk, pit := make([]float64, c.n), make([]float64, c.n), make([]float64, c.n)
			for i := range c.n {
				setDraw(p, i)
				now := c.nows[i%len(c.nows)]
				s := p.SampleNextAt(now, srcK)
				if !(s >= 0) || math.IsInf(s, 1) {
					t.Fatalf("draw %d (now %v): %v", i, now, s)
				}
				kernel[i], walk[i] = s, walkNextAt(p, c.h, now, c.w, srcW)
				base := p.accel * p.bias / p.mean
				pit[i] = -math.Expm1(-base * p.kern.cumulative(now, now+s))
			}
			n := float64(c.n)
			d, crit := ksUniform(pit), ksCritical/math.Sqrt(n)
			if t.Logf("against the closed-form CDF: KS D = %.5f, critical %.5f", d, crit); d > crit {
				t.Error("the kernel's draws do not follow the closed-form CDF")
			}
			d, crit = ksTwoSample(kernel, walk), ksCritical*math.Sqrt(2/n)
			if t.Logf("against the thinning walk: KS D = %.5f, critical %.5f", d, crit); d > crit {
				t.Error("the kernel's draws do not follow the thinning walk's")
			}
		})
	}
}

// TestWeibullInverseMatchesLogSpace: for the shapes with a closed form
// (1.5, 2 and 3), inverse solves Λ(t, u) = mass with powers and roots,
// and must land within a few parts in 10^13 of advance's log-space
// answer over t and mass spanning float magnitudes, ScaledHazard
// factors included. Where its sum under the root is subnormal,
// overflows or has lost the increment, it must hand the draw to
// advance, bit for bit.
func TestWeibullInverseMatchesLogSpace(t *testing.T) {
	src := rng.New(3)
	for _, shape := range []float64{1.5, 2, 3} {
		h := ScaledHazard{Base: WeibullHazard{Shape: shape, Scale: 1}, Factor: 0.7}
		k := h.kernel()
		if k.pow == powLog {
			t.Fatalf("shape %v: no closed form", shape)
		}
		bare := weibullKernel(WeibullHazard{Shape: shape, Scale: 1})
		for i := 0; i < 200000; i++ {
			x := math.Ldexp(1+src.Float64(), int(src.Float64()*120)-60)
			mass := math.Ldexp(1+src.Float64(), int(src.Float64()*120)-60)
			got, want := k.inverse(x, mass), bare.advance(x, mass/0.7)
			if math.Abs(got-want) > 4e-13*want {
				t.Fatalf("shape %v from %v, mass %v: inverse %v, advance %v", shape, x, mass, got, want)
			}
		}
		for _, c := range []struct {
			t, mass float64
			handoff bool // the closed form must not answer
		}{
			{0, 1e-310, true},                          // the sum is subnormal
			{1e250, 1, true},                           // t^Shape overflows
			{math.Pow(1e308, 1/shape), 0.7e308, true},  // the sum overflows
			{1e10, 1e-10, true},                        // the increment is lost
			{2, 0x1p-1074, true},                       // the least mass there is
			{3, math.Inf(1), true},                     // never
			{math.Pow(5e-310, 1/shape), 1e-300, false}, // t^Shape is subnormal
			{0x1p-1074, 1e-5, false},                   // the least start there is
			{1e-150, 1e-150, false},                    // a start far below 1
		} {
			got, want := k.inverse(c.t, c.mass), bare.advance(c.t, c.mass/0.7)
			if c.handoff && math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("shape %v from %v, mass %v: inverse %v, want advance's %v bit for bit", shape, c.t, c.mass, got, want)
			}
			if got != want && !(math.Abs(got-want) <= 4e-13*want) || got < c.t {
				t.Errorf("shape %v from %v, mass %v: inverse %v, advance %v", shape, c.t, c.mass, got, want)
			}
		}
	}
}

// TestKernelCumulative checks every kernel's Λ(a, b) against the
// midpoint rule over the profile's multiplier, on intervals inside
// one piecewise segment and across several, under ScaledHazard factors.
func TestKernelCumulative(t *testing.T) {
	midpoint := func(h Hazard, a, b float64) float64 {
		const n = 100000
		step, sum := (b-a)/n, 0.0
		for i := 0; i < n; i++ {
			sum += multiplier(h, a+(float64(i)+0.5)*step)
		}
		return sum * step
	}
	bathtub := PiecewiseHazard{Bounds: []float64{8766, 262980}, Factors: []float64{3, 1, 4}}
	for _, h := range []Hazard{
		ConstantHazard{Factor: 2.5},
		bathtub,
		ScaledHazard{Base: bathtub, Factor: 0.3},
		WeibullHazard{Shape: 1.5, Scale: 200000},
		WeibullHazard{Shape: 2.5, Scale: 200000},
		ScaledHazard{Base: ScaledHazard{Base: WeibullHazard{Shape: 3, Scale: 5e4}, Factor: 0.7}, Factor: 1.3},
	} {
		k := h.kernel()
		for _, iv := range [][2]float64{{0, 1000}, {1000, 9000}, {5000, 300000}, {262980, 500000}, {438300, 438300}} {
			// The midpoint rule misplaces at most one step's worth of a
			// piecewise jump and errs by O(step²) on a smooth power, so
			// the rule allows a relative 1e-4.
			got, want := k.cumulative(iv[0], iv[1]), midpoint(h, iv[0], iv[1])
			if math.Abs(got-want) > 1e-4*want {
				t.Errorf("%T over %v: cumulative %v, midpoint rule %v", h, iv, got, want)
			}
		}
	}
}
