package faults

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// walkNextAt is the oracle for SampleNextAt: the same thinning walk
// with every envelope and multiplier called through the Hazard
// interface instead of read from a kernel. p supplies the mean,
// acceleration and bias; its own profile is not read.
func walkNextAt(p *Process, h Hazard, now float64, src *rng.Source) float64 {
	if p.Disabled() {
		return math.Inf(1)
	}
	base := p.accel * p.bias / p.mean
	t := now
	for rejects := 0; ; {
		if t > maxHazardTime {
			return math.Inf(1)
		}
		bound, dt := h.Envelope(t)
		end := t + dt
		if bound <= 0 {
			if math.IsInf(end, 1) {
				return math.Inf(1)
			}
			t = end
			continue
		}
		t += -math.Log(src.Float64Open()) / (base * bound)
		if t >= end {
			t = end
			continue
		}
		m := h.Multiplier(t)
		if m >= bound || src.Float64Open()*bound <= m {
			return t - now
		}
		if rejects++; rejects == maxThinningRejects {
			if u, ok := walkAdvance(h, t, -math.Log(src.Float64Open())/base); ok {
				if u > maxHazardTime {
					return math.Inf(1)
				}
				return u - now
			}
		}
	}
}

// walkAdvance is the inversion walkNextAt falls back on: it unwraps
// ScaledHazard layers outermost first, dividing the mass by each
// factor, and inverts the bare Weibull profile inside; ok is false for
// a profile with no inverse.
func walkAdvance(h Hazard, t, mass float64) (u float64, ok bool) {
	switch h := h.(type) {
	case ScaledHazard:
		return walkAdvance(h.Base, t, mass/h.Factor)
	case WeibullHazard:
		return weibullKernel(h).advance(t, mass), true
	}
	return 0, false
}

// TestKernelMatchesInterfaceWalk draws from every kernel kind and from
// the interface walk (walkNextAt) of the same profile, with the same
// stream, and requires every draw to match bit for bit. Draws cycle
// through accelerations 1, 2 and 7.5 and biases 1 and 3, with now
// spread over [0, 5e6]. Three cases aim at edges: a scale so long that
// candidates land where (t/Scale)² is subnormal, and a steep shape,
// bare and under two factors, whose every draw reaches the inversion
// fallback (fewer draws there, since each rejects 2^16 candidates
// first).
func TestKernelMatchesInterfaceWalk(t *testing.T) {
	norm := func(shape float64) Hazard {
		h, err := Normalize(WeibullHazard{Shape: shape, Scale: 200000}, 438300)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	bathtub := PiecewiseHazard{Bounds: []float64{8766, 262980}, Factors: []float64{3, 1, 4}}
	for _, c := range []struct {
		name string
		h    Hazard
		mean float64
		span float64 // now runs over [0, span]
		n    int
		kind kernelKind
	}{
		{"constant", ConstantHazard{Factor: 1.5}, 1e5, 5e6, 1e5, kernelConstant},
		{"scaled-constant", ScaledHazard{Base: ConstantHazard{Factor: 1e-300}, Factor: 1e-30}, 1e5, 5e6, 1e5, kernelConstant},
		{"bathtub", bathtub, 1e5, 5e6, 1e5, kernelPiecewise},
		{"scaled-bathtub", ScaledHazard{Base: bathtub, Factor: 0.3}, 1e5, 5e6, 1e5, kernelPiecewise},
		{"piecewise-gaps", PiecewiseHazard{Bounds: []float64{1e4, 2e4, 3e6}, Factors: []float64{1, 0, 2, 0}}, 1e5, 5e6, 1e5, kernelPiecewise},
		{"weibull-1", norm(1), 1e5, 5e6, 1e5, kernelConstant},
		{"weibull-1.5", norm(1.5), 1e5, 5e6, 1e5, kernelWeibull},
		{"weibull-2", norm(2), 1e5, 5e6, 1e5, kernelWeibull},
		{"weibull-2.5", norm(2.5), 1e5, 5e6, 1e5, kernelWeibull},
		{"weibull-3", norm(3), 1e5, 5e6, 1e5, kernelWeibull},
		{"weibull-3-nested", ScaledHazard{Base: ScaledHazard{Base: WeibullHazard{Shape: 3, Scale: 5e4}, Factor: 0.7}, Factor: 1.3}, 1e5, 5e6, 1e5, kernelWeibull},
		{"weibull-3-subnormal-square", WeibullHazard{Shape: 3, Scale: 1e172}, 5e17, 5e6, 1e5, kernelWeibull},
		{"weibull-100-inversion", WeibullHazard{Shape: 100, Scale: 100}, 100, 5e6, 32, kernelWeibull},
		{"weibull-100-inversion-nested", ScaledHazard{Base: ScaledHazard{Base: WeibullHazard{Shape: 100, Scale: 100}, Factor: 0.7}, Factor: 1.3}, 100, 5e6, 32, kernelWeibull},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := mustProcess(t, c.mean)
			p.SetProfile(c.h)
			if p.kern.kind != c.kind {
				t.Fatalf("kernel kind %v, want %v", p.kern.kind, c.kind)
			}
			srcK, srcW := rng.New(11), rng.New(11)
			accels := []float64{1, 2, 7.5}
			for i := 0; i < c.n; i++ {
				a, b := accels[i%3], 1+2*float64(i/3%2)
				p.SetAcceleration(a)
				p.SetBias(b)
				now := c.span * float64(i%1001) / 1000
				got, want := p.SampleNextAt(now, srcK), walkNextAt(p, c.h, now, srcW)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("draw %d (now %v, accel %v, bias %v): kernel %v, interface walk %v", i, now, a, b, got, want)
				}
			}
			if srcK.Uint64() != srcW.Uint64() {
				t.Error("kernel and interface walk consumed different numbers of draws")
			}
		})
	}
}

// TestWeibullKernelMultiplier compares the Weibull kernel's multiplier
// with WeibullHazard.Multiplier bit for bit over t spanning every
// float64 magnitude, for shapes whose exponent has a special case and
// one whose exponent has none. It also shows why exponent 2 guards
// x*x: somewhere in the subnormal range it differs from math.Pow.
func TestWeibullKernelMultiplier(t *testing.T) {
	src := rng.New(3)
	for _, shape := range []float64{1.5, 2, 2.5, 3} {
		h := WeibullHazard{Shape: shape, Scale: 1}
		k := h.kernel()
		for i := 0; i < 200000; i++ {
			x := math.Ldexp(1+src.Float64(), int(src.Float64()*2100)-1075)
			if got, want := k.weibull(x), h.Multiplier(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shape %v at %v: kernel %v, Multiplier %v", shape, x, got, want)
			}
		}
	}
	differs := false
	for i := 0; i < 10000 && !differs; i++ {
		x := math.Ldexp(1+src.Float64(), -535+int(src.Float64()*22))
		differs = x*x != math.Pow(x, 2)
	}
	if !differs {
		t.Error("x*x matched math.Pow(x, 2) across the subnormal range; the guard's premise is stale")
	}
}
