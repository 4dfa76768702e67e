package faults

import (
	"math"
	"slices"
)

// kernelKind names how SampleNextAt evaluates a process's profile.
type kernelKind uint8

const (
	// kernelNone: no profile, so SampleNextAt draws as SampleNext does.
	kernelNone kernelKind = iota
	kernelConstant
	kernelPiecewise
	kernelWeibull
)

// powKind names the closed form a Weibull kernel inverts its integrated
// multiplier with: Λ(t) = Scale·(t/Scale)^Shape, so a draw raises
// x = t/Scale to Shape and the sum y back to 1/Shape.
type powKind uint8

const (
	powLog         powKind = iota // no closed form: advance, in log space
	powThreeHalves                // x·√x, then Cbrt(y)²
	powSquare                     // x², then Sqrt(y)
	powCube                       // x³, then Cbrt(y)
)

// kernel is a profile resolved once, by SetProfile through
// Hazard.kernel, into the concrete form SampleNextAt draws from: its
// integrated multiplier Λ(a, b) = ∫ₐᵇ φ (cumulative) and, for a Weibull
// kernel, the inverse of Λ from a starting time (inverse). A kernel
// copies what it keeps: it is a snapshot of the profile SetProfile was
// given.
type kernel struct {
	kind kernelKind
	// bound is a constant kernel's multiplier, ScaledHazard factors
	// included.
	bound float64
	// bounds and factors are a piecewise kernel's segments, each factor
	// already multiplied by the ScaledHazard factors.
	bounds, factors []float64
	// shape, scale and pow describe a Weibull kernel of Shape > 1;
	// scales are the ScaledHazard factors around it, innermost first.
	shape, scale float64
	pow          powKind
	scales       []float64
}

// kernel returns the constant kernel of multiplier Factor.
func (h ConstantHazard) kernel() kernel {
	return kernel{kind: kernelConstant, bound: h.Factor}
}

// kernel returns the piecewise kernel of a copy of the segments.
func (h PiecewiseHazard) kernel() kernel {
	return kernel{kind: kernelPiecewise, bounds: slices.Clone(h.Bounds), factors: slices.Clone(h.Factors)}
}

// kernel returns the Weibull kernel, or for Shape 1 the constant kernel
// it is: its multiplier is 1 forever.
func (h WeibullHazard) kernel() kernel {
	if h.Shape == 1 {
		return kernel{kind: kernelConstant, bound: 1}
	}
	k := kernel{kind: kernelWeibull, shape: h.Shape, scale: h.Scale}
	switch h.Shape {
	case 1.5:
		k.pow = powThreeHalves
	case 2:
		k.pow = powSquare
	case 3:
		k.pow = powCube
	}
	return k
}

// kernel applies Factor to the base's kernel after the base's own
// factors: Factor·(f·φ), never (Factor·f)·φ.
func (h ScaledHazard) kernel() kernel {
	k := h.Base.kernel()
	switch k.kind {
	case kernelConstant:
		k.bound = h.Factor * k.bound
	case kernelPiecewise:
		for i, f := range k.factors {
			k.factors[i] = h.Factor * f
		}
	case kernelWeibull:
		k.scales = append(k.scales, h.Factor)
	}
	return k
}

// cumulative returns Λ(a, b), the kernel's multiplier integrated over
// [a, b] for 0 <= a <= b: the expected number of arrivals there at unit
// base rate (b − a with no profile, φ ≡ 1).
func (k *kernel) cumulative(a, b float64) float64 {
	switch k.kind {
	case kernelConstant:
		return k.bound * (b - a)
	case kernelPiecewise:
		total, lo := 0.0, 0.0
		for i, f := range k.factors {
			hi := math.Inf(1)
			if i < len(k.bounds) {
				hi = k.bounds[i]
			}
			if from, to := max(a, lo), min(b, hi); from < to {
				total += f * (to - from)
			}
			lo = hi
		}
		return total
	case kernelWeibull:
		if a >= b {
			return 0
		}
		// Scale·(b/Scale)^Shape·(1 − (a/b)^Shape), in logs so that
		// neither power under- or overflows on its own.
		v := math.Exp(math.Log(k.scale)+k.shape*(math.Log(b)-math.Log(k.scale))) * -math.Expm1(k.shape*math.Log(a/b))
		for _, f := range k.scales {
			v = f * v
		}
		return v
	}
	return b - a
}

// mean returns the kernel's mean multiplier over [0, horizon] for
// horizon > 0: Λ(0, horizon)/horizon, the factor by which the profile
// scales the expected number of arrivals in the horizon. A constant
// kernel returns its multiplier as it is, where the division would
// move its last bits and with them every key of a profile normalized
// through it.
func (k *kernel) mean(horizon float64) float64 {
	if k.kind == kernelConstant {
		return k.bound
	}
	return k.cumulative(0, horizon) / horizon
}

// inverse returns the time u >= t at which the Weibull kernel's
// integrated multiplier from t reaches mass, Λ(t, u) = mass, or +Inf if
// it never does within float range. It divides mass by the ScaledHazard
// factors, outermost first, into the bare profile's units. For shapes
// 1.5, 2 and 3 it solves (u/Scale)^Shape = (t/Scale)^Shape + mass/Scale
// with powers and roots; advance answers every other shape, and any sum
// that overflows, is subnormal or lost the increment to rounding.
func (k *kernel) inverse(t, mass float64) float64 {
	for i := len(k.scales) - 1; i >= 0; i-- {
		mass /= k.scales[i]
	}
	if k.pow == powLog {
		return k.advance(t, mass)
	}
	x := t / k.scale
	var p float64
	switch k.pow {
	case powThreeHalves:
		p = x * math.Sqrt(x)
	case powSquare:
		p = x * x
	case powCube:
		p = x * x * x
	}
	y := p + mass/k.scale
	if !(y > p && y >= minNormal && y <= math.MaxFloat64) {
		return k.advance(t, mass)
	}
	var r float64
	switch k.pow {
	case powThreeHalves:
		c := math.Cbrt(y)
		r = c * c
	case powSquare:
		r = math.Sqrt(y)
	case powCube:
		r = math.Cbrt(y)
	}
	return math.Max(t, k.scale*r)
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// advance returns the time u >= t at which the bare Weibull profile's
// integrated multiplier from t reaches mass, or +Inf if it never does
// within float range. It inverts Scale·(t/Scale)^Shape in log space, so
// extreme shapes and scales neither overflow nor lose the starting
// time: with a = ln((t/Scale)^Shape) and b = ln(mass/Scale),
// u = Scale·exp(ln(e^a + e^b)/Shape).
func (k *kernel) advance(t, mass float64) float64 {
	switch {
	case mass <= 0:
		return t
	case math.IsInf(mass, 1):
		return mass
	}
	lnScale := math.Log(k.scale)
	b := math.Log(mass) - lnScale
	if t <= 0 {
		return math.Exp(lnScale + b/k.shape)
	}
	a := k.shape * (math.Log(t) - lnScale)
	var u float64
	if a >= b {
		// u = t·(1 + e^(b−a))^(1/Shape): exactly t when the mass is
		// negligible, even where a itself overflows.
		u = t * math.Exp(math.Log1p(math.Exp(b-a))/k.shape)
	} else {
		u = math.Exp(lnScale + (b+math.Log1p(math.Exp(a-b)))/k.shape)
	}
	return math.Max(t, u)
}
