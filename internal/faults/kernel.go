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

// powKind names how a Weibull kernel raises t/Scale to Shape−1.
type powKind uint8

const (
	powGeneral powKind = iota // math.Pow
	powSqrt                   // exponent 0.5: math.Pow returns math.Sqrt
	powOne                    // exponent 1: math.Pow returns x
	powSquare                 // exponent 2: x*x where the result is normal
)

// kernel is a profile resolved once, by SetProfile through
// Hazard.kernel, into the concrete form SampleNextAt evaluates inline.
// Every kernel computes exactly the values the profile's Envelope and
// Multiplier methods return — the same float operations in the same
// order — so a draw cannot tell the two apart
// (TestKernelMatchesInterfaceWalk pins this bit for bit against a walk
// that calls those methods). A kernel copies what it keeps: it is a
// snapshot of the profile SetProfile was given.
type kernel struct {
	kind kernelKind
	// bound is a constant kernel's multiplier, ScaledHazard factors
	// included: its envelope is tight and endless.
	bound float64
	// bounds and factors are a piecewise kernel's segments, each factor
	// already multiplied by the ScaledHazard factors.
	bounds, factors []float64
	// shape, scale and pow describe a Weibull kernel of Shape > 1;
	// scales are the ScaledHazard factors around it, innermost first,
	// applied to each evaluation as the wrappers would apply them.
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
// it is: its envelope is (1, +Inf) and its multiplier 1.
func (h WeibullHazard) kernel() kernel {
	if h.Shape == 1 {
		return kernel{kind: kernelConstant, bound: 1}
	}
	k := kernel{kind: kernelWeibull, shape: h.Shape, scale: h.Scale}
	switch h.Shape - 1 {
	case 0.5:
		k.pow = powSqrt
	case 1:
		k.pow = powOne
	case 2:
		k.pow = powSquare
	}
	return k
}

// kernel applies Factor to the base's kernel after the base's own
// factors, as Multiplier applies it to the base's multiplier.
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

// weibull returns the Weibull kernel's multiplier at t, as
// WeibullHazard.Multiplier under its ScaledHazard wrappers computes it.
// math.Pow answers exponents 0.5 and 1 with Sqrt(x) and x itself, so
// those are exact. For exponent 2 it rounds the mantissa product of x
// with itself once, as x*x does, and then scales by a power of two,
// which is exact unless the result is subnormal: there it rounds a
// second time, so a subnormal x*x falls back to math.Pow.
func (k *kernel) weibull(t float64) float64 {
	v := 0.0
	if t > 0 {
		x := t / k.scale
		var p float64
		switch k.pow {
		case powSqrt:
			p = math.Sqrt(x)
		case powOne:
			p = x
		case powSquare:
			if p = x * x; !(p >= minNormal) {
				p = math.Pow(x, 2)
			}
		default:
			p = math.Pow(x, k.shape-1)
		}
		v = k.shape * p
	}
	for _, f := range k.scales {
		v = f * v
	}
	return v
}

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// advance returns the time u >= t at which the Weibull kernel's
// integrated multiplier from t reaches mass, or +Inf if it never does
// within float range. It divides mass by the ScaledHazard factors,
// outermost first, into the bare profile's units, then inverts the
// integrated multiplier Scale·(t/Scale)^Shape in log space, so extreme
// shapes and scales neither overflow nor lose the starting time: with
// a = ln((t/Scale)^Shape) and b = ln(mass/Scale),
// u = Scale·exp(ln(e^a + e^b)/Shape).
func (k *kernel) advance(t, mass float64) float64 {
	for i := len(k.scales) - 1; i >= 0; i-- {
		mass /= k.scales[i]
	}
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
