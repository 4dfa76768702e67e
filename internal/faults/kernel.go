package faults

import (
	"math"
	"slices"
)

// kernelKind names how SampleNextAt evaluates a process's profile.
type kernelKind uint8

const (
	// kernelOpaque: a Hazard this package does not know, evaluated
	// through its interface methods (or no profile at all, which
	// SampleNextAt handles before it looks at the kernel).
	kernelOpaque kernelKind = iota
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

// kernel is a profile resolved once, by SetProfile, into the concrete
// form SampleNextAt evaluates inline instead of calling Envelope and
// Multiplier through the Hazard interface. Every kernel computes
// exactly the values the interface methods return — the same float
// operations in the same order — so a draw cannot tell the two apart
// (TestKernelMatchesInterfaceWalk pins this bit for bit).
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

// resolveKernel unwraps ScaledHazard layers off h and resolves the
// profile inside into a kernel, copying what it keeps: a kernel is a
// snapshot of the profile SetProfile was given. Shape-1 Weibull
// profiles are constant ones: their envelope is (1, +Inf) and their
// multiplier 1.
func resolveKernel(h Hazard) kernel {
	var scales []float64 // outermost first until the reverse below
	base := h
	for s, ok := base.(ScaledHazard); ok; s, ok = base.(ScaledHazard) {
		scales = append(scales, s.Factor)
		base = s.Base
	}
	slices.Reverse(scales)
	scale := func(v float64) float64 {
		for _, f := range scales {
			v = f * v
		}
		return v
	}
	switch b := base.(type) {
	case ConstantHazard:
		return kernel{kind: kernelConstant, bound: scale(b.Factor)}
	case PiecewiseHazard:
		factors := make([]float64, len(b.Factors))
		for i, f := range b.Factors {
			factors[i] = scale(f)
		}
		return kernel{kind: kernelPiecewise, bounds: slices.Clone(b.Bounds), factors: factors}
	case WeibullHazard:
		if b.Shape == 1 {
			return kernel{kind: kernelConstant, bound: scale(1)}
		}
		k := kernel{kind: kernelWeibull, shape: b.Shape, scale: b.Scale, scales: scales}
		switch b.Shape - 1 {
		case 0.5:
			k.pow = powSqrt
		case 1:
			k.pow = powOne
		case 2:
			k.pow = powSquare
		}
		return k
	}
	return kernel{kind: kernelOpaque}
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
