package faults

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Hazard shapes the time-dependence of a fault process: a dimensionless
// multiplier φ(t) on the process's base rate 1/Mean, so the instantaneous
// hazard at simulation time t is φ(t)·accel·bias/Mean. A nil Hazard on a
// Process means φ ≡ 1 — the historical time-homogeneous Poisson channel.
//
// Profiles are sampled by inverting their integrated multiplier
// Λ(a, b) = ∫ₐᵇ φ: the next arrival after now is the u with
// base·Λ(now, u) = E for one Exp(1) draw E. The draws consumed per
// arrival depend only on the profile and the arrival times, never on
// wall state, so profiled trials keep the per-trial determinism
// contract.
//
// The four types here — ConstantHazard, PiecewiseHazard, WeibullHazard
// and the ScaledHazard combinator — are the only implementations: the
// unexported kernel method seals the interface. A profile is its
// kernel: SetProfile resolves it into the kernel SampleNextAt evaluates,
// and Normalize reads its mean multiplier there. internal/aging builds
// the paper's §6.5 bathtub curves on top of PiecewiseHazard.
type Hazard interface {
	// Validate reports whether the profile's parameters are in domain.
	Validate() error
	// kernel resolves the profile into the form SampleNextAt evaluates.
	kernel() kernel
}

// maxHazardTime bounds every draw: an arrival beyond this point (far
// past any simulation horizon, ~10^14 years) is treated as "never",
// protecting against unbounded walks on profiles whose tail rate is
// vanishingly small but positive.
const maxHazardTime = 1e18

// SetProfile attaches a hazard profile to the process; nil restores the
// time-homogeneous behaviour. The profile multiplies the base hazard
// sampled by SampleNextAt; SampleNext ignores it (callers that sample
// with SampleNext must not attach profiles). SetProfile resolves the
// profile into the kernel SampleNextAt evaluates, so it is the place to
// pay for that, not the sampling loop.
func (p *Process) SetProfile(h Hazard) {
	if h == nil {
		p.kern = kernel{}
		return
	}
	p.kern = h.kernel()
}

// SampleNextAt draws the time from `now` until the next fault. With no
// profile attached it delegates to SampleNext — one draw, bit-identical
// to the historical path. With a profile it inverts the integrated
// hazard from now, with base = accel·bias/mean:
//
//   - constant: one exponential draw at rate base·Factor;
//   - Weibull: one Exp(1) draw E and the u with base·Λ(now, u) = E, in
//     closed form (kernel.inverse);
//   - piecewise: one exponential draw per segment at the segment's rate,
//     walking on to the segment's end while the draw overshoots it
//     (independent increments make the walk exact).
//
// Returns +Inf when the process is disabled, when now is past
// maxHazardTime, when a Weibull arrival would fall past it or a
// piecewise walk reaches it, and when the rest of the profile has no
// rate (a zero-rate final segment, or a constant factor that
// underflowed to 0).
func (p *Process) SampleNextAt(now float64, src *rng.Source) float64 {
	k := &p.kern
	if k.kind == kernelNone {
		return p.SampleNext(src)
	}
	if p.Disabled() || now > maxHazardTime {
		return math.Inf(1)
	}
	base := p.accel * p.bias / p.mean
	switch k.kind {
	case kernelConstant:
		if !(k.bound > 0) {
			return math.Inf(1)
		}
		t := now + -math.Log(src.Float64Open())/(base*k.bound)
		if math.IsInf(t, 1) {
			return t
		}
		return t - now
	case kernelWeibull:
		u := k.inverse(now, -math.Log(src.Float64Open())/base)
		if u > maxHazardTime {
			return math.Inf(1)
		}
		return u - now
	}
	for t := now; t <= maxHazardTime; {
		i := segment(k.bounds, t)
		rate, end := k.factors[i], math.Inf(1)
		if i < len(k.bounds) {
			// t + (bound − t), not the bound: that sum's rounding is
			// in every piecewise draw a stored result was made with.
			end = t + (k.bounds[i] - t)
		}
		if rate <= 0 {
			if math.IsInf(end, 1) {
				break
			}
			t = end
			continue
		}
		if t += -math.Log(src.Float64Open()) / (base * rate); t < end {
			return t - now
		}
		t = end
	}
	return math.Inf(1)
}

// ConstantHazard is the trivial profile φ(t) = Factor: a time-homogeneous
// channel whose rate is Factor times the process's base rate. Factor 1 is
// dynamically identical to no profile at all, but is sampled through the
// profiled path and canonicalizes distinctly (profiled configs never
// collide with unprofiled cache keys). Used mostly as the explicit
// "constant" arm of profile comparisons.
type ConstantHazard struct {
	// Factor is the constant multiplier, > 0.
	Factor float64
}

// NewConstantHazard returns a validated constant profile.
func NewConstantHazard(factor float64) (ConstantHazard, error) {
	h := ConstantHazard{Factor: factor}
	if err := h.Validate(); err != nil {
		return ConstantHazard{}, err
	}
	return h, nil
}

// Validate reports whether Factor is in domain.
func (h ConstantHazard) Validate() error {
	if math.IsNaN(h.Factor) || math.IsInf(h.Factor, 0) || h.Factor <= 0 {
		return fmt.Errorf("%w: constant hazard factor %v must be positive and finite", ErrInvalid, h.Factor)
	}
	return nil
}

// PiecewiseHazard is a piecewise-constant profile: φ(t) = Factors[i] for
// t in [Bounds[i-1], Bounds[i]), with Bounds[-1] = 0 and the final factor
// extending to +Inf. It is the general multiperiod-rate vocabulary —
// burn-in/useful-life/wear-out bathtubs (internal/aging.Bathtub),
// maintenance seasons, operator-outage windows. Sampling walks its
// segments, one exponential draw per segment entered.
type PiecewiseHazard struct {
	// Bounds are the ascending segment boundaries in hours, each > 0.
	// len(Factors) == len(Bounds)+1.
	Bounds []float64
	// Factors are the per-segment multipliers, each >= 0. At least one
	// must be positive.
	Factors []float64
}

// NewPiecewiseHazard returns a validated piecewise-constant profile.
func NewPiecewiseHazard(bounds, factors []float64) (PiecewiseHazard, error) {
	h := PiecewiseHazard{Bounds: bounds, Factors: factors}
	if err := h.Validate(); err != nil {
		return PiecewiseHazard{}, err
	}
	return h, nil
}

// segment returns the index of the piecewise segment containing t
// under the ascending boundaries bounds.
func segment(bounds []float64, t float64) int {
	for i, b := range bounds {
		if t < b {
			return i
		}
	}
	return len(bounds)
}

// Validate reports whether the segments are well-formed.
func (h PiecewiseHazard) Validate() error {
	if len(h.Factors) != len(h.Bounds)+1 {
		return fmt.Errorf("%w: piecewise hazard needs len(factors) == len(bounds)+1, got %d factors for %d bounds", ErrInvalid, len(h.Factors), len(h.Bounds))
	}
	prev := 0.0
	for i, b := range h.Bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= prev {
			return fmt.Errorf("%w: piecewise hazard bounds must be finite, positive, and ascending; bound %d is %v after %v", ErrInvalid, i, b, prev)
		}
		prev = b
	}
	any := false
	for i, f := range h.Factors {
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return fmt.Errorf("%w: piecewise hazard factor %d is %v, must be finite and >= 0", ErrInvalid, i, f)
		}
		if f > 0 {
			any = true
		}
	}
	if !any {
		return fmt.Errorf("%w: piecewise hazard has no positive segment (disable the channel with a +Inf mean instead)", ErrInvalid)
	}
	return nil
}

// WeibullHazard is the power-law profile of Weibull wear-out:
// φ(t) = Shape·(t/Scale)^(Shape−1). With the process mean equal to Scale,
// the first arrival is exactly Weibull(Shape, Scale) — mean
// Scale·Γ(1+1/Shape) — which is the closed form the statistical tests
// check the sampler against. Shape must be >= 1. The sampler could
// invert Λ for any positive shape, but below 1 the multiplier is
// unbounded at t = 0, and the thinning and midpoint-rule oracles that
// check the sampler need a bounded φ; model infant mortality with a
// PiecewiseHazard burn-in segment instead.
type WeibullHazard struct {
	// Shape is the Weibull k, >= 1 (1 = constant, memoryless).
	Shape float64
	// Scale is the Weibull λ in hours, > 0.
	Scale float64
}

// NewWeibullHazard returns a validated Weibull profile.
func NewWeibullHazard(shape, scale float64) (WeibullHazard, error) {
	h := WeibullHazard{Shape: shape, Scale: scale}
	if err := h.Validate(); err != nil {
		return WeibullHazard{}, err
	}
	return h, nil
}

// Validate reports whether shape and scale are in domain.
func (h WeibullHazard) Validate() error {
	if math.IsNaN(h.Shape) || math.IsInf(h.Shape, 0) || h.Shape < 1 {
		return fmt.Errorf("%w: weibull hazard shape %v must be >= 1 (use a piecewise burn-in segment for infant mortality)", ErrInvalid, h.Shape)
	}
	if math.IsNaN(h.Scale) || math.IsInf(h.Scale, 0) || h.Scale <= 0 {
		return fmt.Errorf("%w: weibull hazard scale %v must be positive and finite", ErrInvalid, h.Scale)
	}
	return nil
}

// ScaledHazard multiplies another profile by a positive constant. Its
// main use is equal-mean-rate normalization: Normalize wraps a profile so
// its mean multiplier over a reference horizon is exactly 1, letting
// profile-shape comparisons (E17) hold the expected fault count fixed.
type ScaledHazard struct {
	// Base is the underlying profile.
	Base Hazard
	// Factor is the constant multiplier, > 0.
	Factor float64
}

// Normalize returns h scaled so its mean multiplier over [0, horizon],
// Λ(0, horizon)/horizon, is 1: the profile reshapes *when* faults
// arrive without changing how many arrive on average within the
// horizon.
func Normalize(h Hazard, horizon float64) (ScaledHazard, error) {
	if h == nil {
		return ScaledHazard{}, fmt.Errorf("%w: cannot normalize a nil hazard", ErrInvalid)
	}
	if err := h.Validate(); err != nil {
		return ScaledHazard{}, err
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 {
		return ScaledHazard{}, fmt.Errorf("%w: normalization horizon %v must be positive and finite", ErrInvalid, horizon)
	}
	k := h.kernel()
	// A mean multiplier so small that its reciprocal overflows is as
	// unnormalizable as zero.
	m := k.mean(horizon)
	if math.IsNaN(m) || m <= 0 || math.IsInf(m, 0) || math.IsInf(1/m, 0) {
		return ScaledHazard{}, fmt.Errorf("%w: hazard mean multiplier %v over %v h is not normalizable", ErrInvalid, m, horizon)
	}
	return ScaledHazard{Base: h, Factor: 1 / m}, nil
}

// Validate checks the factor and the base profile.
func (h ScaledHazard) Validate() error {
	if h.Base == nil {
		return fmt.Errorf("%w: scaled hazard has no base profile", ErrInvalid)
	}
	if math.IsNaN(h.Factor) || math.IsInf(h.Factor, 0) || h.Factor <= 0 {
		return fmt.Errorf("%w: scaled hazard factor %v must be positive and finite", ErrInvalid, h.Factor)
	}
	return h.Base.Validate()
}
