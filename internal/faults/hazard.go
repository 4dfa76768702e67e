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
// Profiles are sampled by thinning (Lewis–Shedler): SampleNextAt draws
// candidate arrivals from a piecewise-constant envelope the profile
// supplies through Envelope and accepts each with probability
// φ(t)/envelope. Implementations must therefore guarantee
// Multiplier(t) <= bound for every t in [from, from+dt) returned by
// Envelope(from). The draw sequence consumed per accepted arrival depends
// only on the profile and the candidate times, never on wall state, so
// profiled trials keep the per-trial determinism contract.
//
// Implementations shipped here: ConstantHazard, PiecewiseHazard,
// WeibullHazard, and the ScaledHazard combinator. internal/aging builds
// the paper's §6.5 bathtub curves on top of PiecewiseHazard.
type Hazard interface {
	// Multiplier returns φ(t) >= 0, the hazard multiplier at time t
	// (hours since the start of the trial).
	Multiplier(t float64) float64
	// Envelope returns a finite bound >= sup φ over [t, t+dt) together
	// with the window length dt > 0. dt may be +Inf when the bound holds
	// forever. The thinning sampler advances window by window, so tight
	// envelopes cost fewer rejected candidates.
	Envelope(t float64) (bound, dt float64)
	// MeanMultiplier returns the time-average of φ over [0, horizon]:
	// the factor by which the profile scales the expected number of
	// arrivals in a horizon relative to the constant-rate process.
	// Equal-mean-rate comparisons (experiment E17) normalize profiles so
	// this is 1.
	MeanMultiplier(horizon float64) float64
	// Validate reports whether the profile's parameters are in domain.
	Validate() error
}

// maxHazardTime bounds the thinning walk: a candidate pushed beyond this
// point (far past any simulation horizon, ~10^14 years) is treated as
// "never", protecting against unbounded loops on profiles whose tail rate
// is vanishingly small but positive.
const maxHazardTime = 1e18

// maxThinningRejects bounds the candidates one SampleNextAt call rejects
// before it samples the rest of the wait by inverting the profile's
// integrated multiplier, for profiles that can (see inverter). Realistic
// profiles reject a few candidates per arrival, so they never reach the
// cap and keep their exact draw sequence; a steep one (a Weibull shape of
// 100, or a scale far beyond the channel's mean) would otherwise reject
// for hours per arrival.
const maxThinningRejects = 1 << 16

// inverter is implemented by profiles whose integrated multiplier has a
// closed-form inverse.
type inverter interface {
	// advance returns the time u >= t at which ∫_t^u φ reaches mass, or
	// +Inf if it never does within float range; ok is false if the
	// profile cannot invert.
	advance(t, mass float64) (u float64, ok bool)
}

// SetProfile attaches a hazard profile to the process; nil restores the
// time-homogeneous behaviour. The profile multiplies the base hazard
// sampled by SampleNextAt; SampleNext ignores it (callers that sample
// with SampleNext must not attach profiles). SetProfile resolves the
// profile into the kernel SampleNextAt evaluates, so it is the place to
// pay for that, not the sampling loop.
func (p *Process) SetProfile(h Hazard) {
	p.profile = h
	p.kern = resolveKernel(h)
}

// Profile returns the attached hazard profile (nil = homogeneous).
func (p *Process) Profile() Hazard { return p.profile }

// SampleNextAt draws the time from `now` until the next fault. With no
// profile attached it delegates to SampleNext — one draw, bit-identical
// to the historical path. With a profile it thins candidate arrivals
// against the profile's envelope: in each envelope window it draws an
// exponential candidate at rate bound·accel·bias/mean, advances to the
// window end on overshoot, and otherwise accepts with probability
// φ(candidate)/bound — outright when the envelope is tight (φ = bound,
// as for constant and piecewise profiles), so the acceptance draw is
// only spent where rejection is possible. After maxThinningRejects
// rejections an invertible profile finishes the wait in one draw: no
// arrival fell in [now, t], so the next one is where the integrated
// hazard from t reaches a fresh Exp(1) draw — exact, like thinning.
// Envelope and multiplier come from the process's kernel (see kernel);
// only a profile type this package does not know is called through the
// Hazard interface. Returns +Inf when the process is disabled or the
// profile's remaining mass is negligible.
func (p *Process) SampleNextAt(now float64, src *rng.Source) float64 {
	if p.profile == nil {
		return p.SampleNext(src)
	}
	k := &p.kern
	if p.Disabled() {
		return math.Inf(1)
	}
	base := p.accel * p.bias / p.mean
	t := now
	if k.kind == kernelConstant && k.bound > 0 && t <= maxHazardTime {
		// A constant envelope is tight and endless, so the walk below
		// would accept its first candidate: the same draw and the same
		// arithmetic, in one step.
		t += -math.Log(src.Float64Open()) / (base * k.bound)
		if math.IsInf(t, 1) {
			return t
		}
		return t - now
	}
	for rejects := 0; ; {
		if t > maxHazardTime {
			return math.Inf(1)
		}
		var bound, dt float64
		switch k.kind {
		case kernelWeibull:
			// WeibullHazard.Envelope: the multiplier at the window end.
			dt = (t + k.scale) / 4
			bound = k.weibull(t + dt)
		case kernelPiecewise:
			i := segment(k.bounds, t)
			bound, dt = k.factors[i], math.Inf(1)
			if i < len(k.bounds) {
				dt = k.bounds[i] - t
			}
		case kernelConstant:
			bound, dt = k.bound, math.Inf(1)
		default:
			bound, dt = p.profile.Envelope(t)
		}
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
		var m float64
		switch k.kind {
		case kernelWeibull:
			m = k.weibull(t)
		case kernelPiecewise:
			m = k.factors[segment(k.bounds, t)]
		case kernelConstant:
			m = k.bound
		default:
			m = p.profile.Multiplier(t)
		}
		if m >= bound || src.Float64Open()*bound <= m {
			return t - now
		}
		if rejects++; rejects == maxThinningRejects {
			if inv, ok := p.profile.(inverter); ok {
				if u, ok := inv.advance(t, -math.Log(src.Float64Open())/base); ok {
					if u > maxHazardTime {
						return math.Inf(1)
					}
					return u - now
				}
			}
		}
	}
}

// ConstantHazard is the trivial profile φ(t) = Factor: a time-homogeneous
// channel whose rate is Factor times the process's base rate. Factor 1 is
// dynamically identical to no profile at all, but is sampled through the
// thinning path and canonicalizes distinctly (profiled configs never
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

// Multiplier returns Factor.
func (h ConstantHazard) Multiplier(float64) float64 { return h.Factor }

// Envelope returns (Factor, +Inf): the bound holds forever.
func (h ConstantHazard) Envelope(float64) (float64, float64) {
	return h.Factor, math.Inf(1)
}

// MeanMultiplier returns Factor for every horizon.
func (h ConstantHazard) MeanMultiplier(float64) float64 { return h.Factor }

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
// maintenance seasons, operator-outage windows — and doubles as its own
// exact thinning envelope, so sampling never rejects inside a segment.
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

// Multiplier returns the factor of the segment containing t.
func (h PiecewiseHazard) Multiplier(t float64) float64 {
	return h.Factors[segment(h.Bounds, t)]
}

// Envelope returns the exact segment rate and the time to its boundary
// (+Inf in the final segment), so thinning accepts every in-window
// candidate.
func (h PiecewiseHazard) Envelope(t float64) (float64, float64) {
	i := segment(h.Bounds, t)
	if i == len(h.Bounds) {
		return h.Factors[i], math.Inf(1)
	}
	return h.Factors[i], h.Bounds[i] - t
}

// MeanMultiplier integrates the step function over [0, horizon].
func (h PiecewiseHazard) MeanMultiplier(horizon float64) float64 {
	if horizon <= 0 {
		return h.Factors[0]
	}
	total, prev := 0.0, 0.0
	for i, b := range h.Bounds {
		if b >= horizon {
			break
		}
		total += h.Factors[i] * (b - prev)
		prev = b
	}
	total += h.Multiplier(horizon) * (horizon - prev)
	return total / horizon
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
// check the thinning sampler against. Shape must be >= 1: shapes below 1
// have an unbounded hazard at t = 0 with no finite thinning envelope;
// model infant mortality with a PiecewiseHazard burn-in segment instead.
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

// Multiplier returns Shape·(t/Scale)^(Shape−1).
func (h WeibullHazard) Multiplier(t float64) float64 {
	if h.Shape == 1 {
		return 1
	}
	if t <= 0 {
		return 0
	}
	return h.Shape * math.Pow(t/h.Scale, h.Shape-1)
}

// Envelope returns the multiplier at the window end — exact as a bound
// because the profile is non-decreasing (Shape >= 1). Windows grow with
// t, keeping the expected number of thinning rounds per arrival bounded.
func (h WeibullHazard) Envelope(t float64) (float64, float64) {
	if h.Shape == 1 {
		return 1, math.Inf(1)
	}
	dt := (t + h.Scale) / 4
	return h.Multiplier(t + dt), dt
}

// MeanMultiplier returns (horizon/Scale)^(Shape−1), the exact average of
// φ over [0, horizon].
func (h WeibullHazard) MeanMultiplier(horizon float64) float64 {
	if h.Shape == 1 || horizon <= 0 {
		return 1
	}
	return math.Pow(horizon/h.Scale, h.Shape-1)
}

// advance inverts the integrated multiplier Scale·(t/Scale)^Shape in
// log space, so extreme shapes and scales neither overflow nor lose the
// starting time: with a = ln((t/Scale)^Shape) and b = ln(mass/Scale),
// u = Scale·exp(ln(e^a + e^b)/Shape).
func (h WeibullHazard) advance(t, mass float64) (float64, bool) {
	switch {
	case mass <= 0:
		return t, true
	case math.IsInf(mass, 1):
		return mass, true
	}
	lnScale := math.Log(h.Scale)
	b := math.Log(mass) - lnScale
	if t <= 0 {
		return math.Exp(lnScale + b/h.Shape), true
	}
	a := h.Shape * (math.Log(t) - lnScale)
	var u float64
	if a >= b {
		// u = t·(1 + e^(b−a))^(1/Shape): exactly t when the mass is
		// negligible, even where a itself overflows.
		u = t * math.Exp(math.Log1p(math.Exp(b-a))/h.Shape)
	} else {
		u = math.Exp(lnScale + (b+math.Log1p(math.Exp(a-b)))/h.Shape)
	}
	return math.Max(t, u), true
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
// its MeanMultiplier over a reference horizon is exactly 1, letting
// profile-shape comparisons (E17) hold the expected fault count fixed.
type ScaledHazard struct {
	// Base is the underlying profile.
	Base Hazard
	// Factor is the constant multiplier, > 0.
	Factor float64
}

// Normalize returns h scaled so its mean multiplier over [0, horizon] is
// 1: the profile reshapes *when* faults arrive without changing how many
// arrive on average within the horizon.
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
	// A mean multiplier so small that its reciprocal overflows is as
	// unnormalizable as zero.
	m := h.MeanMultiplier(horizon)
	if math.IsNaN(m) || m <= 0 || math.IsInf(m, 0) || math.IsInf(1/m, 0) {
		return ScaledHazard{}, fmt.Errorf("%w: hazard mean multiplier %v over %v h is not normalizable", ErrInvalid, m, horizon)
	}
	return ScaledHazard{Base: h, Factor: 1 / m}, nil
}

// Multiplier returns Factor·Base.Multiplier(t).
func (h ScaledHazard) Multiplier(t float64) float64 {
	return h.Factor * h.Base.Multiplier(t)
}

// Envelope scales the base envelope.
func (h ScaledHazard) Envelope(t float64) (float64, float64) {
	bound, dt := h.Base.Envelope(t)
	return h.Factor * bound, dt
}

// MeanMultiplier scales the base average.
func (h ScaledHazard) MeanMultiplier(horizon float64) float64 {
	return h.Factor * h.Base.MeanMultiplier(horizon)
}

// advance scales the mass into the base profile's units.
func (h ScaledHazard) advance(t, mass float64) (float64, bool) {
	if inv, ok := h.Base.(inverter); ok {
		return inv.advance(t, mass/h.Factor)
	}
	return 0, false
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
