package rng

import (
	"errors"
	"fmt"
	"math"
)

// Sampler draws values from a probability distribution. Implementations
// must be deterministic given the Source state and must not retain the
// Source between calls.
type Sampler interface {
	// Sample draws one value. Durations and times are in hours throughout
	// this repository; Samplers themselves are unit-agnostic.
	Sample(src *Source) float64

	// Mean returns the distribution's expected value, used by analytic
	// cross-checks. NaN if the mean does not exist.
	Mean() float64
}

// ErrInvalidParam reports a distribution constructed with parameters
// outside its domain.
var ErrInvalidParam = errors.New("rng: invalid distribution parameter")

// Exponential is the memoryless distribution with the given mean, the
// paper's §5.2 baseline assumption for both visible and latent fault
// inter-arrival times (eq 1).
type Exponential struct {
	MeanValue float64
}

// NewExponential returns an Exponential with the given mean.
func NewExponential(mean float64) (Exponential, error) {
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return Exponential{}, fmt.Errorf("%w: exponential mean %v must be positive and finite", ErrInvalidParam, mean)
	}
	return Exponential{MeanValue: mean}, nil
}

// Sample draws by inverse transform: -mean * ln(U).
func (e Exponential) Sample(src *Source) float64 {
	return -e.MeanValue * math.Log(src.Float64Open())
}

// Mean returns the distribution mean.
func (e Exponential) Mean() float64 { return e.MeanValue }

// Rate returns 1/mean, the hazard rate.
func (e Exponential) Rate() float64 { return 1 / e.MeanValue }

// LogNormal models multiplicative noise, used for operator repair delays
// whose distribution is heavy-tailed.
type LogNormal struct {
	Mu    float64 // mean of ln X
	Sigma float64 // stddev of ln X
}

// NewLogNormal returns a LogNormal with the given log-space parameters.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if sigma <= 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		return LogNormal{}, fmt.Errorf("%w: lognormal sigma %v must be positive", ErrInvalidParam, sigma)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// LogNormalFromMeanCV returns the LogNormal with the given mean and
// coefficient of variation (stddev/mean), the natural parameterization for
// "repairs take about a day, give or take 2x".
func LogNormalFromMeanCV(mean, cv float64) (LogNormal, error) {
	if mean <= 0 || cv <= 0 {
		return LogNormal{}, fmt.Errorf("%w: lognormal mean %v and cv %v must be positive", ErrInvalidParam, mean, cv)
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return NewLogNormal(mu, math.Sqrt(sigma2))
}

// Sample draws exp(N(mu, sigma)).
func (l LogNormal) Sample(src *Source) float64 {
	return math.Exp(l.Mu + l.Sigma*src.normal())
}

// Mean returns exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// normal draws a standard normal deviate by the Marsaglia polar method.
// The spare deviate is intentionally discarded: caching it would make the
// stream consumed by one subsystem depend on draw parity, breaking the
// per-stream reproducibility contract of Derive.
func (s *Source) normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// NewUniform returns a Uniform on [lo, hi).
func NewUniform(lo, hi float64) (Uniform, error) {
	if !(lo < hi) {
		return Uniform{}, fmt.Errorf("%w: uniform bounds [%v, %v) are empty", ErrInvalidParam, lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample draws uniformly from [Lo, Hi).
func (u Uniform) Sample(src *Source) float64 {
	return u.Lo + (u.Hi-u.Lo)*src.Float64()
}

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Deterministic always returns Value. Repair-time models frequently use it
// (the paper's MRV for a Cheetah rebuild is the fixed 20-minute full-disk
// transfer time).
type Deterministic struct {
	Value float64
}

// Sample returns Value.
func (d Deterministic) Sample(*Source) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// Shifted adds a fixed offset to another Sampler, e.g. operator dispatch
// latency before an exponential repair.
type Shifted struct {
	Offset float64
	Base   Sampler
}

// Sample returns Offset + Base.Sample.
func (s Shifted) Sample(src *Source) float64 { return s.Offset + s.Base.Sample(src) }

// Mean returns Offset + Base.Mean.
func (s Shifted) Mean() float64 { return s.Offset + s.Base.Mean() }

// Scaled multiplies another Sampler by a fixed factor. The correlation
// model uses it to contract inter-fault times by α.
type Scaled struct {
	Factor float64
	Base   Sampler
}

// Sample returns Factor * Base.Sample.
func (s Scaled) Sample(src *Source) float64 { return s.Factor * s.Base.Sample(src) }

// Mean returns Factor * Base.Mean.
func (s Scaled) Mean() float64 { return s.Factor * s.Base.Mean() }

// Mixture draws from component i with probability Weights[i].
type Mixture struct {
	Weights    []float64
	Components []Sampler
	cumulative []float64
	total      float64
}

// NewMixture returns a Mixture of the given components. Weights need not
// be normalized but must be non-negative with a positive sum, and there
// must be one weight per component.
func NewMixture(weights []float64, components []Sampler) (*Mixture, error) {
	if len(weights) != len(components) || len(weights) == 0 {
		return nil, fmt.Errorf("%w: mixture needs equal, non-zero numbers of weights (%d) and components (%d)", ErrInvalidParam, len(weights), len(components))
	}
	m := &Mixture{Weights: weights, Components: components}
	m.cumulative = make([]float64, len(weights))
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("%w: mixture weight %v must be non-negative", ErrInvalidParam, w)
		}
		m.total += w
		m.cumulative[i] = m.total
	}
	if m.total <= 0 {
		return nil, fmt.Errorf("%w: mixture weights sum to %v, need > 0", ErrInvalidParam, m.total)
	}
	return m, nil
}

// Sample picks a component by weight and draws from it.
func (m *Mixture) Sample(src *Source) float64 {
	u := src.Float64() * m.total
	for i, c := range m.cumulative {
		if u < c {
			return m.Components[i].Sample(src)
		}
	}
	return m.Components[len(m.Components)-1].Sample(src)
}

// Mean returns the weighted mean of the component means.
func (m *Mixture) Mean() float64 {
	var sum float64
	for i, c := range m.Components {
		sum += m.Weights[i] * c.Mean()
	}
	return sum / m.total
}

// Empirical resamples uniformly from observed values, for replaying
// measured repair or detection delays.
type Empirical struct {
	Values []float64
}

// NewEmpirical returns an Empirical over a copy of values.
func NewEmpirical(values []float64) (*Empirical, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: empirical distribution needs at least one value", ErrInvalidParam)
	}
	cp := make([]float64, len(values))
	copy(cp, values)
	return &Empirical{Values: cp}, nil
}

// Sample returns one of the observed values uniformly at random.
func (e *Empirical) Sample(src *Source) float64 {
	return e.Values[src.Intn(len(e.Values))]
}

// Mean returns the sample mean of the observed values.
func (e *Empirical) Mean() float64 {
	var sum float64
	for _, v := range e.Values {
		sum += v
	}
	return sum / float64(len(e.Values))
}
