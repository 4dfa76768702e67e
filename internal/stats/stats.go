// Package stats implements the statistical estimators the Monte Carlo
// harness runs: streaming moments with Student-t intervals, Wilson and
// Horvitz–Thompson intervals for (weighted) loss proportions, and
// Kaplan–Meier survival estimation for horizon-censored time-to-data-loss
// trials, fitted from a mergeable observation buffer.
//
// Everything is implemented from scratch on the standard library and the
// package imports nothing else from this module, because the paper's
// claims are about means, tail probabilities, and survival fractions —
// all of which need honest uncertainty estimates before "model ≈
// simulation" can be asserted.
package stats

import (
	"errors"
	"math"
)

// ErrNoData reports an estimator asked for a result before observing any
// samples.
var ErrNoData = errors.New("stats: no data")

// Running accumulates count, mean, and variance in one pass using
// Welford's algorithm, which stays numerically stable over the millions of
// trials a reliability sweep produces. The zero value is an empty
// accumulator ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddAll incorporates every value in xs.
func (r *Running) AddAll(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// Merge combines another accumulator into r (Chan et al. parallel update),
// so per-goroutine accumulators can be reduced after a parallel sweep.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	nA, nB := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	total := nA + nB
	r.mean += delta * nB / total
	r.m2 += o.m2 + delta*delta*nA*nB/total
	r.n += o.n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (NaN if empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the unbiased sample variance (NaN if n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation (NaN if n < 2).
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean (NaN if n < 2).
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Min returns the smallest observation (NaN if empty).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation (NaN if empty).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point  float64
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// HalfWidth returns half the interval width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// RelativeHalfWidth returns HalfWidth/|Point| (Inf when Point is 0),
// the usual sequential-stopping criterion for Monte Carlo runs.
func (iv Interval) RelativeHalfWidth() float64 {
	if iv.Point == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth() / math.Abs(iv.Point)
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// MeanCI returns the Student-t confidence interval for the mean at the
// given level (e.g. 0.95). It returns ErrNoData when fewer than two
// observations are available.
func (r *Running) MeanCI(level float64) (Interval, error) {
	if r.n < 2 {
		return Interval{}, ErrNoData
	}
	t := tCritical(level, r.n-1)
	h := t * r.StdErr()
	return Interval{Point: r.mean, Lo: r.mean - h, Hi: r.mean + h, Level: level}, nil
}

// Proportion is a streaming Bernoulli estimator for probabilities such as
// P(data loss within 50 years).
type Proportion struct {
	n, hits int
}

// Add incorporates one Bernoulli observation.
func (p *Proportion) Add(hit bool) {
	p.n++
	if hit {
		p.hits++
	}
}

// Merge combines another accumulator into p. Counts are integers, so the
// merge is exact: merged partials from a parallel sweep produce the same
// estimator and interval as a single sequential pass, in any merge order.
func (p *Proportion) Merge(o Proportion) {
	p.n += o.n
	p.hits += o.hits
}

// N returns the number of trials observed.
func (p *Proportion) N() int { return p.n }

// Hits returns the number of successes observed.
func (p *Proportion) Hits() int { return p.hits }

// Estimate returns the sample proportion (NaN if empty).
func (p *Proportion) Estimate() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	return float64(p.hits) / float64(p.n)
}

// CI returns the Wilson score interval, which behaves sensibly for the
// extreme probabilities (≪1) reliability studies live in, unlike the Wald
// interval.
func (p *Proportion) CI(level float64) (Interval, error) {
	if p.n == 0 {
		return Interval{}, ErrNoData
	}
	z := zCritical(level)
	n := float64(p.n)
	phat := float64(p.hits) / n
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n))
	return Interval{Point: phat, Lo: math.Max(0, center-half), Hi: math.Min(1, center+half), Level: level}, nil
}
