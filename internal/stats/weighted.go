package stats

import "math"

// This file holds the weighted counterparts of Running and Proportion
// used by importance-sampled (failure-biased) Monte Carlo runs: each
// trial arrives with a likelihood-ratio weight w = dP/dQ, estimators
// are Horvitz–Thompson style sums of w·x, and uncertainty is reported
// against the effective sample size (ΣW)²/ΣW² rather than the raw
// trial count. All state is plain sums, so merging partials from a
// parallel sweep in trial order reproduces a sequential pass exactly.

// WeightedMean accumulates a weighted mean and variance using West's
// incremental update (the weighted generalization of Welford). With all
// weights equal to 1 it degenerates to the ordinary sample mean. The
// zero value is an empty accumulator ready to use.
type WeightedMean struct {
	n     int
	sumW  float64
	sumW2 float64
	mean  float64
	m2    float64
}

// Add incorporates one observation x with weight w >= 0. Zero-weight
// observations are counted but do not move the mean.
func (m *WeightedMean) Add(x, w float64) {
	m.n++
	if w <= 0 {
		return
	}
	m.sumW += w
	m.sumW2 += w * w
	delta := x - m.mean
	m.mean += delta * w / m.sumW
	m.m2 += w * delta * (x - m.mean)
}

// Merge combines another accumulator into m (the weighted Chan update),
// so per-batch accumulators can be reduced after a parallel sweep.
func (m *WeightedMean) Merge(o WeightedMean) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	m.n += o.n
	if o.sumW == 0 {
		return
	}
	if m.sumW == 0 {
		m.sumW, m.sumW2, m.mean, m.m2 = o.sumW, o.sumW2, o.mean, o.m2
		return
	}
	delta := o.mean - m.mean
	total := m.sumW + o.sumW
	m.mean += delta * o.sumW / total
	m.m2 += o.m2 + delta*delta*m.sumW*o.sumW/total
	m.sumW = total
	m.sumW2 += o.sumW2
}

// N returns the number of observations (including zero-weight ones).
func (m *WeightedMean) N() int { return m.n }

// SumWeights returns ΣW.
func (m *WeightedMean) SumWeights() float64 { return m.sumW }

// Mean returns the weighted mean Σwx/Σw (NaN if no weight observed).
func (m *WeightedMean) Mean() float64 {
	if m.sumW == 0 {
		return math.NaN()
	}
	return m.mean
}

// EffectiveN returns the effective sample size (ΣW)²/ΣW², the
// equal-weight trial count with the same estimator variance; 0 when
// empty.
func (m *WeightedMean) EffectiveN() float64 {
	if m.sumW2 == 0 {
		return 0
	}
	return m.sumW * m.sumW / m.sumW2
}

// Variance returns the frequency-interpretation weighted sample
// variance m2/(ΣW − ΣW²/ΣW), NaN when the effective sample size is
// not above 1.
func (m *WeightedMean) Variance() float64 {
	if m.sumW == 0 || m.EffectiveN() <= 1 {
		return math.NaN()
	}
	return m.m2 / (m.sumW - m.sumW2/m.sumW)
}

// MeanCI returns a Student-t interval for the weighted mean with the
// effective sample size standing in for the observation count — the
// standard large-sample approximation for importance-sampled means. It
// returns ErrNoData when the effective sample size is not above 1.
func (m *WeightedMean) MeanCI(level float64) (Interval, error) {
	ess := m.EffectiveN()
	if ess <= 1 {
		return Interval{}, ErrNoData
	}
	se := math.Sqrt(m.Variance() / ess)
	t := tCritical(level, int(ess)-1)
	h := t * se
	return Interval{Point: m.mean, Lo: m.mean - h, Hi: m.mean + h, Level: level}, nil
}

// WeightedProportion is the Horvitz–Thompson estimator of a rare-event
// probability from importance-sampled Bernoulli trials: each trial i
// contributes weight w_i and indicator y_i, the estimate is
// (1/n)Σw_i·y_i, and the variance is the sample variance of the per-
// trial terms w_i·y_i divided by n. Because E_Q[w·y] = p under the
// biased measure Q, the estimator is unbiased whatever the biasing.
type WeightedProportion struct {
	n, hits int
	sumW    float64 // Σ w_i over all trials
	sumW2   float64 // Σ w_i²
	sumWY   float64 // Σ w_i·y_i
	sumW2Y  float64 // Σ (w_i·y_i)²
}

// Add incorporates one trial with indicator hit and weight w.
func (p *WeightedProportion) Add(hit bool, w float64) {
	p.n++
	p.sumW += w
	p.sumW2 += w * w
	if hit {
		p.hits++
		p.sumWY += w
		p.sumW2Y += w * w
	}
}

// Merge combines another accumulator into p. All state is plain sums,
// so the merge is exact in any order.
func (p *WeightedProportion) Merge(o WeightedProportion) {
	p.n += o.n
	p.hits += o.hits
	p.sumW += o.sumW
	p.sumW2 += o.sumW2
	p.sumWY += o.sumWY
	p.sumW2Y += o.sumW2Y
}

// N returns the number of trials observed.
func (p *WeightedProportion) N() int { return p.n }

// Hits returns the number of raw (biased-measure) successes observed.
func (p *WeightedProportion) Hits() int { return p.hits }

// SumWeights returns Σw over all trials; for a correctly-weighted
// importance sampler this concentrates around N.
func (p *WeightedProportion) SumWeights() float64 { return p.sumW }

// Estimate returns the Horvitz–Thompson point estimate (1/n)Σw·y
// (NaN if empty).
func (p *WeightedProportion) Estimate() float64 {
	if p.n == 0 {
		return math.NaN()
	}
	return p.sumWY / float64(p.n)
}

// EffectiveN returns the effective sample size (Σw·y)²/Σ(w·y)² of the
// hitting trials — the equal-weight loss count carrying the same
// information; 0 with no hits. This is the honest "how many losses did
// we really see" figure a biased run reports.
func (p *WeightedProportion) EffectiveN() float64 {
	if p.sumW2Y == 0 {
		return 0
	}
	return p.sumWY * p.sumWY / p.sumW2Y
}

// ControlVariateCI returns the regression-adjusted interval: the plain
// Horvitz–Thompson estimate corrected by the analytic control variate.
// The control is the likelihood-ratio weight itself, whose expectation
// under the biased measure is exactly 1 (the measure-change identity
// E_Q[dP/dQ] = 1 — an analytic fact, not an estimate): the realized
// deviation of mean(w) from 1 is pure sampling noise, and any
// correlation between w and the loss terms w·y lets the regression
//
//	p_cv = mean(w·y) − b·(mean(w) − 1),  b = Cov(w·y, w)/Var(w)
//
// cancel the shared part of it. With the sample-optimal b the
// asymptotic variance is (1 − ρ²) times the plain estimator's, so the
// adjusted interval is never wider in the limit; the estimated-b bias
// is O(1/n) and vanishes against the 1/√n interval width. All three
// moments are plain sums, so the adjustment merges exactly like the
// rest of the accumulator. Returns ErrNoData when fewer than two
// trials were observed, and falls back to the plain estimate when the
// weights are degenerate (Var(w) = 0, i.e. β = 1).
func (p *WeightedProportion) ControlVariateCI(level float64) (Interval, error) {
	if p.n < 2 {
		return Interval{}, ErrNoData
	}
	n := float64(p.n)
	meanW := p.sumW / n
	meanWY := p.sumWY / n
	varW := (p.sumW2 - p.sumW*p.sumW/n) / (n - 1)
	varWY := (p.sumW2Y - p.sumWY*p.sumWY/n) / (n - 1)
	if varW <= 0 || varWY <= 0 {
		return p.CI(level)
	}
	// y ∈ {0,1} makes (w·y)·w = w²·y, so the cross moment is sumW2Y.
	cov := (p.sumW2Y - p.sumW*p.sumWY/n) / (n - 1)
	b := cov / varW
	point := math.Min(1, math.Max(0, meanWY-b*(meanW-1)))
	rho2 := cov * cov / (varW * varWY)
	if rho2 > 1 {
		rho2 = 1
	}
	s2 := varWY * (1 - rho2)
	var half float64
	if s2 > 0 {
		half = zCritical(level) * math.Sqrt(s2/n)
	}
	return Interval{Point: point, Lo: math.Max(0, point-half), Hi: math.Min(1, point+half), Level: level}, nil
}

// CI returns the normal-approximation interval for the Horvitz–
// Thompson estimate, clamped to [0, 1]. The variance is the sample
// variance of the per-trial terms w·y over n: exact for the i.i.d.
// weighted mean, and well-behaved in the rare-event regimes the
// estimator exists for. Returns ErrNoData when empty.
func (p *WeightedProportion) CI(level float64) (Interval, error) {
	if p.n == 0 {
		return Interval{}, ErrNoData
	}
	n := float64(p.n)
	point := p.sumWY / n
	var half float64
	if p.n > 1 {
		// Sample variance of w·y: (Σ(wy)² − (Σwy)²/n)/(n−1).
		s2 := (p.sumW2Y - p.sumWY*p.sumWY/n) / (n - 1)
		if s2 > 0 {
			half = zCritical(level) * math.Sqrt(s2/n)
		}
	}
	return Interval{Point: point, Lo: math.Max(0, point-half), Hi: math.Min(1, point+half), Level: level}, nil
}
