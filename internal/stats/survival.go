package stats

import (
	"math"
	"sort"
	"sync"
)

// KaplanMeier is the product-limit estimator of the survival function
// S(t) = P(no data loss by t), built from possibly-censored trials.
//
// Long-horizon reliability simulation cannot always afford to run every
// trial to data loss (an archive with MTTDL in the thousands of years may
// see no loss within any reasonable horizon), so the estimator must handle
// censoring honestly rather than discarding or truncating those trials.
// ObsBuffer.KaplanMeier builds one fitted; ObsBuffer.DeferredKaplanMeier
// builds one that is fitted the first time it is read. Either is safe
// for concurrent readers.
type KaplanMeier struct {
	// mu guards the deferred fit; pending holds a deferred curve's
	// observations until then and is nil once the curve is fitted.
	mu      sync.Mutex
	pending *ObsBuffer

	times    []float64 // distinct event times, ascending
	survival []float64 // S(t) just after each event time
	atRisk   []int     // risk-set size just before each event time
	events   []int     // events at each time
	n        int
	maxTime  float64
}

// fitted runs a deferred fit if one is pending and returns km.
func (km *KaplanMeier) fitted() *KaplanMeier {
	km.mu.Lock()
	if b := km.pending; b != nil {
		km.pending = nil
		km.fit(b.events, b)
	}
	km.mu.Unlock()
	return km
}

// Survival returns the estimated S(t).
func (km *KaplanMeier) Survival(t float64) float64 {
	km.fitted()
	// Step function: S(t) is the survival just after the last event time
	// <= t.
	idx := sort.SearchFloat64s(km.times, t)
	// SearchFloat64s returns the first index with times[idx] >= t; adjust
	// to include an event exactly at t.
	if idx < len(km.times) && km.times[idx] == t {
		idx++
	}
	if idx == 0 {
		return 1
	}
	return km.survival[idx-1]
}

// LossProbability returns the estimated P(data loss by t) = 1 - S(t).
func (km *KaplanMeier) LossProbability(t float64) float64 { return 1 - km.Survival(t) }

// RestrictedMean returns the restricted mean survival time up to horizon:
// the area under S(t) on [0, horizon]. When every trial ends in an event
// before the horizon this equals the plain sample mean; with censoring it
// is the standard defensible summary (the unrestricted mean is not
// identifiable).
func (km *KaplanMeier) RestrictedMean(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	km.fitted()
	area := 0.0
	prevT := 0.0
	prevS := 1.0
	for i, t := range km.times {
		if t >= horizon {
			break
		}
		area += prevS * (t - prevT)
		prevT = t
		prevS = km.survival[i]
	}
	area += prevS * (horizon - prevT)
	return area
}

// MedianSurvival returns the smallest event time with S(t) <= 0.5, or
// ok=false if survival never falls to one half within the observed range
// (heavy censoring).
func (km *KaplanMeier) MedianSurvival() (median float64, ok bool) {
	km.fitted()
	for i, s := range km.survival {
		if s <= 0.5 {
			return km.times[i], true
		}
	}
	return 0, false
}

// GreenwoodSE returns Greenwood's standard error of S(t).
func (km *KaplanMeier) GreenwoodSE(t float64) float64 {
	var sum float64
	s := km.Survival(t) // fits a deferred curve
	for i, ti := range km.times {
		if ti > t {
			break
		}
		d := float64(km.events[i])
		n := float64(km.atRisk[i])
		if n > d {
			sum += d / (n * (n - d))
		}
	}
	return s * math.Sqrt(sum)
}

// SurvivalCI returns a confidence interval for S(t) using the normal
// approximation on Greenwood's variance, clamped to [0, 1].
func (km *KaplanMeier) SurvivalCI(t, level float64) Interval {
	s := km.Survival(t)
	h := zCritical(level) * km.GreenwoodSE(t)
	return Interval{
		Point: s,
		Lo:    math.Max(0, s-h),
		Hi:    math.Min(1, s+h),
		Level: level,
	}
}

// N returns the number of fitted observations.
func (km *KaplanMeier) N() int { return km.n }

// MaxTime returns the largest observation time (event or censored).
func (km *KaplanMeier) MaxTime() float64 { return km.maxTime }
