// Package aging models age-dependent ("bathtub") drive mortality and the
// §6.5 hardware-batch hazard: "Disks in an array often come from a single
// manufacturing batch. They thus have the same firmware, same hardware
// and are the same age, and so are at the same point in the 'bathtub'
// lifetime failure curve." Same-age replicas wear out together, which is
// a correlated-fault channel the memoryless model cannot see; the cure
// the paper endorses is rolling procurement.
//
// The package provides conditional Weibull sampling (remaining lifetime
// given current age) and a small renewal simulation of a mirrored pair
// whose drives age, fail, and are replaced. internal/sim samples
// time-varying hazards exactly, by inverting their integrated hazard,
// but its profiles run on trial time: a replica has no starting age, and
// replacing a drive does not reset its age. E14's same-batch versus
// rolling-procurement comparison needs both, so it runs here.
package aging

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// ErrInvalid reports an aging parameter outside its domain.
var ErrInvalid = errors.New("aging: invalid parameter")

// RemainingLifetime samples the residual life of a component that has
// survived to the given age under a Weibull(shape, scale) lifetime, by
// inverse transform of the conditional distribution:
//
//	P(L > age+t | L > age) = exp((age/λ)^k - ((age+t)/λ)^k)
//
// so ((age+t)/λ)^k = (age/λ)^k + E for one E ~ Exp(1).
//
// shape = 1 reduces to the memoryless exponential (residual independent
// of age); shape > 1 is wear-out (§6.5's bathtub right wall).
func RemainingLifetime(shape, scale, age float64, src *rng.Source) float64 {
	ak := math.Pow(age/scale, shape)
	total := scale * math.Pow(ak+src.Exp(), 1/shape)
	if total <= age { // float guard; residual must be positive
		return math.SmallestNonzeroFloat64
	}
	return total - age
}

// PairConfig describes a mirrored pair of drives with Weibull mortality.
type PairConfig struct {
	// Shape is the Weibull shape k: 1 = memoryless, >1 = wear-out.
	Shape float64
	// MeanLife is the mean drive lifetime in hours.
	MeanLife float64
	// RepairHours is the replacement time once a drive fails (the window
	// of vulnerability).
	RepairHours float64
	// InitialAges holds the two drives' ages at time zero. A same-batch
	// array has equal ages; rolling procurement staggers them.
	InitialAges [2]float64
}

// Validate reports whether the configuration is well-formed.
func (c PairConfig) Validate() error {
	if c.Shape <= 0 || math.IsNaN(c.Shape) {
		return fmt.Errorf("%w: shape %v must be positive", ErrInvalid, c.Shape)
	}
	if c.MeanLife <= 0 || math.IsNaN(c.MeanLife) {
		return fmt.Errorf("%w: mean life %v must be positive", ErrInvalid, c.MeanLife)
	}
	if c.RepairHours <= 0 || math.IsNaN(c.RepairHours) {
		return fmt.Errorf("%w: repair hours %v must be positive", ErrInvalid, c.RepairHours)
	}
	for _, a := range c.InitialAges {
		if a < 0 || math.IsNaN(a) {
			return fmt.Errorf("%w: initial age %v must be non-negative", ErrInvalid, a)
		}
	}
	return nil
}

// scale returns the Weibull scale λ for the configured mean.
func (c PairConfig) scale() float64 {
	return c.MeanLife / math.Gamma(1+1/c.Shape)
}

// Result summarizes a renewal simulation.
type Result struct {
	// Trials is the number of independent pair histories simulated.
	Trials int
	// DoubleFaults counts trials that suffered a double fault (second
	// drive failing during the first one's replacement) within the
	// horizon.
	DoubleFaults int
	// Replacements counts total drive replacements across trials.
	Replacements int
}

// DoubleFaultProbability returns the per-trial double-fault probability
// within the horizon.
func (r Result) DoubleFaultProbability() float64 {
	if r.Trials == 0 {
		return math.NaN()
	}
	return float64(r.DoubleFaults) / float64(r.Trials)
}

// SimulatePair runs the renewal simulation: two drives age and fail under
// Weibull mortality; a failed drive is replaced by a new (age-0) one
// after RepairHours; if the companion fails during that window, the trial
// records a double fault (mirrored data loss) and ends. Trials end at the
// horizon otherwise.
func SimulatePair(cfg PairConfig, trials int, horizon float64, seed uint64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if trials < 1 {
		return Result{}, fmt.Errorf("%w: trials %d must be >= 1", ErrInvalid, trials)
	}
	if horizon <= 0 || math.IsNaN(horizon) {
		return Result{}, fmt.Errorf("%w: horizon %v must be positive", ErrInvalid, horizon)
	}
	root := rng.New(seed)
	scale := cfg.scale()
	var res Result
	res.Trials = trials
	for trial := 0; trial < trials; trial++ {
		src := root.Derive(uint64(trial) + 1)
		now := 0.0
		// Each drive's pending failure time, computed from its age.
		age := cfg.InitialAges
		fail := [2]float64{
			RemainingLifetime(cfg.Shape, scale, age[0], src),
			RemainingLifetime(cfg.Shape, scale, age[1], src),
		}
		for {
			first := 0
			if fail[1] < fail[0] {
				first = 1
			}
			t := fail[first]
			if t > horizon {
				break
			}
			// The first drive fails at t; its replacement completes at
			// t+R. Double fault if the companion fails in the window.
			other := 1 - first
			if fail[other] <= t+cfg.RepairHours {
				res.DoubleFaults++
				break
			}
			// Replace the failed drive with a new one.
			res.Replacements++
			now = t + cfg.RepairHours
			age[first] = 0
			fail[first] = now + RemainingLifetime(cfg.Shape, scale, 0, src)
		}
	}
	return res, nil
}

// SameBatch returns a pair configuration with both drives the same age.
func SameBatch(shape, meanLife, repairHours, age float64) PairConfig {
	return PairConfig{
		Shape: shape, MeanLife: meanLife, RepairHours: repairHours,
		InitialAges: [2]float64{age, age},
	}
}

// RollingProcurement returns a pair whose second drive is staggered by
// the given fraction of the mean life — §6.5's prescription.
func RollingProcurement(shape, meanLife, repairHours, staggerFraction float64) PairConfig {
	return PairConfig{
		Shape: shape, MeanLife: meanLife, RepairHours: repairHours,
		InitialAges: [2]float64{0, staggerFraction * meanLife},
	}
}
