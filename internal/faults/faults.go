// Package faults models the fault processes of §4–§5: visible and latent
// fault arrivals, correlation between replicas (the paper's multiplicative
// α and the shared-component correlation it abstracts), and common-cause
// shocks of the kind Talagala logged in the UC Berkeley disk farm (shared
// power, cooling, controllers).
//
// The package is simulation-substrate: it knows about hazard rates and
// replica indices, not about the des engine. internal/sim wires these
// processes to the event queue.
package faults

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Type distinguishes the two §5.1 fault classes.
type Type int

const (
	// Visible faults are detected the instant they occur (whole-disk
	// failures, controller errors).
	Visible Type = iota
	// Latent faults occur silently (bit rot, misdirected writes,
	// unreadable sectors, format obsolescence) and wait for an audit or
	// access to be discovered.
	Latent
)

// String returns the fault-class name.
func (t Type) String() string {
	switch t {
	case Visible:
		return "visible"
	case Latent:
		return "latent"
	default:
		return fmt.Sprintf("faults.Type(%d)", int(t))
	}
}

// ErrInvalid reports a fault-process parameter outside its domain.
var ErrInvalid = errors.New("faults: invalid parameter")

// Process is a memoryless fault arrival process with a switchable hazard
// rate. The base hazard is 1/Mean; correlation models accelerate it while
// other replicas have outstanding faults, and importance sampling may
// further multiply it by a bias factor whose effect is corrected out of
// the estimate via likelihood-ratio weights. Memorylessness is what makes
// resampling the next arrival after every rate change valid — the paper's
// model makes exactly the same assumption (§5.2).
type Process struct {
	mean  float64
	accel float64
	bias  float64
	// kern is the hazard profile SetProfile attached, resolved for
	// SampleNextAt, which inverts its integrated multiplier; the zero
	// kernel (kernelNone) is no profile. See Hazard.
	kern kernel
}

// NewProcess returns a Process with the given mean time between faults in
// hours. A mean of +Inf disables the process (no such fault channel).
func NewProcess(mean float64) (*Process, error) {
	if math.IsNaN(mean) || mean <= 0 {
		return nil, fmt.Errorf("%w: fault process mean %v must be positive", ErrInvalid, mean)
	}
	return &Process{mean: mean, accel: 1, bias: 1}, nil
}

// SetAcceleration sets the hazard multiplier f ≥ 1 (1 = nominal). The
// correlation models produce f = 1/α while faults are outstanding.
func (p *Process) SetAcceleration(f float64) {
	if math.IsNaN(f) || f < 1 {
		panic(fmt.Sprintf("faults: acceleration %v must be >= 1", f))
	}
	p.accel = f
}

// Acceleration returns the current hazard multiplier.
func (p *Process) Acceleration() float64 { return p.accel }

// SetBias sets the importance-sampling hazard multiplier b ≥ 1
// (1 = unbiased). Unlike acceleration, bias is a property of the
// sampling measure, not the modeled system: EffectiveMean — the true
// rate, used for likelihood-ratio exposure — excludes it, while
// SampleNext draws under it.
func (p *Process) SetBias(b float64) {
	if math.IsNaN(b) || b < 1 {
		panic(fmt.Sprintf("faults: bias %v must be >= 1", b))
	}
	p.bias = b
}

// Bias returns the current importance-sampling multiplier.
func (p *Process) Bias() float64 { return p.bias }

// EffectiveMean returns the current modeled mean inter-arrival time,
// mean/acceleration — deliberately excluding any sampling bias.
func (p *Process) EffectiveMean() float64 { return p.mean / p.accel }

// BaseMean returns the nominal (unaccelerated) mean.
func (p *Process) BaseMean() float64 { return p.mean }

// Disabled reports whether the process can never fire.
func (p *Process) Disabled() bool { return math.IsInf(p.mean, 1) }

// SampleNext draws the time from now until the next fault under the
// current acceleration and sampling bias. Returns +Inf for a disabled
// process. At bias 1 the draw is bit-identical to the unbiased path
// (the /1 divide is exact).
func (p *Process) SampleNext(src *rng.Source) float64 {
	if p.Disabled() {
		return math.Inf(1)
	}
	return p.mean / (p.accel * p.bias) * src.Exp()
}

// Correlation maps the number of replicas with outstanding faults to the
// hazard acceleration experienced by the still-healthy replicas.
type Correlation interface {
	// Acceleration returns the hazard multiplier (finite, ≥ 1) applied
	// to healthy replicas while nFaulty replicas have outstanding faults.
	// It must be a pure function of nFaulty: the simulator calls it once
	// per n when it sets a trial up and reuses the table for every trial,
	// and sim.Config.Validate rejects a model whose values are not finite
	// or fall below 1.
	Acceleration(nFaulty int) float64
	// Alpha returns the equivalent model correlation factor α ∈ (0, 1]
	// for the first conditional fault, for analytic comparison.
	Alpha() float64
}

// Independent is the no-correlation model: replicas fail independently
// (α = 1), the §4.2 "independence assumption".
type Independent struct{}

// Acceleration returns 1 regardless of outstanding faults.
func (Independent) Acceleration(int) float64 { return 1 }

// Alpha returns 1.
func (Independent) Alpha() float64 { return 1 }

// AlphaCorrelation is the paper's §5.3 model: once any fault is
// outstanding, the conditional mean time to the next fault on another
// replica contracts by α, i.e. the hazard accelerates by 1/α. The factor
// is flat in the number of outstanding faults, matching the eq 12
// derivation where each successive failure has probability MRV/(α·MV).
type AlphaCorrelation struct {
	// Factor is α ∈ (0, 1].
	Factor float64
}

// NewAlphaCorrelation returns an AlphaCorrelation with the given α.
func NewAlphaCorrelation(alpha float64) (AlphaCorrelation, error) {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return AlphaCorrelation{}, fmt.Errorf("%w: alpha %v must be in (0, 1]", ErrInvalid, alpha)
	}
	return AlphaCorrelation{Factor: alpha}, nil
}

// NewCorrelation returns the correlation model for α: Independent at
// α = 1, else NewAlphaCorrelation's, which requires α in (0, 1].
func NewCorrelation(alpha float64) (Correlation, error) {
	if alpha == 1 {
		return Independent{}, nil
	}
	return NewAlphaCorrelation(alpha)
}

// Acceleration returns 1/α while any fault is outstanding.
func (c AlphaCorrelation) Acceleration(nFaulty int) float64 {
	if nFaulty <= 0 {
		return 1
	}
	return 1 / c.Factor
}

// Alpha returns α.
func (c AlphaCorrelation) Alpha() float64 { return c.Factor }

// CompoundingAlpha accelerates by 1/α per outstanding fault: a harsher
// reading of correlation in which each additional failure further
// destabilizes the system (cascading overload). Used in ablation benches
// against the paper's flat model.
type CompoundingAlpha struct {
	// Factor is α ∈ (0, 1].
	Factor float64
}

// NewCompoundingAlpha returns a CompoundingAlpha with the given α.
func NewCompoundingAlpha(alpha float64) (CompoundingAlpha, error) {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return CompoundingAlpha{}, fmt.Errorf("%w: alpha %v must be in (0, 1]", ErrInvalid, alpha)
	}
	return CompoundingAlpha{Factor: alpha}, nil
}

// Acceleration returns (1/α)^nFaulty.
func (c CompoundingAlpha) Acceleration(nFaulty int) float64 {
	if nFaulty <= 0 {
		return 1
	}
	return math.Pow(1/c.Factor, float64(nFaulty))
}

// Alpha returns α.
func (c CompoundingAlpha) Alpha() float64 { return c.Factor }
