// Package scrub implements the audit strategies of §6.2: the mechanisms
// that turn latent faults into detected (and hence repairable) ones.
// Each strategy decides *when* a replica is audited; the analytic mean
// detection lag (the model's MDL) is exposed alongside so simulation and
// closed form can be compared on equal terms.
package scrub

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// ErrInvalid reports a strategy parameter outside its domain.
var ErrInvalid = errors.New("scrub: invalid parameter")

// Strategy schedules audits of a single replica. Implementations must be
// deterministic given the Source.
type Strategy interface {
	// NextAudit returns the absolute time of the first audit after now.
	// ok = false means the replica is never audited again.
	NextAudit(now float64, src *rng.Source) (at float64, ok bool)
	// MeanDetectionLag returns the analytic mean time from a latent
	// fault's occurrence to its detection under this strategy, assuming
	// faults arrive uniformly in time. +Inf for never-audited.
	MeanDetectionLag() float64
	// Name identifies the strategy in reports.
	Name() string
}

// None never audits: the §4.1 fault-visibility strawman. Latent faults
// are found only if some other channel (user access) stumbles on them.
type None struct{}

// NextAudit reports that no audit will happen.
func (None) NextAudit(float64, *rng.Source) (float64, bool) { return 0, false }

// MeanDetectionLag returns +Inf.
func (None) MeanDetectionLag() float64 { return math.Inf(1) }

// Name returns "none".
func (None) Name() string { return "none" }

// Periodic audits every Interval hours starting at Offset. With faults
// arriving uniformly within an interval, the mean detection lag is half
// the interval — the paper's "MDL is 1460 hours (which is half of the
// scrubbing period)".
type Periodic struct {
	// Interval is the audit period in hours.
	Interval float64
	// Offset staggers the schedule (audit times are Offset + k·Interval).
	// Staggering audits across replicas avoids synchronized load spikes.
	Offset float64
}

// NewPeriodic returns a Periodic strategy with n audits per year of 8760
// hours, staggered by offset.
func NewPeriodic(perYear, offset float64) (Periodic, error) {
	if perYear <= 0 || math.IsNaN(perYear) {
		return Periodic{}, fmt.Errorf("%w: periodic audits/year %v must be positive", ErrInvalid, perYear)
	}
	return Periodic{Interval: 8760 / perYear, Offset: offset}, nil
}

// NextAudit returns the next scheduled audit strictly after now.
func (p Periodic) NextAudit(now float64, _ *rng.Source) (float64, bool) {
	if p.Interval <= 0 {
		return 0, false
	}
	k := math.Floor((now - p.Offset) / p.Interval)
	next := p.Offset + (k+1)*p.Interval
	// Guard float rounding: the result must be strictly after now.
	for next <= now {
		next += p.Interval
	}
	return next, true
}

// MeanDetectionLag returns Interval/2.
func (p Periodic) MeanDetectionLag() float64 { return p.Interval / 2 }

// Name returns a description with the period.
func (p Periodic) Name() string {
	return fmt.Sprintf("periodic/%.3gh", p.Interval)
}

// Poisson audits at exponentially distributed intervals with the given
// mean. Because the process is memoryless, the mean lag from a uniformly
// arriving fault to the next audit equals the full mean interval — twice
// as bad as a periodic schedule with the same audit budget, a fact the
// audit-strategy bench (E8) demonstrates.
type Poisson struct {
	// MeanInterval is the mean hours between audits.
	MeanInterval float64
}

// NewPoisson returns a Poisson strategy with n audits per year on
// average.
func NewPoisson(perYear float64) (Poisson, error) {
	if perYear <= 0 || math.IsNaN(perYear) {
		return Poisson{}, fmt.Errorf("%w: poisson audits/year %v must be positive", ErrInvalid, perYear)
	}
	return Poisson{MeanInterval: 8760 / perYear}, nil
}

// NextAudit draws the next audit time.
func (p Poisson) NextAudit(now float64, src *rng.Source) (float64, bool) {
	return now + p.MeanInterval*src.Exp(), true
}

// MeanDetectionLag returns the full mean interval (memorylessness).
func (p Poisson) MeanDetectionLag() float64 { return p.MeanInterval }

// Name returns a description with the mean interval.
func (p Poisson) Name() string {
	return fmt.Sprintf("poisson/%.3gh", p.MeanInterval)
}

// OnAccess detects latent faults only when ordinary user traffic happens
// to read the faulty data — §6.2's warning case: "The system cannot
// depend on user access to trigger fault detection and recovery". Rate is
// the per-replica access rate; Coverage is the probability that an access
// would surface the fault (an access touches a vanishingly small fraction
// of an archive).
type OnAccess struct {
	// RatePerHour is the rate of user accesses touching this replica.
	RatePerHour float64
	// Coverage is the probability an access detects an outstanding
	// latent fault.
	Coverage float64
}

// NewOnAccess returns an OnAccess detector.
func NewOnAccess(ratePerHour, coverage float64) (OnAccess, error) {
	if ratePerHour <= 0 || math.IsNaN(ratePerHour) {
		return OnAccess{}, fmt.Errorf("%w: access rate %v must be positive", ErrInvalid, ratePerHour)
	}
	if coverage <= 0 || coverage > 1 || math.IsNaN(coverage) {
		return OnAccess{}, fmt.Errorf("%w: coverage %v must be in (0,1]", ErrInvalid, coverage)
	}
	return OnAccess{RatePerHour: ratePerHour, Coverage: coverage}, nil
}

// NextAudit draws the next *detecting* access: accesses that would detect
// the fault arrive as a thinned Poisson process of rate Rate·Coverage.
func (a OnAccess) NextAudit(now float64, src *rng.Source) (float64, bool) {
	rate := a.RatePerHour * a.Coverage
	return now + src.Exp()/rate, true
}

// MeanDetectionLag returns 1/(rate·coverage).
func (a OnAccess) MeanDetectionLag() float64 {
	return 1 / (a.RatePerHour * a.Coverage)
}

// Name returns "on-access".
func (a OnAccess) Name() string { return "on-access" }

// Combined audits under several strategies at once (e.g. periodic scrub
// plus on-access detection); the earliest wins.
type Combined struct {
	Parts []Strategy
}

// NextAudit returns the earliest next audit among the parts.
func (c Combined) NextAudit(now float64, src *rng.Source) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, s := range c.Parts {
		if at, ok := s.NextAudit(now, src); ok && at < best {
			best = at
			found = true
		}
	}
	return best, found
}

// MeanDetectionLag combines the parts' lags as competing detection
// processes (harmonic sum of rates) — exact for memoryless parts, a
// serviceable approximation for periodic ones.
func (c Combined) MeanDetectionLag() float64 {
	var rate float64
	for _, s := range c.Parts {
		lag := s.MeanDetectionLag()
		if !math.IsInf(lag, 1) && lag > 0 {
			rate += 1 / lag
		}
	}
	if rate == 0 {
		return math.Inf(1)
	}
	return 1 / rate
}

// Name joins the part names.
func (c Combined) Name() string {
	name := "combined("
	for i, s := range c.Parts {
		if i > 0 {
			name += "+"
		}
		name += s.Name()
	}
	return name + ")"
}
