package faults

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Shock is a common-cause fault source: a single underlying error that
// produces faults at several replicas at once. It is the mechanistic
// counterpart of the abstract α factor — shared power units (Talagala's
// "a single power outage accounted for 22% of all machine restarts"),
// shared cooling, a flash worm, an administrator error replicated across
// a unified administrative domain, or a large-scale disaster (§4.2).
type Shock struct {
	// Name identifies the shared component or threat ("power/rack-1",
	// "admin/alice", "geo/SF-bay").
	Name string
	// Mean is the mean time between shock events, in hours.
	Mean float64
	// Targets lists the replica indices exposed to this shock.
	Targets []int
	// Kind is the fault class a shock inflicts. Power surges and floods
	// are Visible; a buggy firmware update or worm that silently corrupts
	// data is Latent.
	Kind Type
	// HitProb is the probability that each exposed replica is actually
	// faulted by a given shock event, independently. 1 means the shock
	// always takes out every target.
	HitProb float64
}

// Validate reports whether the shock is well-formed.
func (s Shock) Validate() error {
	if math.IsNaN(s.Mean) || s.Mean <= 0 {
		return fmt.Errorf("%w: shock %q mean %v must be positive", ErrInvalid, s.Name, s.Mean)
	}
	if len(s.Targets) == 0 {
		return fmt.Errorf("%w: shock %q has no targets", ErrInvalid, s.Name)
	}
	seen := make(map[int]bool, len(s.Targets))
	for _, t := range s.Targets {
		if t < 0 {
			return fmt.Errorf("%w: shock %q targets negative replica %d", ErrInvalid, s.Name, t)
		}
		if seen[t] {
			return fmt.Errorf("%w: shock %q targets replica %d twice", ErrInvalid, s.Name, t)
		}
		seen[t] = true
	}
	if math.IsNaN(s.HitProb) || s.HitProb < 0 || s.HitProb > 1 {
		return fmt.Errorf("%w: shock %q hit probability %v must be in [0,1]", ErrInvalid, s.Name, s.HitProb)
	}
	if s.Kind != Visible && s.Kind != Latent {
		return fmt.Errorf("%w: shock %q has unknown fault type %d", ErrInvalid, s.Name, int(s.Kind))
	}
	return nil
}

// SampleNext draws the time until the next shock event.
func (s Shock) SampleNext(src *rng.Source) float64 {
	return -s.Mean * math.Log(src.Float64Open())
}

// StrikeInto returns the subset of Targets hit by one shock event,
// reusing buf's storage: one Bool draw per target, in target order,
// unless HitProb is 1 and every target is hit without a draw.
func (s Shock) StrikeInto(src *rng.Source, buf []int) []int {
	if s.HitProb >= 1 {
		return append(buf[:0], s.Targets...)
	}
	out := buf[:0]
	for _, t := range s.Targets {
		if src.Bool(s.HitProb) {
			out = append(out, t)
		}
	}
	return out
}

// PerReplicaRate returns the marginal fault rate each exposed replica
// sees from this shock: HitProb/Mean. Topology comparisons hold this
// constant so that only the *correlation* differs, not the total hazard.
func (s Shock) PerReplicaRate() float64 {
	return s.HitProb / s.Mean
}

// MarginalRate sums the per-replica shock rates seen by the given replica
// across a set of shocks.
func MarginalRate(shocks []Shock, replica int) float64 {
	var rate float64
	for _, s := range shocks {
		for _, t := range s.Targets {
			if t == replica {
				rate += s.PerReplicaRate()
				break
			}
		}
	}
	return rate
}
