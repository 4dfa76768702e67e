package rng

import (
	"fmt"
	"math"
)

// PoissonProcess generates event times of a homogeneous Poisson process
// with the given rate (events per hour). It is the arrival model for user
// accesses to an archive and for random (non-periodic) audit schedules.
type PoissonProcess struct {
	Rate float64
	src  *Source
	now  float64
}

// NewPoissonProcess returns a process with the given rate drawing from src.
func NewPoissonProcess(rate float64, src *Source) (*PoissonProcess, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("%w: poisson rate %v must be positive and finite", ErrInvalidParam, rate)
	}
	return &PoissonProcess{Rate: rate, src: src}, nil
}

// Next returns the time of the next event, strictly after the previous one.
func (p *PoissonProcess) Next() float64 {
	p.now += -math.Log(p.src.Float64Open()) / p.Rate
	return p.now
}

// Now returns the time of the most recently generated event (0 before the
// first call to Next).
func (p *PoissonProcess) Now() float64 { return p.now }

// Reset rewinds the process clock to t without changing the stream.
func (p *PoissonProcess) Reset(t float64) { p.now = t }

// PoissonCount draws the number of events of a rate-λ Poisson process in an
// interval of the given length. Knuth's product method suffices for the
// small means used here (audits per interval, handling errors per mount);
// for mean > 30 it falls back to a normal approximation to avoid O(mean)
// cost and underflow.
func (s *Source) PoissonCount(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		n := math.Floor(mean + math.Sqrt(mean)*s.normal() + 0.5)
		if n < 0 {
			return 0
		}
		return int(n)
	}
	limit := math.Exp(-mean)
	count := 0
	for prod := s.Float64(); prod > limit; prod *= s.Float64() {
		count++
	}
	return count
}

// Binomial draws the number of successes in n independent trials of
// probability p. Used for bit-error counts over a scrub pass when the
// expected count is small. Direct simulation is O(n); for the large n
// used in bit-error models the Poisson limit is taken automatically when
// n*p is small and p tiny.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Poisson limit: p below 1e-6 with modest mean keeps the absolute
	// error negligible while avoiding O(n) work for n ~ 1e12 bit reads.
	if mean := float64(n) * p; p < 1e-6 {
		c := s.PoissonCount(mean)
		if c > n {
			c = n
		}
		return c
	}
	count := 0
	for i := 0; i < n; i++ {
		if s.Float64() < p {
			count++
		}
	}
	return count
}
