// Package rng provides a deterministic, splittable pseudo-random number
// generator and the probability distributions used throughout the
// reliability simulator.
//
// Monte Carlo reproducibility requirements drive the design:
//
//   - Every trial must be reproducible from (seed, trial index) alone, so a
//     failing trial can be replayed in isolation.
//   - Independent subsystems of one trial (per-replica fault processes,
//     scrub schedules, repair durations) must draw from statistically
//     independent streams so that adding a draw in one subsystem does not
//     perturb another. Source.Derive provides such streams.
//
// The core generator is xoshiro256**, seeded through SplitMix64, following
// Blackman & Vigna. Both are implemented here directly because math/rand's
// global functions are neither splittable nor stable across releases.
package rng

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive one Source per goroutine with Derive.
//
// The zero value is invalid; use New.
type Source struct {
	s0, s1, s2, s3 uint64

	// id is a stable fingerprint of the seed this Source was created
	// from. Derive mixes id with the label so that derived streams do not
	// depend on how many values the parent has already produced.
	id uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand seeds into full generator state and to mix derivation
// labels.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds produce streams
// that are, for simulation purposes, independent.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (s *Source) reseed(seed uint64) {
	s.id = seed
	st := seed
	s.s0 = splitmix64(&st)
	s.s1 = splitmix64(&st)
	s.s2 = splitmix64(&st)
	s.s3 = splitmix64(&st)
	// xoshiro256** must not start from the all-zero state. SplitMix64
	// cannot produce four zero outputs in a row, but guard anyway so the
	// invariant is local and obvious.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform float64 in the half-open interval [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in the open interval (0, 1).
// Inverse-CDF transforms (e.g. -ln(u)) need u > 0.
func (s *Source) Float64Open() float64 {
	for {
		if u := s.Float64(); u > 0 {
			return u
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching the
// contract of math/rand.Intn.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be faster; the
	// simulator draws bounded ints rarely, so plain modulo rejection keeps
	// the code obvious.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Derive returns a new Source whose stream is independent of s and of any
// sibling derived with a different label. Deriving does not consume
// randomness from s, so the parent stream is unperturbed — critical for
// keeping per-subsystem streams stable as code evolves.
func (s *Source) Derive(label uint64) *Source {
	var child Source
	s.DeriveInto(label, &child)
	return &child
}

// DeriveInto reseeds into with exactly the stream Derive(label) would
// return, without allocating. Hot loops (the simulator re-seeds a
// worker-local trial once per Monte Carlo trial) use it to reuse one
// Source per subsystem across millions of derivations.
func (s *Source) DeriveInto(label uint64, into *Source) {
	// Mix the stable identity of s (not its evolving state) with the
	// label through SplitMix64, keeping Derive(label) stable regardless
	// of how many draws s has made.
	st := s.id ^ rotl(label, 13) ^ (label * 0x9e3779b97f4a7c15)
	into.reseed(splitmix64(&st))
}

// DeriveString is Derive with a string label, for callers that identify
// subsystems by name ("faults/visible", "scrub", ...).
func (s *Source) DeriveString(label string) *Source {
	return s.Derive(StringLabel(label))
}

// StringLabel hashes a string label for Derive: DeriveString(label) is
// Derive(StringLabel(label)), so a hot loop can hash its labels once and
// call DeriveInto. FNV-1a; inlined to keep the package dependency-free.
func StringLabel(label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return h
}
