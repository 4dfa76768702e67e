package stats

import (
	"fmt"
	"math"
	"sort"
)

// ObsBuffer is a mergeable, compressed buffer of survival observations,
// one per trial: a loss time or a censoring time. Event (loss) times are
// kept individually — Kaplan–Meier needs each one — while censored
// observations, which in a horizon-censored Monte Carlo run all share a
// handful of distinct times (usually exactly one, the horizon), collapse
// into (time, count) pairs. In the rare-loss regimes long-term storage
// studies live in, that makes the buffer O(losses), not O(trials).
//
// The zero value is an empty buffer ready to use. Buffers merge (Merge)
// so per-worker partials from a parallel sweep can be reduced; Events
// preserves insertion order across merges, which lets callers that need
// an order-sensitive reduction (e.g. a Welford pass over loss times)
// replay the merged stream deterministically.
type ObsBuffer struct {
	events       []float64 // event (loss) times, insertion order
	censorTimes  []float64 // distinct censoring times, insertion order
	censorCounts []int     // parallel counts for censorTimes
	censored     int       // total censored observations
}

// AddEvent records one observation that ended in the event of interest.
func (b *ObsBuffer) AddEvent(t float64) {
	b.events = append(b.events, t)
}

// AddCensored records one censored observation at time t.
func (b *ObsBuffer) AddCensored(t float64) {
	b.censored++
	for i, ct := range b.censorTimes {
		if ct == t {
			b.censorCounts[i]++
			return
		}
	}
	b.censorTimes = append(b.censorTimes, t)
	b.censorCounts = append(b.censorCounts, 1)
}

// Merge appends o's observations to b: events keep their order (b's
// first, then o's), censored counts accumulate. o is not modified.
func (b *ObsBuffer) Merge(o *ObsBuffer) {
	b.events = append(b.events, o.events...)
	for i, ct := range o.censorTimes {
		n := o.censorCounts[i]
		b.censored += n
		found := false
		for j, bt := range b.censorTimes {
			if bt == ct {
				b.censorCounts[j] += n
				found = true
				break
			}
		}
		if !found {
			b.censorTimes = append(b.censorTimes, ct)
			b.censorCounts = append(b.censorCounts, n)
		}
	}
}

// Reset empties the buffer, keeping its backing arrays for reuse.
func (b *ObsBuffer) Reset() {
	b.events = b.events[:0]
	b.censorTimes = b.censorTimes[:0]
	b.censorCounts = b.censorCounts[:0]
	b.censored = 0
}

// N returns the total number of observations.
func (b *ObsBuffer) N() int { return len(b.events) + b.censored }

// EventsN returns the number of event observations.
func (b *ObsBuffer) EventsN() int { return len(b.events) }

// CensoredN returns the number of censored observations.
func (b *ObsBuffer) CensoredN() int { return b.censored }

// Events returns the event times in insertion order. The slice is the
// buffer's backing store: callers must not modify it, and it is
// invalidated by the next AddEvent or Merge.
func (b *ObsBuffer) Events() []float64 { return b.events }

// KaplanMeier fits the product-limit estimator to the buffer's
// observations. The fit is bit-identical to the slice fit the package's
// tests keep as an oracle (NewKaplanMeier over the equivalent
// observations, in kmoracle_test.go): the estimator depends only on the
// multiset of (time, event) pairs, and this walk performs the same float
// operations in the same (ascending-time) order.
func (b *ObsBuffer) KaplanMeier() (*KaplanMeier, error) {
	n := b.N()
	if n == 0 {
		return nil, ErrNoData
	}
	for _, t := range b.events {
		if t < 0 || math.IsNaN(t) {
			return nil, fmt.Errorf("stats: survival observation time %v must be non-negative", t)
		}
	}
	for _, t := range b.censorTimes {
		if t < 0 || math.IsNaN(t) {
			return nil, fmt.Errorf("stats: survival observation time %v must be non-negative", t)
		}
	}

	ev := make([]float64, len(b.events))
	copy(ev, b.events)
	sort.Float64s(ev)
	type censorGroup struct {
		t     float64
		count int
	}
	cz := make([]censorGroup, len(b.censorTimes))
	for i, t := range b.censorTimes {
		cz[i] = censorGroup{t: t, count: b.censorCounts[i]}
	}
	sort.Slice(cz, func(i, j int) bool { return cz[i].t < cz[j].t })

	km := &KaplanMeier{n: n}
	if len(ev) > 0 {
		km.maxTime = ev[len(ev)-1]
	}
	if len(cz) > 0 && cz[len(cz)-1].t > km.maxTime {
		km.maxTime = cz[len(cz)-1].t
	}

	s := 1.0
	removed := 0 // observations at times strictly before the current group
	ci := 0
	for i := 0; i < len(ev); {
		t := ev[i]
		for ci < len(cz) && cz[ci].t < t {
			removed += cz[ci].count
			ci++
		}
		atRisk := n - removed
		events := 0
		for i < len(ev) && ev[i] == t {
			events++
			i++
		}
		s *= 1 - float64(events)/float64(atRisk)
		km.times = append(km.times, t)
		km.survival = append(km.survival, s)
		km.atRisk = append(km.atRisk, atRisk)
		km.events = append(km.events, events)
		removed += events
		// Censored observations sharing this exact time belong to the
		// same risk group; they only leave the risk set afterwards.
		for ci < len(cz) && cz[ci].t == t {
			removed += cz[ci].count
			ci++
		}
	}
	return km, nil
}
