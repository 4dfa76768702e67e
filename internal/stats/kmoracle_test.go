package stats

import (
	"fmt"
	"math"
	"sort"
)

// The slice fit below is the test oracle for ObsBuffer.KaplanMeier, the
// estimator's only production fit: it walks the raw observations in the
// textbook way, so the survival tests check the product-limit arithmetic
// against it and the ObsBuffer tests check that the compressed walk
// reproduces it bit for bit.

// Observation is one trial outcome for survival analysis: the time at
// which the trial ended and whether it ended in the event of interest
// (data loss) or was censored (simulation horizon reached with the data
// intact).
type Observation struct {
	Time  float64
	Event bool // true = data loss observed at Time; false = censored
}

// NewKaplanMeier fits the estimator to the given observations.
func NewKaplanMeier(obs []Observation) (*KaplanMeier, error) {
	if len(obs) == 0 {
		return nil, ErrNoData
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	for _, o := range sorted {
		if o.Time < 0 || math.IsNaN(o.Time) {
			return nil, fmt.Errorf("stats: survival observation time %v must be non-negative", o.Time)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	km := &KaplanMeier{n: len(sorted), maxTime: sorted[len(sorted)-1].Time}
	s := 1.0
	i := 0
	for i < len(sorted) {
		t := sorted[i].Time
		atRisk := len(sorted) - i
		events := 0
		for i < len(sorted) && sorted[i].Time == t {
			if sorted[i].Event {
				events++
			}
			i++
		}
		if events == 0 {
			continue // pure censoring time: survival unchanged
		}
		s *= 1 - float64(events)/float64(atRisk)
		km.times = append(km.times, t)
		km.survival = append(km.survival, s)
		km.atRisk = append(km.atRisk, atRisk)
		km.events = append(km.events, events)
	}
	return km, nil
}
