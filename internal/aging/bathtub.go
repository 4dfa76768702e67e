package aging

import (
	"fmt"
	"math"

	"repro/internal/faults"
)

// This file is the bridge from the package's Weibull/bathtub mortality
// vocabulary to the event simulator's hazard profiles: where
// SimulatePair is a self-contained renewal model of one aging mirrored
// pair, Bathtub returns a faults.Hazard profile that plugs into
// sim.ReplicaSpec.Hazard, so any fleet the simulator can express can
// age. See docs/MODEL.md for the sampling contract.

// Bathtub returns the §6.5 three-phase lifetime hazard as a
// piecewise-constant profile over a fault process's base rate:
//
//	[0, burnInHours)            φ = burnInFactor   (infant mortality)
//	[burnInHours, wearOnset)    φ = 1              (useful life)
//	[wearOnset, ∞)              φ = wearFactor     (wear-out)
//
// burnInHours may be 0 to skip the burn-in phase, in which case
// burnInFactor must also be 0 (it would name a segment that does not
// exist). Factors are multipliers on the replica's configured mean fault
// rate; a same-batch fleet gives every replica the same profile, which is
// exactly the correlated wear-out the paper warns about — replicas climb
// the bathtub's right wall together.
func Bathtub(burnInHours, burnInFactor, wearOnsetHours, wearFactor float64) (faults.PiecewiseHazard, error) {
	if burnInHours == 0 && burnInFactor != 0 {
		return faults.PiecewiseHazard{}, fmt.Errorf("%w: burn-in factor %v without a burn-in phase (set burnInHours > 0)", ErrInvalid, burnInFactor)
	}
	var bounds, factors []float64
	if burnInHours > 0 {
		bounds = append(bounds, burnInHours)
		factors = append(factors, burnInFactor)
	}
	if math.IsNaN(wearOnsetHours) || math.IsInf(wearOnsetHours, 0) || wearOnsetHours <= burnInHours {
		return faults.PiecewiseHazard{}, fmt.Errorf("%w: wear onset %v h must be finite and after the burn-in phase (%v h)", ErrInvalid, wearOnsetHours, burnInHours)
	}
	bounds = append(bounds, wearOnsetHours)
	factors = append(factors, 1, wearFactor)
	h, err := faults.NewPiecewiseHazard(bounds, factors)
	if err != nil {
		return faults.PiecewiseHazard{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return h, nil
}
