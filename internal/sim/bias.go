package sim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/model"
)

// AutoBias is the Options.Bias sentinel asking the runner to choose the
// failure-biasing factor β itself from the analytic model's regime
// classification of the configuration and the run's horizon. The
// resolution is a deterministic function of (config, horizon) — both
// already part of the canonical key — so auto-biased runs canonicalize
// (and cache) identically to the same run with the resolved β spelled
// out.
const AutoBias = -1

// ParseBias maps a -bias flag value onto Options.Bias: 0 for off (or
// empty), AutoBias for auto, an explicit finite β >= 1 otherwise.
func ParseBias(v string) (float64, error) {
	switch v {
	case "", "off":
		return 0, nil
	case "auto":
		return AutoBias, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 1 {
		return 0, fmt.Errorf("-bias %q must be off, auto, or a factor >= 1", v)
	}
	return f, nil
}

// maxAutoBias caps the automatic boost: beyond ~1e6 the per-horizon
// loss probability is so small that pushing β further only inflates
// likelihood-ratio spread without buying more hits per trial.
const maxAutoBias = 1e6

// resolveBias maps Options.Bias to the effective β ≥ 1 the trials
// sample under: 1 for an unbiased run (Bias 0 — note the weighted
// estimator is still NOT used then), the model-chosen factor for
// AutoBias, the explicit factor otherwise. cfg must be validated.
func resolveBias(cfg *Config, horizon, bias float64) float64 {
	switch {
	case bias == 0:
		return 1
	case bias == AutoBias:
		return autoBias(cfg, horizon)
	default:
		return bias
	}
}

// autoBias picks the failure-biasing factor from the analytic model
// (eqs 3–7): estimate the rate-weighted probability s that one window
// of vulnerability sees a second fault before it closes, multiply by
// the expected number of windows the horizon contains (every fault
// arrival on the healthy fleet opens one) to get the per-horizon loss
// probability p_H, and boost the in-window hazards by β ≈ 0.5/p_H.
//
// Targeting the per-horizon probability rather than the per-window one
// is what keeps the estimator well-conditioned: it bounds the total
// measure distortion per trial (β·Λ ≈ 0.5 over the horizon's
// accumulated in-window exposure Λ), so every loss carries a weight of
// the same order and the Horvitz–Thompson variance stays finite-sample
// honest. Boosting 0.5/s per window instead would make each window a
// coin flip — and, across many windows, concentrate the estimate on
// early losses while the rare late ones carry exponentially exploding
// weights.
//
// Configurations where loss over the horizon is not rare (p_H ≥ 0.5,
// including the long-latent-window regime) get β = 1: plain Monte
// Carlo already observes losses there, and biasing would only add
// weight noise. Heterogeneous fleets resolve through replica 0's spec,
// the same convention ModelParams uses everywhere else.
func autoBias(cfg *Config, horizon float64) float64 {
	if !(horizon > 0) {
		return 1
	}
	p := cfg.ModelParams()
	if p.Validate() != nil {
		return 1
	}
	if p.Regime() == model.RegimeLongLatentWOV {
		return 1
	}
	s := p.SecondFaultProbabilities()
	rv, rl := 0.0, 0.0
	if !math.IsInf(p.MV, 1) {
		rv = 1 / p.MV
	}
	if !math.IsInf(p.ML, 1) {
		rl = 1 / p.ML
	}
	if rv+rl == 0 {
		return 1
	}
	sEff := (rv*s.AnyAfterVisible() + rl*s.AnyAfterLatent()) / (rv + rl)
	windows := horizon * float64(cfg.NumReplicas()) * (rv + rl)
	pH := sEff * windows
	if !(pH > 0) {
		return maxAutoBias
	}
	beta := 0.5 / pH
	if beta < 1 {
		return 1
	}
	if beta > maxAutoBias {
		return maxAutoBias
	}
	return beta
}
