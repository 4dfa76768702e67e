package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/scrub"
)

// rareBenchMirror is the rare-event reference config: a 2-replica
// mirror with 1000-hour visible faults and 1-hour automated repair,
// censored at 1000 hours, so P(loss) ≈ 2e-3 — rare enough that naive
// Monte Carlo needs tens of thousands of trials for a tight CI, common
// enough that the naive arm can still reach the target inside the
// budget and the comparison is measured, not extrapolated.
func rareBenchMirror() Config {
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		panic(err)
	}
	return Config{
		Replicas:    2,
		VisibleMean: 1000,
		LatentMean:  math.Inf(1),
		Scrub:       scrub.None{},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
}

// relWidth returns the interval's relative half-width.
func relWidth(lo, hi, point float64) float64 {
	if point <= 0 {
		return math.Inf(1)
	}
	return (hi - lo) / 2 / point
}

// TestBenchArtifactRare runs the same rare-event estimation twice —
// plain Monte Carlo and auto-biased importance sampling — with one
// precision target, and measures the trials each needed. This is the
// tentpole's acceptance check: the biased run must reach the target CI
// width in at least 10x fewer trials. ltbench's sim.trials_to_target
// layer tracks the biased arm's count on its rare_target workload.
func TestBenchArtifactRare(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark artifact is not a -short test")
	}
	cfg := rareBenchMirror()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		horizon   = 1000.0
		targetRel = 0.15
		batch     = 512
	)
	base := Options{
		Seed:           3,
		Horizon:        horizon,
		Trials:         batch,
		MaxTrials:      1 << 18,
		BatchSize:      batch,
		TargetRelWidth: targetRel,
	}

	naiveOpt := base
	naive, err := r.Estimate(naiveOpt)
	if err != nil {
		t.Fatal(err)
	}
	biasedOpt := base
	biasedOpt.Bias = AutoBias
	biased, err := r.Estimate(biasedOpt)
	if err != nil {
		t.Fatal(err)
	}

	if biased.Trials >= biasedOpt.MaxTrials {
		t.Fatalf("biased run exhausted its %d-trial budget without reaching the %.0f%% target", biasedOpt.MaxTrials, 100*targetRel)
	}
	nw := relWidth(naive.LossProb.Lo, naive.LossProb.Hi, naive.LossProb.Point)
	bw := relWidth(biased.LossProb.Lo, biased.LossProb.Hi, biased.LossProb.Point)
	cw := relWidth(biased.LossProbCV.Lo, biased.LossProbCV.Hi, biased.LossProbCV.Point)

	// The control-variate refinement must agree with the primary
	// weighted estimate and not be looser (it is asymptotically never
	// wider; allow slack for finite-sample wobble).
	if biased.LossProbCV.Point <= 0 {
		t.Error("biased run did not produce a control-variate estimate")
	}
	if cw > bw*1.05 {
		t.Errorf("control-variate rel width %.3f is looser than the plain weighted %.3f", cw, bw)
	}

	// Trials at equal width: both runs stopped at the first batch
	// boundary meeting the same relative-width target, so realized trial
	// counts compare directly. (If the naive arm capped out first, the
	// ratio understates the true gap — still a valid floor.)
	ratio := float64(naive.Trials) / float64(biased.Trials)
	if ratio < 10 {
		t.Errorf("biased run used %d trials vs naive %d (%.1fx) to reach rel width %.2f vs %.2f; want >= 10x fewer",
			biased.Trials, naive.Trials, ratio, bw, nw)
	}

	// The two estimates must agree within their combined half-widths —
	// the unbiasedness cross-check at bench scale.
	halfN := (naive.LossProb.Hi - naive.LossProb.Lo) / 2
	halfB := (biased.LossProb.Hi - biased.LossProb.Lo) / 2
	if diff := math.Abs(naive.LossProb.Point - biased.LossProb.Point); diff > halfN+halfB {
		t.Errorf("naive %.3g and biased %.3g disagree by %.3g, more than combined half-widths %.3g",
			naive.LossProb.Point, biased.LossProb.Point, diff, halfN+halfB)
	}

	// Per-trial variance reduction: (half²·n) is proportional to the
	// per-trial estimator variance, so the ratio is the classic VRF.
	vrf := (halfN * halfN * float64(naive.Trials)) / (halfB * halfB * float64(biased.Trials))

	t.Logf("naive %d trials (rel width %.3f) vs biased %d trials (rel width %.3f, β=%.1f, ESS %.1f, CV rel width %.3f): %.1fx fewer trials, VRF %.1f",
		naive.Trials, nw, biased.Trials, bw, biased.Bias, biased.EffectiveSamples, cw, ratio, vrf)
}
