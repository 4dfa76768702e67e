package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
	"repro/internal/stats"
)

// conformanceRow is one estimator path checked against a reference it
// does not share draws with: a closed form, a long naive run, or a long
// run of an earlier draw layout. A row passes when its estimate lies
// within conformanceSigmas combined standard errors of the reference,
// so under a correct sampler it fails with probability
// P(|Z| > 4) ≈ 6.3e-5 (normal approximation), at its fixed seed once
// and for all.
type conformanceRow struct {
	name   string
	config func(t *testing.T) (Config, Options)
	// trials is the row's budget, shortTrials its -short budget.
	trials, shortTrials int
	ref                 conformanceRef
	pick                func(Estimate) stats.Interval
}

// conformanceRef is a reference point with its standard error (0 for
// a closed form).
type conformanceRef struct{ point, se float64 }

const conformanceSigmas = 4.0

// mirrorMTTDL is the exact MTTDL of a 2-replica mirror with visible
// faults at rate λ and a fixed repair time R: each window of
// vulnerability opens after a mean 1/(2λ) and is fatal with
// probability p = 1 − e^(−λR), and the repair time spent over all
// windows, fatal one included, sums to 1/λ in expectation, so
// MTTDL = 1/(2λp) + 1/λ.
func mirrorMTTDL(lambda, r float64) float64 {
	p := -math.Expm1(-lambda * r)
	return 1/(2*lambda*p) + 1/lambda
}

// conformanceRows is the table: one row per trial path whose draws
// the draw layout decides.
func conformanceRows() []conformanceRow {
	mttdl := func(e Estimate) stats.Interval { return e.MTTDL }
	loss := func(e Estimate) stats.Interval { return e.LossProb }
	return []conformanceRow{
		{
			// benchMirror run to loss: visible arrivals, repairs and
			// the Kaplan–Meier MTTDL against the closed form above,
			// 51,250.4 h.
			name: "naive/run-to-loss",
			config: func(*testing.T) (Config, Options) {
				return benchMirror(), Options{Seed: 101}
			},
			trials: 40000, shortTrials: 10000,
			ref:  conformanceRef{point: mirrorMTTDL(1.0/1000, 10)},
			pick: mttdl,
		},
		{
			// rare_target's configuration, auto-biased and censored at
			// 1000 h: boost transitions, re-arms and the likelihood-ratio
			// weight. The reference is the naive P(loss) of 4,000,000
			// unbiased trials at seed 2^62, ltbench's calibration of the
			// same configuration (cmd/ltbench/library.go rareRef).
			name: "biased/censored",
			config: func(*testing.T) (Config, Options) {
				return rareBenchMirror(), Options{Seed: 102, Horizon: 1000, Bias: AutoBias}
			},
			trials: 40000, shortTrials: 10000,
			ref:  conformanceRef{point: 0.00197425, se: 2.2195656349522645e-05},
			pick: loss,
		},
		{
			// A correlated Weibull-profiled mirror with latent faults,
			// periodic audits and access detection, censored: Weibull
			// inversion, correlated re-arms, the audit schedule and the
			// access channel. The reference is 400,000 trials at seed 1
			// of the build that drew each exponential as −ln u from one
			// stream per replica.
			name:   "weibull/censored",
			config: weibullConformance,
			trials: 40000, shortTrials: 10000,
			ref:  conformanceRef{point: 0.1379925, se: 0.00054532257913029547},
			pick: loss,
		},
		{
			// A 3-replica piecewise-profiled fleet with Poisson audits
			// that wear replicas, buggy log-normal repairs and a shock,
			// censored: the piecewise walk, the repair and bug draws,
			// audit side effects and the shock stream. Reference as
			// for the Weibull row.
			name:   "piecewise/censored",
			config: piecewiseConformance,
			trials: 40000, shortTrials: 10000,
			ref:  conformanceRef{point: 0.1827925, se: 0.00061110337439059079},
			pick: loss,
		},
	}
}

// weibullConformance is the Weibull row's configuration.
func weibullConformance(t *testing.T) (Config, Options) {
	t.Helper()
	w, err := faults.NewWeibullHazard(1.5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repair.Automated(20, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := faults.NewAlphaCorrelation(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replicas:     2,
		VisibleMean:  6000,
		LatentMean:   3000,
		Scrub:        scrub.Periodic{Interval: 200},
		AccessDetect: scrub.OnAccess{RatePerHour: 1.0 / 500, Coverage: 1},
		Repair:       rep,
		Correlation:  alpha,
		Hazard:       w,
	}, Options{Seed: 103, Horizon: 2000}
}

// piecewiseConformance is the piecewise row's configuration.
func piecewiseConformance(t *testing.T) (Config, Options) {
	t.Helper()
	h, err := faults.NewPiecewiseHazard([]float64{500, 3000}, []float64{2, 0.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := rng.LogNormalFromMeanCV(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := rng.LogNormalFromMeanCV(15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replicas:             3,
		VisibleMean:          6000,
		LatentMean:           3000,
		Scrub:                scrub.Poisson{MeanInterval: 300},
		Repair:               repair.Policy{Visible: rv, Latent: rl, BugLatentProb: 0.05},
		Correlation:          faults.Independent{},
		Hazard:               h,
		AuditLatentFaultProb: 0.01,
		Shocks: []faults.Shock{{
			Name: "rack", Mean: 8000, Targets: []int{0, 1, 2}, HitProb: 0.3, Kind: faults.Visible,
		}},
	}, Options{Seed: 104, Horizon: 4000}
}

// TestConformance checks each row's estimate against its reference.
func TestConformance(t *testing.T) {
	for _, row := range conformanceRows() {
		t.Run(row.name, func(t *testing.T) {
			cfg, opt := row.config(t)
			opt.Trials = row.trials
			if testing.Short() {
				opt.Trials = row.shortTrials
			}
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			est, err := r.Estimate(opt)
			if err != nil {
				t.Fatal(err)
			}
			iv := row.pick(est)
			se := (iv.Hi - iv.Lo) / 2 / 1.959963984540054
			sigma := math.Hypot(se, row.ref.se)
			dev := math.Abs(iv.Point-row.ref.point) / sigma
			if !(dev <= conformanceSigmas) {
				t.Errorf("estimate %.6g ± %.3g is %.2fσ from the reference %.6g ± %.3g (%d trials)",
					iv.Point, se, dev, row.ref.point, row.ref.se, est.Trials)
			}
			t.Logf("estimate %.6g ± %.3g, reference %.6g ± %.3g: %.2fσ (%d trials)",
				iv.Point, se, row.ref.point, row.ref.se, dev, est.Trials)
		})
	}
}
