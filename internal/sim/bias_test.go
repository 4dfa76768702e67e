package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
)

// rareMirror is the moderately-rare reference regime for biasing tests:
// mirrored replicas with repair a thousand times faster than the fault
// scale, so a window of vulnerability almost always closes before the
// second fault (loss prob ~2–4% over the test horizons). Rare enough
// that biasing helps, common enough that naive Monte Carlo can still
// cross-check it.
func rareMirror(t *testing.T) Config {
	t.Helper()
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		t.Fatal(err)
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

// TestBiasWeightMeanOne pins the likelihood-ratio identity E_Q[W] = 1:
// the average weight over biased trials must concentrate around 1. This
// is the sharpest single check that every biased draw's density ratio
// and every exposure window is accounted for — any missing −lnβ term or
// unclosed faulty interval shifts the mean away from 1.
func TestBiasWeightMeanOne(t *testing.T) {
	cfg := rareMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		n       = 20000
		beta    = 20.0
		horizon = 20000.0
	)
	base := rng.New(77)
	var src rng.Source
	tr := allocTrial(&r.cfg, r.specs, nil)
	tr.setBiasFactor(beta)
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		base.DeriveInto(uint64(i)+trialStreamLabel, &src)
		tr.start(&src)
		res := tr.run(horizon)
		if res.Weight <= 0 || math.IsNaN(res.Weight) || math.IsInf(res.Weight, 0) {
			t.Fatalf("trial %d: weight %v out of domain", i, res.Weight)
		}
		sum += res.Weight
		sum2 += res.Weight * res.Weight
	}
	mean := sum / n
	se := math.Sqrt((sum2/n - mean*mean) / n)
	if d := math.Abs(mean - 1); d > 5*se {
		t.Fatalf("mean weight %v is %v from 1, > 5 standard errors (%v)", mean, d, se)
	}
}

// TestUnbiasedTrialsWeightExactlyOne: with biasing off every trial's
// weight is the exact constant 1 — the unbiased path never touches the
// log-weight accumulator.
func TestUnbiasedTrialsWeightExactlyOne(t *testing.T) {
	cfg := rareMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		res := r.RunTrial(3, i, 20000)
		if res.Weight != 1 {
			t.Fatalf("trial %d: unbiased weight %v, want exactly 1", i, res.Weight)
		}
	}
}

// TestBiasedAgreesWithNaive is the unbiasedness regression: on an
// overlapping (moderately-rare) regime, the biased Horvitz–Thompson
// estimate and the naive Wilson estimate must agree within their
// combined confidence intervals — while the biased run observes far
// more raw losses per trial.
func TestBiasedAgreesWithNaive(t *testing.T) {
	cfg := rareMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := r.Estimate(Options{Trials: 20000, Seed: 11, Horizon: 10000})
	if err != nil {
		t.Fatal(err)
	}
	biased, err := r.Estimate(Options{Trials: 4000, Seed: 12, Horizon: 10000, Bias: AutoBias})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Bias != 0 || naive.EffectiveSamples != 0 {
		t.Fatalf("naive run reports bias %v / ESS %v, want zeros", naive.Bias, naive.EffectiveSamples)
	}
	if biased.Bias < 1 {
		t.Fatalf("biased run resolved β %v, want >= 1", biased.Bias)
	}
	if biased.EffectiveSamples <= 0 {
		t.Fatalf("biased run ESS %v, want > 0", biased.EffectiveSamples)
	}
	pn, pb := naive.LossProb, biased.LossProb
	if pb.Point <= 0 {
		t.Fatalf("biased loss prob %v, want > 0", pb.Point)
	}
	if diff, comb := math.Abs(pb.Point-pn.Point), pn.HalfWidth()+pb.HalfWidth(); diff > comb {
		t.Fatalf("biased %v vs naive %v differ by %v, beyond combined CI half-widths %v",
			pb.Point, pn.Point, diff, comb)
	}
}

// TestBiasedGoldenIdentity mirrors golden_test.go for the weighted
// path: a biased run's estimate — including the weighted LossProb
// interval, the weighted restricted-mean MTTDL, and the effective
// sample size — must be bit-identical across worker counts and batch
// sizes to a serial reference, because batch accumulators only buffer
// (weight, time, outcome) triples and the reducer replays them in trial
// order.
func TestBiasedGoldenIdentity(t *testing.T) {
	cfg := rareMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Trials: 2000, Seed: 9, Horizon: 20000, Bias: 200}
	ref, err := r.Estimate(func() Options { o := base; o.Parallel = 1; return o }())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Bias != 200 {
		t.Fatalf("resolved bias %v, want 200", ref.Bias)
	}
	variants := []struct {
		name     string
		parallel int
		batch    int
	}{
		{"parallel8", 8, 0},
		{"batch1-parallel4", 4, 1},
		{"batch7", 3, 7},
		{"one-big-batch", 8, 1 << 20},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			o := base
			o.Parallel, o.BatchSize = v.parallel, v.batch
			est, err := r.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2]float64{
				"LossProb.Point":   {est.LossProb.Point, ref.LossProb.Point},
				"LossProb.Lo":      {est.LossProb.Lo, ref.LossProb.Lo},
				"LossProb.Hi":      {est.LossProb.Hi, ref.LossProb.Hi},
				"MTTDL.Point":      {est.MTTDL.Point, ref.MTTDL.Point},
				"MTTDL.Lo":         {est.MTTDL.Lo, ref.MTTDL.Lo},
				"MTTDL.Hi":         {est.MTTDL.Hi, ref.MTTDL.Hi},
				"EffectiveSamples": {est.EffectiveSamples, ref.EffectiveSamples},
				"LossProbCV.Point": {est.LossProbCV.Point, ref.LossProbCV.Point},
				"LossProbCV.Lo":    {est.LossProbCV.Lo, ref.LossProbCV.Lo},
				"LossProbCV.Hi":    {est.LossProbCV.Hi, ref.LossProbCV.Hi},
			} {
				if got, want := math.Float64bits(pair[0]), math.Float64bits(pair[1]); got != want {
					t.Errorf("%s bits %#x, want %#x", name, got, want)
				}
			}
			if est.Trials != ref.Trials || est.Censored != ref.Censored {
				t.Errorf("trials/censored %d/%d, want %d/%d", est.Trials, est.Censored, ref.Trials, ref.Censored)
			}
		})
	}
}

// TestBiasedAdaptiveDeterministic: an adaptive biased run stops on the
// weighted CI at a batch boundary, so its realized trial count and
// estimate are independent of worker count.
func TestBiasedAdaptiveDeterministic(t *testing.T) {
	cfg := rareMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 21, Horizon: 20000, Bias: AutoBias,
		TargetRelWidth: 0.2, MaxTrials: 1 << 14, BatchSize: 256}
	a, err := r.Estimate(func() Options { o := base; o.Parallel = 1; return o }())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Estimate(func() Options { o := base; o.Parallel = 8; return o }())
	if err != nil {
		t.Fatal(err)
	}
	if a.Trials != b.Trials {
		t.Fatalf("realized trials %d vs %d across worker counts", a.Trials, b.Trials)
	}
	if math.Float64bits(a.LossProb.Point) != math.Float64bits(b.LossProb.Point) ||
		math.Float64bits(a.EffectiveSamples) != math.Float64bits(b.EffectiveSamples) {
		t.Fatalf("adaptive biased estimates differ across worker counts: %+v vs %+v", a.LossProb, b.LossProb)
	}
	if a.Trials >= base.MaxTrials {
		t.Fatalf("adaptive biased run never stopped early (trials %d)", a.Trials)
	}
}

// TestCanonicalBiasFolding pins the cache-key contract: unbiased keys
// keep their historical bias-free encoding, biased keys differ from
// them, and AutoBias canonicalizes identically to the explicit factor
// it resolves to.
func TestCanonicalBiasFolding(t *testing.T) {
	cfg := rareMirror(t)
	opt := Options{Trials: 1000, Seed: 5, Horizon: 20000}
	plain, err := Canonical(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "bias") {
		t.Fatalf("unbiased canonical form mentions bias: %s", plain)
	}
	optB := opt
	optB.Bias = 150
	biased, err := Canonical(cfg, optB)
	if err != nil {
		t.Fatal(err)
	}
	if biased == plain {
		t.Fatal("biased and unbiased runs canonicalize identically — cache collision")
	}
	if !strings.Contains(biased, ",bias:150}") {
		t.Fatalf("biased canonical form missing resolved factor: %s", biased)
	}
	optAuto := opt
	optAuto.Bias = AutoBias
	auto, err := Canonical(cfg, optAuto)
	if err != nil {
		t.Fatal(err)
	}
	optExplicit := opt
	optExplicit.Bias = autoBias(&cfg, opt.Horizon)
	explicit, err := Canonical(cfg, optExplicit)
	if err != nil {
		t.Fatal(err)
	}
	if auto != explicit {
		t.Fatalf("AutoBias key %q != resolved-explicit key %q", auto, explicit)
	}
	if auto == plain || auto == biased {
		t.Fatal("auto-biased key collides with another mode")
	}
}

// TestBiasValidation rejects out-of-domain bias options.
func TestBiasValidation(t *testing.T) {
	cfg := rareMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Trials: 100, Horizon: 20000, Bias: 0.5},
		{Trials: 100, Horizon: 20000, Bias: -2},
		{Trials: 100, Horizon: 20000, Bias: math.NaN()},
		{Trials: 100, Horizon: 20000, Bias: math.Inf(1)},
		{Trials: 100, Bias: 2},        // bias without horizon
		{Trials: 100, Bias: AutoBias}, // auto-bias without horizon
	}
	for _, o := range bad {
		if _, err := r.Estimate(o); err == nil {
			t.Errorf("Estimate accepted invalid bias options %+v", o)
		}
	}
}

// TestAutoBiasResolution: the model-chosen factor is deterministic, at
// least 1, and large for a genuinely rare regime.
func TestAutoBiasResolution(t *testing.T) {
	cfg := rareMirror(t)
	b1, b2 := autoBias(&cfg, 10000), autoBias(&cfg, 10000)
	if b1 != b2 {
		t.Fatalf("autoBias not deterministic: %v vs %v", b1, b2)
	}
	if b1 < 1 || b1 > maxAutoBias {
		t.Fatalf("autoBias %v outside [1, %v]", b1, maxAutoBias)
	}
	if b1 < 5 {
		t.Fatalf("autoBias %v suspiciously small for a rare regime (repair 1000x faster than faults)", b1)
	}
	// A longer horizon contains more windows of vulnerability, so loss
	// is less rare over it and the chosen boost shrinks.
	if bLong := autoBias(&cfg, 1e6); bLong >= b1 {
		t.Fatalf("autoBias at long horizon %v not below short-horizon %v", bLong, b1)
	}
}

// TestParseBias pins the -bias vocabulary both commands share: off or
// empty is plain Monte Carlo, auto the model-chosen factor, and any
// other value must be a finite factor >= 1.
func TestParseBias(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"off", 0, true},
		{"", 0, true},
		{"auto", AutoBias, true},
		{"1", 1, true},
		{"250", 250, true},
		{"0.5", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"x", 0, false},
	} {
		got, err := ParseBias(tc.in)
		if !tc.ok {
			want := `-bias "` + tc.in + `" must be off, auto, or a factor >= 1`
			if err == nil || err.Error() != want {
				t.Errorf("ParseBias(%q) = %v, %v; want error %q", tc.in, got, err, want)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseBias(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
