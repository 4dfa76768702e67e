package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/scrub"
)

// goldenConfig is the heterogeneity-free reference system whose results
// were recorded against the pre-ReplicaSpec engine. The golden tests pin
// the refactor's core promise: the uniform shorthand is byte-identical
// to seed behavior under the same seed.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	rep, err := repair.Automated(10, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := faults.NewAlphaCorrelation(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replicas:     3,
		VisibleMean:  1000,
		LatentMean:   2000,
		Scrub:        scrub.Periodic{Interval: 400},
		AccessDetect: scrub.OnAccess{RatePerHour: 0.01, Coverage: 0.5},
		Repair:       rep,
		Correlation:  corr,
	}
}

// TestUniformConfigMatchesSeedGolden pins Estimate on a scalar-only
// Config to values recorded from the pre-refactor engine (re-recorded
// under draw layout 2): the same seed must keep producing bit-identical
// results through the spec expansion.
func TestUniformConfigMatchesSeedGolden(t *testing.T) {
	r, err := NewRunner(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 500, Seed: 42, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.MTTDL.Point, 16919.287707520023; got != want {
		t.Errorf("MTTDL.Point = %.17g, want seed-recorded %.17g", got, want)
	}
	if got, want := est.MTTDL.Lo, 15448.492373840294; got != want {
		t.Errorf("MTTDL.Lo = %.17g, want %.17g", got, want)
	}
	if got, want := est.MTTDL.Hi, 18390.083041199752; got != want {
		t.Errorf("MTTDL.Hi = %.17g, want %.17g", got, want)
	}
	if want := (DoubleFaultMatrix{Losses: [2][2]int{{19, 18}, {334, 129}}, WOVByVis: 20678, WOVByLat: 10492}); est.Matrix != want {
		t.Errorf("Matrix = %+v, want seed-recorded %+v", est.Matrix, want)
	}
	if est.Stats.VisibleFaults != 27651 || est.Stats.LatentFaults != 13308 || est.Stats.Repairs != 38195 {
		t.Errorf("Stats = %+v, want seed-recorded visible=27651 latent=13308 repairs=38195", est.Stats)
	}

	censored, err := r.Estimate(Options{Trials: 400, Seed: 7, Horizon: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := censored.LossProb.Point, 0.71499999999999997; got != want {
		t.Errorf("LossProb.Point = %.17g, want seed-recorded %.17g", got, want)
	}
	if got, want := censored.MTTDL.Point, 11478.232933729148; got != want {
		t.Errorf("censored MTTDL.Point = %.17g, want %.17g", got, want)
	}
	if censored.Censored != 114 {
		t.Errorf("Censored = %d, want seed-recorded 114", censored.Censored)
	}
}

// TestPerReplicaScrubSpecsMatchSeedGolden pins per-replica audit
// schedules spelled as Specs[i].Scrub (other fields inherited from the
// scalars) to the results the seed recorded for the same fleet
// (re-recorded under draw layout 2).
func TestPerReplicaScrubSpecsMatchSeedGolden(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Specs = []ReplicaSpec{
		{Scrub: scrub.Periodic{Interval: 400}},
		{Scrub: scrub.Periodic{Interval: 400, Offset: 200}},
		{Scrub: scrub.Periodic{Interval: 500}},
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := est.MTTDL.Point, 15565.724269360408; got != want {
		t.Errorf("MTTDL.Point = %.17g, want seed-recorded %.17g", got, want)
	}
	if want := [2][2]int{{13, 9}, {176, 102}}; est.Matrix.Losses != want {
		t.Errorf("Matrix.Losses = %v, want seed-recorded %v", est.Matrix.Losses, want)
	}
}

// TestExplicitUniformSpecsMatchShorthand asserts the second half of the
// equivalence: spelling the same uniform system as explicit Specs
// consumes randomness identically, so every estimate field matches the
// scalar shorthand bit for bit.
func TestExplicitUniformSpecsMatchShorthand(t *testing.T) {
	scalar := goldenConfig(t)
	spec := ReplicaSpec{
		VisibleMean:  scalar.VisibleMean,
		LatentMean:   scalar.LatentMean,
		Scrub:        scalar.Scrub,
		AccessDetect: scalar.AccessDetect,
		Repair:       scalar.Repair,
	}
	explicit := scalar
	explicit.Replicas = 0
	explicit.VisibleMean = 0
	explicit.LatentMean = 0
	explicit.Scrub = nil
	explicit.AccessDetect = nil
	explicit.Repair = repair.Policy{}
	explicit.Specs = []ReplicaSpec{spec, spec, spec}

	ra, err := NewRunner(scalar)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRunner(explicit)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 400, Seed: 3}
	a, err := ra.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rb.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.MTTDL != b.MTTDL || a.Matrix != b.Matrix || a.Stats != b.Stats {
		t.Errorf("explicit uniform specs diverge from shorthand:\n scalar %+v %+v\n specs  %+v %+v", a.MTTDL, a.Matrix, b.MTTDL, b.Matrix)
	}
}

// heterogeneousConfig is a three-tier fleet exercising every per-replica
// dimension at once: distinct means, scrub schedules, access channels,
// and repair policies.
func heterogeneousConfig(t *testing.T) Config {
	t.Helper()
	fast, err := repair.Automated(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := repair.Automated(30, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Specs: []ReplicaSpec{
			{
				Label:       "consumer-disk",
				VisibleMean: 2000,
				LatentMean:  400,
				Scrub:       scrub.Periodic{Interval: 200},
				Repair:      fast,
			},
			{
				Label:        "enterprise-disk",
				VisibleMean:  5000,
				LatentMean:   1000,
				Scrub:        scrub.Periodic{Interval: 200, Offset: 100},
				AccessDetect: scrub.OnAccess{RatePerHour: 0.1, Coverage: 0.2},
				Repair:       fast,
			},
			{
				Label:       "tape-shelf",
				VisibleMean: 6000,
				LatentMean:  1200,
				Scrub:       scrub.Periodic{Interval: 2000},
				Repair:      slow,
			},
		},
		Correlation: faults.Independent{},
	}
}

// TestHeterogeneousDeterministicAcrossParallelism is the spec-path
// determinism guarantee: the worker count must not leak into results.
func TestHeterogeneousDeterministicAcrossParallelism(t *testing.T) {
	r, err := NewRunner(heterogeneousConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := r.Estimate(Options{Trials: 400, Seed: 11, Parallel: 1, Horizon: 50000})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := r.Estimate(Options{Trials: 400, Seed: 11, Parallel: 8, Horizon: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if serial.MTTDL != parallel.MTTDL {
		t.Errorf("MTTDL differs across parallelism: %+v vs %+v", serial.MTTDL, parallel.MTTDL)
	}
	if serial.LossProb != parallel.LossProb {
		t.Errorf("LossProb differs across parallelism: %+v vs %+v", serial.LossProb, parallel.LossProb)
	}
	if serial.Matrix != parallel.Matrix {
		t.Errorf("Matrix differs across parallelism: %+v vs %+v", serial.Matrix, parallel.Matrix)
	}
	if serial.Stats != parallel.Stats {
		t.Errorf("Stats differ across parallelism: %+v vs %+v", serial.Stats, parallel.Stats)
	}
}

// TestSpecInheritance checks the partial-override contract: zero/nil
// spec fields resolve to the Config scalars.
func TestSpecInheritance(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Replicas = 0
	cfg.Specs = []ReplicaSpec{
		{},                                // pure inheritance
		{VisibleMean: 7777, Label: "odd"}, // override one field
		{Scrub: scrub.None{}},             // override another
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	specs := cfg.ReplicaSpecs()
	if len(specs) != 3 {
		t.Fatalf("expanded %d specs, want 3", len(specs))
	}
	if specs[0].VisibleMean != cfg.VisibleMean || specs[0].LatentMean != cfg.LatentMean {
		t.Errorf("spec 0 means %v/%v, want inherited %v/%v", specs[0].VisibleMean, specs[0].LatentMean, cfg.VisibleMean, cfg.LatentMean)
	}
	if specs[0].Scrub == nil || specs[0].Scrub.Name() != cfg.Scrub.Name() {
		t.Errorf("spec 0 scrub %v, want inherited %v", specs[0].Scrub, cfg.Scrub)
	}
	if specs[0].Repair.MeanVisible() != cfg.Repair.MeanVisible() {
		t.Errorf("spec 0 repair not inherited")
	}
	if specs[1].VisibleMean != 7777 || specs[1].LatentMean != cfg.LatentMean {
		t.Errorf("spec 1 override broken: %+v", specs[1])
	}
	if specs[2].Scrub.Name() != (scrub.None{}).Name() {
		t.Errorf("spec 2 scrub override broken: %v", specs[2].Scrub.Name())
	}
	if cfg.NumReplicas() != 3 {
		t.Errorf("NumReplicas = %d, want 3 (derived from Specs)", cfg.NumReplicas())
	}
}

// TestSpecValidation covers the new rejection paths.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"specs vs replicas mismatch", func(c *Config) { c.Replicas = 2 }},
		{"NaN spec mean", func(c *Config) { c.Specs[1].VisibleMean = math.NaN() }},
		{"negative spec mean", func(c *Config) { c.Specs[2].LatentMean = -1 }},
		{"min intact beyond derived count", func(c *Config) { c.MinIntact = 4 }},
		{"shock target beyond derived count", func(c *Config) {
			c.Shocks = []faults.Shock{{Name: "x", Mean: 10, Targets: []int{3}, Kind: faults.Visible, HitProb: 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := heterogeneousConfig(t)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}

	// A spec fleet with no scalar fallback must reject a nil-scrub spec.
	cfg := heterogeneousConfig(t)
	cfg.Specs[0].Scrub = nil
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted spec with nil scrub and no scalar fallback")
	}
	// All channels disabled across every spec must be rejected.
	all := heterogeneousConfig(t)
	for i := range all.Specs {
		all.Specs[i].VisibleMean = math.Inf(1)
		all.Specs[i].LatentMean = math.Inf(1)
	}
	if err := all.Validate(); err == nil {
		t.Error("Validate accepted a fleet with no fault channel anywhere")
	}
}

// TestEstimateRejectsBadLevel covers the Options.Level domain check:
// withDefaults fixes only the zero value, so out-of-range levels must be
// rejected instead of flowing into interval math.
func TestEstimateRejectsBadLevel(t *testing.T) {
	r, err := NewRunner(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []float64{-0.5, 1, 1.5, math.NaN()} {
		if _, err := r.Estimate(Options{Trials: 2, Seed: 1, Horizon: 10, Level: level}); err == nil {
			t.Errorf("Estimate accepted Level = %v", level)
		}
	}
	if _, err := r.Estimate(Options{Trials: 50, Seed: 1, Horizon: 10000, Level: 0.9}); err != nil {
		t.Errorf("Estimate rejected valid Level 0.9: %v", err)
	}
}
