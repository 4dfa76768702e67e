package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
)

// fastMirror returns a deliberately unreliable mirrored config so trials
// reach data loss in few events: visible-only channel, MV=1000h,
// MRV=10h. The physical MTTDL is MV²/(r·MRV) = 50,000 h (the paper's
// closed form divided by the replica count; see E9 in DESIGN.md).
func fastMirror(t *testing.T) Config {
	t.Helper()
	rep, err := repair.Automated(10, 10, 0)
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

func TestConfigValidate(t *testing.T) {
	good := fastMirror(t)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero replicas", func(c *Config) { c.Replicas = 0 }},
		{"zero visible mean", func(c *Config) { c.VisibleMean = 0 }},
		{"NaN latent mean", func(c *Config) { c.LatentMean = math.NaN() }},
		{"no channels", func(c *Config) { c.VisibleMean = math.Inf(1); c.LatentMean = math.Inf(1) }},
		{"nil scrub", func(c *Config) { c.Scrub = nil }},
		{"nil correlation", func(c *Config) { c.Correlation = nil }},
		{"empty repair", func(c *Config) { c.Repair = repair.Policy{} }},
		{"shock out of range", func(c *Config) {
			c.Shocks = []faults.Shock{{Name: "x", Mean: 10, Targets: []int{5}, Kind: faults.Visible, HitProb: 1}}
		}},
		{"bad audit prob", func(c *Config) { c.AuditLatentFaultProb = -0.1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := fastMirror(t)
			c.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

// tableCorrelation is a custom correlation model that returns at[n],
// or 1 past the end of the table.
type tableCorrelation []float64

func (c tableCorrelation) Acceleration(n int) float64 {
	if n < len(c) {
		return c[n]
	}
	return 1
}

func (tableCorrelation) Alpha() float64 { return 1 }

// TestConfigValidateRejectsBadCorrelation: a custom model whose
// acceleration is below 1 or not finite for some n in 0..Replicas fails
// validation with an error naming the lowest such n and its value, so it
// never reaches faults.Process.SetAcceleration (which panics) inside a
// worker. Values past Replicas are never asked for.
func TestConfigValidateRejectsBadCorrelation(t *testing.T) {
	for _, c := range []struct {
		model tableCorrelation
		want  string // "" = accepted
	}{
		{tableCorrelation{1, 0.5}, "acceleration 0.5 at 1 faulty"},
		{tableCorrelation{1, 2, math.NaN()}, "acceleration NaN at 2 faulty"},
		{tableCorrelation{1, math.Inf(1), 0.5}, "acceleration +Inf at 1 faulty"},
		{tableCorrelation{0}, "acceleration 0 at 0 faulty"},
		{tableCorrelation{1, 2, 4}, ""},
		{tableCorrelation{1, 2, 4, 0.5}, ""},
	} {
		cfg := fastMirror(t)
		cfg.Correlation = c.model
		err := cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%v: %v", c.model, err)
			}
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: Validate = %v, want ErrInvalidConfig naming %q", c.model, err, c.want)
		}
		if _, err := NewRunner(cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%v: NewRunner = %v, want ErrInvalidConfig", c.model, err)
		}
	}
}

func TestVisibleOnlyMirrorMatchesTheory(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Censored != 0 {
		t.Fatalf("%d censored trials in a run-to-loss estimate", est.Censored)
	}
	// Physical MTTDL for a 2-unit repairable system with per-unit rate
	// 1/MV and fixed repair R: first faults at 2/MV, loss probability
	// per fault ~ R/MV, so MTTDL ~ MV²/(2R) = 50,000 h (plus the repair
	// itself, negligible).
	want := 1000.0 * 1000 / (2 * 10)
	if math.Abs(est.MTTDL.Point-want)/want > 0.06 {
		t.Errorf("simulated MTTDL = %.0f, want %.0f within 6%%", est.MTTDL.Point, want)
	}
	// The paper's closed form (eq 9, alpha=1) should be ~2x the physical
	// value — the documented first-fault convention gap.
	paper := cfg.ModelParams().MTTDL()
	if ratio := paper / est.MTTDL.Point; math.Abs(ratio-2) > 0.2 {
		t.Errorf("paper model / sim ratio = %.2f, want ~2 (first-fault convention)", ratio)
	}
	// All losses must be visible-visible.
	if est.Matrix.Losses[faults.Latent][faults.Visible]+est.Matrix.Losses[faults.Visible][faults.Latent]+est.Matrix.Losses[faults.Latent][faults.Latent] != 0 {
		t.Errorf("visible-only run produced latent losses: %+v", est.Matrix)
	}
	// Conditional loss probability per WOV ~ MRV/MV = 0.01.
	got := est.Matrix.ConditionalLossProb(faults.Visible, faults.Visible)
	if math.Abs(got-0.01)/0.01 > 0.1 {
		t.Errorf("P(V2|V1) = %v, want ~0.01", got)
	}
}

func TestLatentScrubbedMirrorMatchesTheory(t *testing.T) {
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Replicas:    2,
		VisibleMean: math.Inf(1),
		LatentMean:  1000,
		Scrub:       scrub.Periodic{Interval: 100},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Renewal argument: cycles of (both healthy: mean 500 h at pair rate
	// 2/ML) + (window of vulnerability: detection wait W ~ U(0,100) plus
	// 1 h repair). Loss per window with the exact exponential:
	// p = 1 - E[exp(-(W+1)/ML)] = 0.0493. MTTDL ≈ (500+51)/p ≈ 11.2e3 h.
	// (The paper's first-order form ML²/(2(MDL+MRL)) = 9804 ignores the
	// window dwell time — a visible ~12% bias at these scales.)
	p := 1 - math.Exp(-1.0/1000)*(1000.0/100)*(1-math.Exp(-100.0/1000))
	want := (500 + 51) / p
	if math.Abs(est.MTTDL.Point-want)/want > 0.06 {
		t.Errorf("simulated MTTDL = %.0f, want %.0f within 6%%", est.MTTDL.Point, want)
	}
	// Detections can't exceed latent faults. (Audit passes are not
	// simulated as events in the lazy fast path, so Stats.Audits stays
	// zero here; detection still happens on the audit schedule.)
	if est.Stats.Detections > est.Stats.LatentFaults {
		t.Errorf("detections %d exceed latent faults %d", est.Stats.Detections, est.Stats.LatentFaults)
	}
	if est.Stats.Detections == 0 {
		t.Error("no detections recorded")
	}
	// Both loss classes must be latent (no visible channel).
	if est.Matrix.Losses[faults.Visible][faults.Visible] != 0 {
		t.Error("visible losses in a latent-only run")
	}
}

// The lazy detection fast path (no audit events) and the eager path
// (every audit simulated) must agree statistically — they are two
// implementations of the same process.
func TestLazyAndEagerAuditPathsAgree(t *testing.T) {
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Replicas:    2,
		VisibleMean: math.Inf(1),
		LatentMean:  1000,
		Scrub:       scrub.Periodic{Interval: 100},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
	eager := cfg
	eager.AuditLatentFaultProb = 1e-300 // never fires, but disables the fast path
	runEst := func(c Config, seed uint64) Estimate {
		r, err := NewRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 1500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	lazy := runEst(cfg, 21)
	egr := runEst(eager, 22)
	if egr.Stats.Audits == 0 {
		t.Fatal("eager run recorded no audits; fast path not disabled")
	}
	if lazy.Stats.Audits != 0 {
		t.Fatal("lazy run recorded audits; fast path not engaged")
	}
	if rel := math.Abs(lazy.MTTDL.Point-egr.MTTDL.Point) / egr.MTTDL.Point; rel > 0.08 {
		t.Errorf("lazy MTTDL %.0f vs eager %.0f differ by %.1f%%, want < 8%%",
			lazy.MTTDL.Point, egr.MTTDL.Point, rel*100)
	}
}

func TestAlphaAcceleratesLoss(t *testing.T) {
	base := fastMirror(t)
	r1, err := NewRunner(base)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := r1.Estimate(Options{Trials: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	corr := base
	alpha, err := faults.NewAlphaCorrelation(0.1)
	if err != nil {
		t.Fatal(err)
	}
	corr.Correlation = alpha
	r2, err := NewRunner(corr)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := r2.Estimate(Options{Trials: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ratio := ind.MTTDL.Point / dep.MTTDL.Point
	// alpha=0.1 should cost ~10x (second-fault hazard x10; small
	// corrections from the repair tail).
	if ratio < 7 || ratio > 13 {
		t.Errorf("alpha=0.1 MTTDL penalty = %.1fx, want ~10x", ratio)
	}
}

// CompoundingAlpha accelerates per outstanding fault, so with r=3 it must
// cost strictly more than the paper's flat model at the same alpha — the
// ablation the faults package documents.
func TestCompoundingCorrelationHurtsMore(t *testing.T) {
	base := fastMirror(t)
	base.Replicas = 3
	base.VisibleMean = 500 // keep r=3 trials quick
	flat, err := faults.NewAlphaCorrelation(0.3)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := faults.NewCompoundingAlpha(0.3)
	if err != nil {
		t.Fatal(err)
	}
	runEst := func(c faults.Correlation) float64 {
		cfg := base
		cfg.Correlation = c
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 800, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		return est.MTTDL.Point
	}
	flatMTTDL := runEst(flat)
	compMTTDL := runEst(comp)
	if compMTTDL >= flatMTTDL {
		t.Errorf("compounding correlation MTTDL %.0f should be below flat %.0f at r=3", compMTTDL, flatMTTDL)
	}
}

func TestMoreReplicasHelp(t *testing.T) {
	base := fastMirror(t)
	base.VisibleMean = 200 // keep r=3 trials affordable
	prev := 0.0
	for _, r := range []int{1, 2, 3} {
		cfg := base
		cfg.Replicas = r
		runner, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := runner.Estimate(Options{Trials: 600, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if est.MTTDL.Point <= prev {
			t.Errorf("r=%d MTTDL %.0f not above r-1's %.0f", r, est.MTTDL.Point, prev)
		}
		prev = est.MTTDL.Point
	}
}

func TestMinIntactErasureSemantics(t *testing.T) {
	if testing.Short() {
		// The 1-of-4 cell simulates ~10^9 events; skip under -short so
		// the race-detector CI pass stays affordable.
		t.Skip("minutes-long full-replication cell")
	}
	base := fastMirror(t)
	base.Replicas = 4

	// m=1 (plain 4-way replication): loss needs all 4 down at once.
	repl := base
	repl.MinIntact = 1
	// m=3 of 4: loss needs just 2 down at once — much weaker.
	needy := base
	needy.MinIntact = 3
	runEst := func(cfg Config) float64 {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 600, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		return est.MTTDL.Point
	}
	a := runEst(repl)
	b := runEst(needy)
	if b >= a {
		t.Errorf("3-of-4 MTTDL %.0f should be far below 1-of-4 %.0f", b, a)
	}
	// MinIntact = Replicas: any single fault is loss; MTTDL = time to
	// first fault anywhere = MV/r.
	all := base
	all.MinIntact = 4
	got := runEst(all)
	want := base.VisibleMean / 4
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("MinIntact=n MTTDL = %.0f, want ~MV/4 = %.0f", got, want)
	}
	// Validation bounds.
	bad := base
	bad.MinIntact = 5
	if err := bad.Validate(); err == nil {
		t.Error("MinIntact above Replicas accepted")
	}
	bad.MinIntact = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative MinIntact accepted")
	}
}

func TestMinIntactMatchesMarkovModel(t *testing.T) {
	// 2-of-4 code with exponential repair: compare against the exact
	// birth-death MTTDL. Exponential repair matches the Markov model's
	// assumptions (deterministic repair would not).
	vis, err := rng.NewExponential(25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Replicas:    4,
		MinIntact:   2,
		VisibleMean: 1000,
		LatentMean:  math.Inf(1),
		Scrub:       scrub.None{},
		Repair:      repair.Policy{Visible: vis, Latent: vis},
		Correlation: faults.Independent{},
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 2500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	markov := baseline.MarkovErasure{N: 4, M: 2, FragmentMTTF: 1000, FragmentMTTR: 25}
	want, err := markov.MTTDL()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.MTTDL.Point-want) / want; rel > 0.08 {
		t.Errorf("simulated 2-of-4 MTTDL %.0f vs Markov %.0f: %.1f%% off, want < 8%%",
			est.MTTDL.Point, want, rel*100)
	}
}

func TestSingleReplicaMTTDLIsMV(t *testing.T) {
	cfg := fastMirror(t)
	cfg.Replicas = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MTTDL.Point-1000)/1000 > 0.05 {
		t.Errorf("single replica MTTDL = %.0f, want ~1000 (MV)", est.MTTDL.Point)
	}
}

func TestHorizonCensoring(t *testing.T) {
	cfg := fastMirror(t)
	cfg.VisibleMean = 1e9 // essentially immortal
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 500, Seed: 6, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if est.Censored != 500 {
		t.Errorf("censored = %d, want all 500", est.Censored)
	}
	if est.LossProb.Point != 0 {
		t.Errorf("loss probability = %v, want 0", est.LossProb.Point)
	}
	if est.MTTDL.Point != 1000 {
		t.Errorf("restricted-mean MTTDL = %v, want the horizon 1000", est.MTTDL.Point)
	}
	if est.Survival.Survival(999) != 1 {
		t.Error("survival should be 1 throughout a lossless run")
	}
}

// TestInfiniteHorizon: a horizon that overflowed to +Inf (horizon_years
// 1e305 converted to hours) censors nothing. Its workers leave their
// engines unbounded instead of panicking, and every trial runs to loss,
// as with no horizon at all.
func TestInfiniteHorizon(t *testing.T) {
	r, err := NewRunner(fastMirror(t))
	if err != nil {
		t.Fatal(err)
	}
	inf, err := r.Estimate(Options{Trials: 200, Seed: 6, Horizon: math.Inf(1), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	toLoss, err := r.Estimate(Options{Trials: 200, Seed: 6, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Trials != 200 || inf.Censored != 0 {
		t.Errorf("trials %d, censored %d; want 200 and 0", inf.Trials, inf.Censored)
	}
	if inf.MTTDL.Point != toLoss.MTTDL.Point {
		t.Errorf("MTTDL %v with an infinite horizon, %v run to loss", inf.MTTDL.Point, toLoss.MTTDL.Point)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := fastMirror(t)
	run := func(parallel int) Estimate {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 300, Seed: 42, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	a := run(1)
	b := run(8)
	if a.MTTDL.Point != b.MTTDL.Point {
		t.Errorf("parallelism changed results: %v vs %v", a.MTTDL.Point, b.MTTDL.Point)
	}
	if a.Stats != b.Stats {
		t.Errorf("parallelism changed stats: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestRunTrialReproducible(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := r.RunTrial(7, 3, 0)
	b := r.RunTrial(7, 3, 0)
	if a != b {
		t.Errorf("same (seed, index) gave %+v vs %+v", a, b)
	}
	c := r.RunTrial(7, 4, 0)
	if a.Time == c.Time {
		t.Error("different trial indices gave identical loss times")
	}
}

func TestSharedShockDestroysMirror(t *testing.T) {
	rep, err := repair.Automated(10, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No individual faults at all: only a shared shock that takes out
	// both replicas at once. Every shock is a loss, so MTTDL = shock
	// mean.
	cfg := Config{
		Replicas:    2,
		VisibleMean: math.Inf(1),
		LatentMean:  math.Inf(1),
		Scrub:       scrub.None{},
		Repair:      rep,
		Correlation: faults.Independent{},
		Shocks: []faults.Shock{
			{Name: "dc-power", Mean: 5000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 1},
		},
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{Trials: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MTTDL.Point-5000)/5000 > 0.05 {
		t.Errorf("shared-shock MTTDL = %.0f, want ~5000 (every shock kills both)", est.MTTDL.Point)
	}
	if est.Stats.ShockEvents == 0 {
		t.Error("no shock events recorded")
	}
}

func TestIndependentShocksFarSafer(t *testing.T) {
	rep, err := repair.Automated(10, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Replicas:    2,
		VisibleMean: math.Inf(1),
		LatentMean:  math.Inf(1),
		Scrub:       scrub.None{},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
	shared := base
	shared.Shocks = []faults.Shock{
		{Name: "dc", Mean: 5000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 1},
	}
	split := base
	split.Shocks = []faults.Shock{
		{Name: "dc0", Mean: 5000, Targets: []int{0}, Kind: faults.Visible, HitProb: 1},
		{Name: "dc1", Mean: 5000, Targets: []int{1}, Kind: faults.Visible, HitProb: 1},
	}
	runEst := func(cfg Config) float64 {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 800, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return est.MTTDL.Point
	}
	sharedMTTDL := runEst(shared)
	splitMTTDL := runEst(split)
	// Same marginal hazard per replica; the only difference is
	// correlation. Independence should win by orders of magnitude
	// (~MV/(2·MRV) = 250x here).
	if splitMTTDL < 50*sharedMTTDL {
		t.Errorf("independent shocks MTTDL %.0f should dwarf shared %.0f", splitMTTDL, sharedMTTDL)
	}
}

func TestBuggyRepairDegradesReliability(t *testing.T) {
	clean := fastMirror(t)
	buggy := fastMirror(t)
	rep, err := repair.Automated(10, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	buggy.Repair = rep
	// Buggy repairs plant latent faults that nothing detects (no scrub):
	// each repaired replica has a coin-flip chance of staying silently
	// bad, so the mirror decays toward a single copy.
	runEst := func(cfg Config) Estimate {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 800, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	c := runEst(clean)
	b := runEst(buggy)
	if b.MTTDL.Point >= c.MTTDL.Point/3 {
		t.Errorf("bug-ridden repair MTTDL %.0f should be far below clean %.0f", b.MTTDL.Point, c.MTTDL.Point)
	}
	if b.Stats.RepairBugs == 0 {
		t.Error("no repair bugs recorded")
	}
}

func TestAuditSideEffectsCanHurt(t *testing.T) {
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Replicas:    2,
		VisibleMean: math.Inf(1),
		LatentMean:  2000,
		Scrub:       scrub.Periodic{Interval: 50}, // hyperactive scrubbing
		Repair:      rep,
		Correlation: faults.Independent{},
	}
	wear := base
	wear.AuditLatentFaultProb = 0.05 // each pass can plant a fault
	runEst := func(cfg Config) Estimate {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{Trials: 300, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	clean := runEst(base)
	worn := runEst(wear)
	if worn.MTTDL.Point >= clean.MTTDL.Point {
		t.Errorf("audit wear MTTDL %.0f should fall below clean %.0f", worn.MTTDL.Point, clean.MTTDL.Point)
	}
	if worn.Stats.AuditInduced == 0 {
		t.Error("no audit-induced faults recorded")
	}
}

func TestEstimateOptionValidation(t *testing.T) {
	r, err := NewRunner(fastMirror(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Estimate(Options{Trials: 1}); err == nil {
		t.Error("1 trial accepted")
	}
	if _, err := r.Estimate(Options{Trials: 10, Horizon: -5}); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := NewRunner(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}
