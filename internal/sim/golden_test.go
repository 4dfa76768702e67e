package sim

import (
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/scrub"
)

// The golden values below were captured from the pre-streaming
// implementation (the O(Trials) slice-and-barrier aggregation of PR 2)
// and pin the refactor's central contract: the streaming batched reduce
// produces bit-identical estimates for the same seed. The Welford pass
// over loss times replays in trial order during batch merges, the
// Kaplan–Meier fit depends only on the observation multiset, and every
// other aggregate is integer-exact — so these must hold to the last bit,
// at any parallelism and any batch size.

type goldenCase struct {
	name    string
	cfg     func(t *testing.T) Config
	opt     Options
	mttdl   [3]uint64 // Point, Lo, Hi bits
	loss    [3]uint64
	cens    int
	losses  int
	maxTime uint64
	rm      uint64 // RestrictedMean(horizon) bits
	surv    uint64 // Survival(horizon/2) bits
}

func goldenMirror(t *testing.T) Config {
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

func goldenLatent(t *testing.T) Config {
	t.Helper()
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replicas:    2,
		VisibleMean: math.Inf(1),
		LatentMean:  1000,
		Scrub:       scrub.Periodic{Interval: 100},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "mirror-loss", cfg: goldenMirror,
			opt:   Options{Trials: 300, Seed: 42},
			mttdl: [3]uint64{0x40e8484b6a35c103, 0x40e56b8538271afc, 0x40eb25119c44670a},
			loss:  [3]uint64{0, 0, 0},
			cens:  0, losses: 300,
			maxTime: 0x411350163ba3e5ce, rm: 0x0, surv: 0x3ff0000000000000,
		},
		{
			name: "mirror-censored", cfg: goldenMirror,
			opt:   Options{Trials: 500, Seed: 7, Horizon: 20000},
			mttdl: [3]uint64{0x40cff8bd6faf595a, 0x40ce48c9ef7f292c, 0x40d0d45877efc4c4},
			loss:  [3]uint64{0x3fd604189374bc6a, 0x3fd36fb49ec73a0f, 0x3fd8bf75eafb9709},
			cens:  328, losses: 172,
			maxTime: 0x40d3880000000000, rm: 0x40cff8bd6faf595a, surv: 0x3fea1cac083126e8,
		},
		{
			name: "latent-scrubbed", cfg: goldenLatent,
			opt:   Options{Trials: 400, Seed: 2, Horizon: 30000},
			mttdl: [3]uint64{0x40c48ec46db14cb5, 0x40c30641f652aff8, 0x40c61746e50fe972},
			loss:  [3]uint64{0x3fee000000000000, 0x3fed19867b6a30de, 0x3feea24a61b7b04e},
			cens:  25, losses: 375,
			maxTime: 0x40dd4c0000000000, rm: 0x40c48ec46db14cb5, surv: 0x3fd170a3d70a3d80,
		},
	}
}

func checkGolden(t *testing.T, g goldenCase, est Estimate) {
	t.Helper()
	gotM := [3]uint64{math.Float64bits(est.MTTDL.Point), math.Float64bits(est.MTTDL.Lo), math.Float64bits(est.MTTDL.Hi)}
	if gotM != g.mttdl {
		t.Errorf("MTTDL bits %#x, want %#x", gotM, g.mttdl)
	}
	gotL := [3]uint64{math.Float64bits(est.LossProb.Point), math.Float64bits(est.LossProb.Lo), math.Float64bits(est.LossProb.Hi)}
	if gotL != g.loss {
		t.Errorf("LossProb bits %#x, want %#x", gotL, g.loss)
	}
	if est.Censored != g.cens {
		t.Errorf("censored %d, want %d", est.Censored, g.cens)
	}
	if n := est.Trials - est.Censored; n != g.losses {
		t.Errorf("losses %d, want %d", n, g.losses)
	}
	if bits := math.Float64bits(est.Survival.MaxTime()); bits != g.maxTime {
		t.Errorf("survival max time bits %#x, want %#x", bits, g.maxTime)
	}
	if bits := math.Float64bits(est.Survival.RestrictedMean(g.opt.Horizon)); bits != g.rm {
		t.Errorf("restricted mean bits %#x, want %#x", bits, g.rm)
	}
	if bits := math.Float64bits(est.Survival.Survival(g.opt.Horizon / 2)); bits != g.surv {
		t.Errorf("survival bits %#x, want %#x", bits, g.surv)
	}
}

// TestGoldenBitIdentity pins the refactor invariant at several worker
// counts and batch sizes, including pathological ones (batch 1, batch
// larger than the budget).
func TestGoldenBitIdentity(t *testing.T) {
	for _, g := range goldenCases() {
		t.Run(g.name, func(t *testing.T) {
			for _, variant := range []struct {
				label    string
				parallel int
				batch    int
			}{
				{"serial", 1, 0},
				{"parallel8", 8, 0},
				{"batch1-parallel4", 4, 1},
				{"batch7", 3, 7},
				{"one-big-batch", 8, 1 << 20},
			} {
				r, err := NewRunner(g.cfg(t))
				if err != nil {
					t.Fatal(err)
				}
				opt := g.opt
				opt.Parallel = variant.parallel
				opt.BatchSize = variant.batch
				est, err := r.Estimate(opt)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(variant.label, func(t *testing.T) { checkGolden(t, g, est) })
			}
		})
	}
}

// goldenWithLatent is goldenMirror with a latent channel audited
// periodically, so windows open by both fault classes.
func goldenWithLatent(t *testing.T) Config {
	t.Helper()
	cfg := goldenMirror(t)
	cfg.LatentMean = 2000
	cfg.Scrub = scrub.Periodic{Interval: 200}
	return cfg
}

// goldenEverything turns on every optional trial path at once:
// correlation, a shock, audit side effects and an access channel.
func goldenEverything(t *testing.T) Config {
	t.Helper()
	cfg := goldenWithLatent(t)
	cfg.Replicas = 3
	cfg.Correlation = faults.AlphaCorrelation{Factor: 0.5}
	cfg.Shocks = []faults.Shock{{Name: "power", Mean: 3000, Targets: []int{0, 1, 2}, Kind: faults.Visible, HitProb: 0.5}}
	cfg.AuditLatentFaultProb = 0.05
	cfg.AuditVisibleFaultProb = 0.01
	cfg.AccessDetect = scrub.OnAccess{RatePerHour: 0.01, Coverage: 0.5}
	return cfg
}

// withGolden returns a goldenCase config constructor that applies edit
// to base.
func withGolden(base func(*testing.T) Config, edit func(*Config)) func(*testing.T) Config {
	return func(t *testing.T) Config {
		cfg := base(t)
		edit(&cfg)
		return cfg
	}
}

// trialPathGoldenCases pin the trial paths the original corpus leaves
// out: correlated and compounding acceleration, failure biasing, shocks,
// audit side effects (the materialized audit schedule), access
// detection and a Weibull profile. Captured before the trial core
// learned to skip acceleration work for static configurations and to
// derive the audit and shock streams on first use; both changes must
// leave every bit below unmoved. The Weibull case was re-captured when
// Weibull arrivals moved from thinning to inversion, which changes
// their draws.
func trialPathGoldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "alpha-0.5", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Correlation = faults.AlphaCorrelation{Factor: 0.5} }),
			opt:   Options{Trials: 300, Seed: 5, Horizon: 20000},
			mttdl: [3]uint64{0x40a9cc5267a428d0, 0x40a713b680a3a179, 0x40ac84ee4ea4b027},
			loss:  [3]uint64{0x3ff0000000000000, 0x3fef986dc4821f2c, 0x3feffffffffffffe},
			cens:  0, losses: 300,
			maxTime: 0x40d3268f4caa86aa, rm: 0x40a9cc5267a428df, surv: 0x3fa62fc962fc9638,
		},
		{
			name: "compounding-0.5-3rep", cfg: withGolden(goldenWithLatent, func(c *Config) {
				c.Replicas = 3
				c.Correlation = faults.CompoundingAlpha{Factor: 0.5}
			}),
			opt:   Options{Trials: 300, Seed: 6, Horizon: 50000},
			mttdl: [3]uint64{0x40c370ae9ff4bd0e, 0x40c17fb787b7548c, 0x40c561a5b8322590},
			loss:  [3]uint64{0x3fefc962fc962fc9, 0x3fef3b935d034a40, 0x3feff101e694fd76},
			cens:  2, losses: 298,
			maxTime: 0x40e86a0000000000, rm: 0x40c370ae9ff4bd0e, surv: 0x3fb0369d0369d03c,
		},
		{
			name: "alpha-1", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Correlation = faults.AlphaCorrelation{Factor: 1} }),
			opt:   Options{Trials: 300, Seed: 7, Horizon: 20000},
			mttdl: [3]uint64{0x40b764d3754ee48a, 0x40b5519f5d7744cb, 0x40b978078d268449},
			loss:  [3]uint64{0x3feeeeeeeeeeeeef, 0x3fee1255ca9f2dc2, 0x3fef6add7551bc24},
			cens:  10, losses: 290,
			maxTime: 0x40d3880000000000, rm: 0x40b764d3754ee48a, surv: 0x3fc99999999999a8,
		},
		{
			name: "auto-bias", cfg: goldenMirror,
			opt:   Options{Trials: 400, Seed: 9, Horizon: 2000, Bias: AutoBias},
			mttdl: [3]uint64{0x409eaf1de9fe022e, 0x409d18541922d6c1, 0x40a022f3dd6c96cd},
			loss:  [3]uint64{0x3fa2b2af037b79e4, 0x3fa027f07a40c538, 0x3fa53d6d8cb62e90},
			cens:  258, losses: 142,
			maxTime: 0x409f400000000000, rm: 0x40995c5652ee11af, surv: 0x3fea147ae147ae16,
		},
		{
			name: "auto-bias-alpha-0.5", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Correlation = faults.AlphaCorrelation{Factor: 0.5} }),
			opt:   Options{Trials: 400, Seed: 10, Horizon: 2000, Bias: AutoBias},
			mttdl: [3]uint64{0x409889e4c63dc344, 0x40973815b7ad291c, 0x4099dbb3d4ce5d6c},
			loss:  [3]uint64{0x3fdb851eb851eb85, 0x3fd8693aca7390ef, 0x3fdea102a630461b},
			cens:  228, losses: 172,
			maxTime: 0x409f400000000000, rm: 0x409889e4c63dc349, surv: 0x3fe91eb851eb8520,
		},
		{
			name: "shocks", cfg: withGolden(goldenMirror, func(c *Config) {
				c.Shocks = []faults.Shock{{Name: "power", Mean: 5000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 0.5}}
			}),
			opt:   Options{Trials: 300, Seed: 11, Horizon: 20000},
			mttdl: [3]uint64{0x40c48c4a1020a6d2, 0x40c328116abfcfc7, 0x40c5f082b5817ddd},
			loss:  [3]uint64{0x3fe92c5f92c5f92c, 0x3fe7942bcd0655dc, 0x3fea8931da40daba},
			cens:  64, losses: 236,
			maxTime: 0x40d3880000000000, rm: 0x40c48c4a1020a6d2, surv: 0x3fdf5c28f5c28f71,
		},
		{
			name: "audit-wear", cfg: withGolden(goldenLatent, func(c *Config) {
				c.AuditLatentFaultProb = 0.02
				c.AuditVisibleFaultProb = 0.005
			}),
			opt:   Options{Trials: 300, Seed: 12, Horizon: 30000},
			mttdl: [3]uint64{0x40b72e4c7072694d, 0x40b4c8eef01cc798, 0x40b993a9f0c80b02},
			loss:  [3]uint64{0x3ff0000000000000, 0x3fef986dc4821f2c, 0x3feffffffffffffe},
			cens:  0, losses: 300,
			maxTime: 0x40db8a0000000000, rm: 0x40b72e4c70726954, surv: 0x3fb555555555555e,
		},
		{
			name: "access-detect", cfg: withGolden(goldenLatent, func(c *Config) {
				c.Scrub = scrub.Periodic{Interval: 500}
				c.AccessDetect = scrub.OnAccess{RatePerHour: 0.01, Coverage: 0.5}
			}),
			opt:   Options{Trials: 300, Seed: 13, Horizon: 30000},
			mttdl: [3]uint64{0x40b56345c2a6dff4, 0x40b316d831e0cc86, 0x40b7afb3536cf362},
			loss:  [3]uint64{0x3ff0000000000000, 0x3fef986dc4821f2c, 0x3feffffffffffffe},
			cens:  0, losses: 300,
			maxTime: 0x40da240f493b5c04, rm: 0x40b56345c2a6dff8, surv: 0x3fb1111111111117,
		},
		{
			name: "weibull", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Hazard = faults.WeibullHazard{Shape: 1.5, Scale: 20000} }),
			opt:   Options{Trials: 300, Seed: 14, Horizon: 20000},
			mttdl: [3]uint64{0x40c2196defdeeaca, 0x40c112ba31a9cc20, 0x40c32021ae140974},
			loss:  [3]uint64{0x3fef40da740da741, 0x3fee7bedc60b8b2b, 0x3fefa30a3b4421e9},
			cens:  7, losses: 293,
			maxTime: 0x40d3880000000000, rm: 0x40c2196defdeeaca, surv: 0x3fd9d0369d0369dc,
		},
		{
			name: "everything", cfg: goldenEverything,
			opt:   Options{Trials: 300, Seed: 15, Horizon: 50000},
			mttdl: [3]uint64{0x40bbad3bec7720b3, 0x40b8d2b65e2cd271, 0x40be87c17ac16ef5},
			loss:  [3]uint64{0x3fefe4b17e4b17e5, 0x3fef675405427206, 0x3feffb2d7ecac16c},
			cens:  1, losses: 299,
			maxTime: 0x40e86a0000000000, rm: 0x40bbad3bec7720b3, surv: 0x3f9b4e81b4e81b56,
		},
	}
}

// goldenAged is a 3-replica fleet with both fault channels over a
// 50-year horizon at α = 0.5, the shape of the §6.5 ageing sweeps: means
// comparable to the profile scale, so every trial re-arms correlated
// arrivals and many of them land past the horizon.
func goldenAged(h func(t *testing.T) faults.Hazard) func(t *testing.T) Config {
	return func(t *testing.T) Config {
		t.Helper()
		rep, err := repair.Automated(48, 48, 0)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Replicas:    3,
			VisibleMean: 150000,
			LatentMean:  100000,
			Scrub:       scrub.Periodic{Interval: 8766},
			Repair:      rep,
			Correlation: faults.AlphaCorrelation{Factor: 0.5},
			Hazard:      h(t),
		}
	}
}

// normalizedWeibull is a Weibull profile of the given shape and a
// 200000 h scale, normalized over 50 years.
func normalizedWeibull(shape float64) func(t *testing.T) faults.Hazard {
	return func(t *testing.T) faults.Hazard {
		t.Helper()
		h, err := faults.Normalize(faults.WeibullHazard{Shape: shape, Scale: 200000}, agedHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
}

// agedHorizon is 50 years in hours.
const agedHorizon = 438300

// profileGoldenCases pin profiled trials, the path the profile kernels
// and horizon-parked events serve: normalized Weibull profiles of every
// shape whose exponent has its own arithmetic (shape 1, 1.5, 2 and 3)
// and one that has none (2.5), a constant and a bathtub profile, all
// censored at 50 years at α = 0.5, and one profiled run to loss, where
// the engine has no horizon to park events behind. Captured before
// either change; both must leave every bit below unmoved. The Weibull
// cases of shape above 1 were re-captured when Weibull arrivals moved
// from thinning to inversion, which changes their draws; shape 1 is
// the constant kernel and kept its bits.
func profileGoldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "weibull-norm-1", cfg: goldenAged(normalizedWeibull(1)),
			opt:   Options{Trials: 200, Seed: 21, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4118a1260bcbf994, 0x4115994e7ac27dc9, 0x411ba8fd9cd5755f},
			loss:  [3]uint64{0x3fc47ae147ae147b, 0x3fbd9cd1b3c00f2e, 0x3fcbcb443a0baef3},
			cens:  168, losses: 32,
			maxTime: 0x411ac07000000000, rm: 0x4118a1260bcbf994, surv: 0x3fedc28f5c28f5c2,
		},
		{
			name: "weibull-norm-1.5", cfg: goldenAged(normalizedWeibull(1.5)),
			opt:   Options{Trials: 200, Seed: 22, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4118b76a47b917a2, 0x4116b40c804ab9fc, 0x411abac80f277548},
			loss:  [3]uint64{0x3fcccccccccccccd, 0x3fc6188886e38b3a, 0x3fd26a5a33ababbc},
			cens:  155, losses: 45,
			maxTime: 0x411ac07000000000, rm: 0x4118b76a47b917a2, surv: 0x3fee147ae147ae14,
		},
		{
			name: "weibull-norm-2", cfg: goldenAged(normalizedWeibull(2)),
			opt:   Options{Trials: 200, Seed: 23, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4118dff3fea48738, 0x4117caf827bd9706, 0x4119f4efd58b776a},
			loss:  [3]uint64{0x3fd47ae147ae147b, 0x3fd097cd9fb8b28b, 0x3fd8cd1c6d14c18b},
			cens:  136, losses: 64,
			maxTime: 0x411ac07000000000, rm: 0x4118dff3fea48738, surv: 0x3fef5c28f5c28f5c,
		},
		{
			name: "weibull-norm-3", cfg: goldenAged(normalizedWeibull(3)),
			opt:   Options{Trials: 200, Seed: 24, Horizon: agedHorizon},
			mttdl: [3]uint64{0x411948cbcb53519c, 0x41189c7a628ad13f, 0x4119f51d341bd1f9},
			loss:  [3]uint64{0x3fd8000000000000, 0x3fd3e509b8b8cbaf, 0x3fdc6827090ec4ef},
			cens:  125, losses: 75,
			maxTime: 0x411ac07000000000, rm: 0x411948cbcb53519c, surv: 0x3fefd70a3d70a3d7,
		},
		{
			name: "weibull-norm-2.5", cfg: goldenAged(normalizedWeibull(2.5)),
			opt:   Options{Trials: 200, Seed: 25, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4119248e3fcecdba, 0x41180d0814adc868, 0x411a3c146aefd30c},
			loss:  [3]uint64{0x3fd3d70a3d70a3d7, 0x3fcfffa77c86fe46, 0x3fd82395165c7b65},
			cens:  138, losses: 62,
			maxTime: 0x411ac07000000000, rm: 0x4119248e3fcecdba, surv: 0x3fefae147ae147ae,
		},
		{
			name: "constant", cfg: goldenAged(func(*testing.T) faults.Hazard { return faults.ConstantHazard{Factor: 1.5} }),
			opt:   Options{Trials: 200, Seed: 26, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4114241adfa5c0da, 0x41128793c680342d, 0x4115c0a1f8cb4d87},
			loss:  [3]uint64{0x3fdf0a3d70a3d70a, 0x3fdaaac8cd8ec064, 0x3fe1b97aaf1684a4},
			cens:  103, losses: 97,
			maxTime: 0x411ac07000000000, rm: 0x4114241adfa5c0da, surv: 0x3fe7ae147ae147ad,
		},
		{
			name: "bathtub", cfg: goldenAged(func(t *testing.T) faults.Hazard {
				h, err := aging.Bathtub(8766, 3, 262980, 4)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}),
			opt:   Options{Trials: 200, Seed: 27, Horizon: agedHorizon},
			mttdl: [3]uint64{0x41124e47838be285, 0x411175ded13cc329, 0x411326b035db01e1},
			loss:  [3]uint64{0x3fed99999999999a, 0x3fec289a4d7e1f7e, 0x3fee875f9c483778},
			cens:  15, losses: 185,
			maxTime: 0x411ac07000000000, rm: 0x41124e47838be285, surv: 0x3fec51eb851eb852,
		},
		{
			name: "weibull-run-to-loss", cfg: withGolden(goldenWithLatent, func(c *Config) {
				h, err := faults.Normalize(faults.WeibullHazard{Shape: 2, Scale: 5000}, 20000)
				if err != nil {
					panic(err)
				}
				c.Hazard = h
			}),
			opt:   Options{Trials: 200, Seed: 28},
			mttdl: [3]uint64{0x40c4e776aa120ce5, 0x40c3c7026cd576cc, 0x40c607eae74ea2fe},
			loss:  [3]uint64{0x0, 0x0, 0x0},
			cens:  0, losses: 200,
			maxTime: 0x40d76c26bb07f624, rm: 0x0, surv: 0x3ff0000000000000,
		},
	}
}

// TestGoldenTrialPaths runs trialPathGoldenCases and profileGoldenCases
// serially and in 7-trial batches on 3 workers.
func TestGoldenTrialPaths(t *testing.T) {
	for _, g := range append(trialPathGoldenCases(), profileGoldenCases()...) {
		t.Run(g.name, func(t *testing.T) {
			for _, variant := range []struct {
				label    string
				parallel int
				batch    int
			}{
				{"serial", 1, 0},
				{"batch7-parallel3", 3, 7},
			} {
				r, err := NewRunner(g.cfg(t))
				if err != nil {
					t.Fatal(err)
				}
				opt := g.opt
				opt.Parallel = variant.parallel
				opt.BatchSize = variant.batch
				est, err := r.Estimate(opt)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(variant.label, func(t *testing.T) { checkGolden(t, g, est) })
			}
		})
	}
}

// traceDigest folds a trial's event log into one FNV-1a value over
// every field of every event, so a golden can pin the whole timeline.
func traceDigest(events []Event) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, e := range events {
		mix(math.Float64bits(e.Time))
		mix(uint64(e.Replica))
		mix(uint64(e.Kind))
		mix(uint64(e.Fault))
		if e.Planted {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

// checkTrialResult compares a trial result against its golden, with
// float fields as bits.
func checkTrialResult(t *testing.T, got TrialResult, lost bool, timeBits uint64, first, final faults.Type, weightBits uint64, stats TrialStats) {
	t.Helper()
	if got.Lost != lost || math.Float64bits(got.Time) != timeBits || math.Float64bits(got.Weight) != weightBits {
		t.Errorf("lost %v time %#x weight %#x, want %v %#x %#x",
			got.Lost, math.Float64bits(got.Time), math.Float64bits(got.Weight), lost, timeBits, weightBits)
	}
	if got.FirstFault != first || got.FinalFault != final {
		t.Errorf("first/final fault %v/%v, want %v/%v", got.FirstFault, got.FinalFault, first, final)
	}
	if got.Stats != stats {
		t.Errorf("stats %+v, want %+v", got.Stats, stats)
	}
}

// TestGoldenRunTrial pins one RunTrial replay of goldenEverything at a
// fixed (seed, index), run to loss.
func TestGoldenRunTrial(t *testing.T) {
	r, err := NewRunner(goldenEverything(t))
	if err != nil {
		t.Fatal(err)
	}
	checkTrialResult(t, r.RunTrial(3, 7, 0), true, 0x40b5cd8109b1fcd8, faults.Latent, faults.Latent, 0x3ff0000000000000,
		TrialStats{VisibleFaults: 20, LatentFaults: 19, Detections: 16, Repairs: 35, Audits: 81, ShockEvents: 1, AuditInduced: 8, WOVOpenedByVis: 15, WOVOpenedByLat: 13})
}

// TestGoldenTraceTrial pins one TraceTrial of goldenEverything: its
// result and a digest of every event, audit passes included.
func TestGoldenTraceTrial(t *testing.T) {
	tr, err := TraceTrial(goldenEverything(t), 4, 50000)
	if err != nil {
		t.Fatal(err)
	}
	checkTrialResult(t, tr.Result, true, 0x409c5ced49455f8c, faults.Latent, faults.Visible, 0x3ff0000000000000,
		TrialStats{VisibleFaults: 8, LatentFaults: 4, Detections: 2, Repairs: 9, Audits: 27, ShockEvents: 1, AuditInduced: 2, WOVOpenedByVis: 6, WOVOpenedByLat: 3})
	if n, d := len(tr.Events), traceDigest(tr.Events); n != 60 || d != 0x3f16c370e7447c9c {
		t.Errorf("%d events, digest %#x; want 60, 0x3f16c370e7447c9c", n, d)
	}
}
