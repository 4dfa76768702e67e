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
// at any parallelism and any batch size. Every golden in this file was
// re-captured once, when draw layout 2 gave each (replica, role) its own
// stream and drew exponentials by ziggurat (docs/MODEL.md §6): the
// layout decides every draw, so no bit could stay.

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
			mttdl: [3]uint64{0x40e962e9630b16e8, 0x40e654715e87c43b, 0x40ec7161678e6995},
			loss:  [3]uint64{0x0, 0x0, 0x0},
			cens:  0, losses: 300,
			maxTime: 0x41136f51626d16d9, rm: 0x0, surv: 0x3ff0000000000000,
		},
		{
			name: "mirror-censored", cfg: goldenMirror,
			opt:   Options{Trials: 500, Seed: 7, Horizon: 20000},
			mttdl: [3]uint64{0x40cf79e2043acf91, 0x40cdda52af526f48, 0x40d08cb8ac9197ed},
			loss:  [3]uint64{0x3fd6c8b439581062, 0x3fd42d755924a5fd, 0x3fd987ecfea2dff3},
			cens:  322, losses: 178,
			maxTime: 0x40d3880000000000, rm: 0x40cf79e2043acf91, surv: 0x3fe95810624dd2f0,
		},
		{
			name: "latent-scrubbed", cfg: goldenLatent,
			opt:   Options{Trials: 400, Seed: 2, Horizon: 30000},
			mttdl: [3]uint64{0x40c48a9bf28eeb91, 0x40c31d9b5c47a04f, 0x40c5f79c88d636d3},
			loss:  [3]uint64{0x3fedc28f5c28f5c3, 0x3fecd2760b5c9025, 0x3fee6fa4c533e9b1},
			cens:  28, losses: 372,
			maxTime: 0x40dd4c0000000000, rm: 0x40c48a9bf28eeb91, surv: 0x3fd19999999999a9,
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
// leave every bit below unmoved.
func trialPathGoldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "alpha-0.5", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Correlation = faults.AlphaCorrelation{Factor: 0.5} }),
			opt:   Options{Trials: 300, Seed: 5, Horizon: 20000},
			mttdl: [3]uint64{0x40aaeb3175a34063, 0x40a7fec6cc10baaa, 0x40add79c1f35c61c},
			loss:  [3]uint64{0x3fefae147ae147ae, 0x3fef1291357c513e, 0x3fefe417cda70ac0},
			cens:  3, losses: 297,
			maxTime: 0x40d3880000000000, rm: 0x40aaeb3175a34063, surv: 0x3fb1111111111117,
		},
		{
			name: "compounding-0.5-3rep", cfg: withGolden(goldenWithLatent, func(c *Config) {
				c.Replicas = 3
				c.Correlation = faults.CompoundingAlpha{Factor: 0.5}
			}),
			opt:   Options{Trials: 300, Seed: 6, Horizon: 50000},
			mttdl: [3]uint64{0x40c45f05312ac5a2, 0x40c245eac066d52a, 0x40c6781fa1eeb61a},
			loss:  [3]uint64{0x3fefae147ae147ae, 0x3fef1291357c513e, 0x3fefe417cda70ac0},
			cens:  3, losses: 297,
			maxTime: 0x40e86a0000000000, rm: 0x40c45f05312ac5a2, surv: 0x3fb62fc962fc9639,
		},
		{
			name: "alpha-1", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Correlation = faults.AlphaCorrelation{Factor: 1} }),
			opt:   Options{Trials: 300, Seed: 7, Horizon: 20000},
			mttdl: [3]uint64{0x40b8bf18c4887f62, 0x40b68eba818d6f92, 0x40baef7707838f32},
			loss:  [3]uint64{0x3fee9d0369d0369d, 0x3fedac4c6be82016, 0x3fef2f2212aa06a0},
			cens:  13, losses: 287,
			maxTime: 0x40d3880000000000, rm: 0x40b8bf18c4887f62, surv: 0x3fcf92c5f92c5fa1,
		},
		{
			name: "auto-bias", cfg: goldenMirror,
			opt:   Options{Trials: 400, Seed: 9, Horizon: 2000, Bias: AutoBias},
			mttdl: [3]uint64{0x409e9a5d605ceb12, 0x409d36f9149ec7eb, 0x409ffdc1ac1b0e39},
			loss:  [3]uint64{0x3fa56a7cd0f56237, 0x3fa2d347b439c58e, 0x3fa801b1edb0fee0},
			cens:  236, losses: 164,
			maxTime: 0x409f400000000000, rm: 0x409889ab13c12590, surv: 0x3fe88f5c28f5c292,
		},
		{
			name: "auto-bias-alpha-0.5", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Correlation = faults.AlphaCorrelation{Factor: 0.5} }),
			opt:   Options{Trials: 400, Seed: 10, Horizon: 2000, Bias: AutoBias},
			mttdl: [3]uint64{0x4097b4e936ecef02, 0x40967b6c20a4913b, 0x4098ee664d354cc9},
			loss:  [3]uint64{0x3fdd47ae147ae148, 0x3fda26c84a12fc5a, 0x3fe03449ef71631b},
			cens:  217, losses: 183,
			maxTime: 0x409f400000000000, rm: 0x4097b4e936ecef02, surv: 0x3fe7d70a3d70a3db,
		},
		{
			name: "shocks", cfg: withGolden(goldenMirror, func(c *Config) {
				c.Shocks = []faults.Shock{{Name: "power", Mean: 5000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 0.5}}
			}),
			opt:   Options{Trials: 300, Seed: 11, Horizon: 20000},
			mttdl: [3]uint64{0x40c3eaa7f81dcdcb, 0x40c28afed6e72758, 0x40c54a511954743e},
			loss:  [3]uint64{0x3fe9111111111111, 0x3fe7771ce8546e68, 0x3fea70547e7dd676},
			cens:  65, losses: 235,
			maxTime: 0x40d3880000000000, rm: 0x40c3eaa7f81dcdcb, surv: 0x3fdd3a06d3a06d4c,
		},
		{
			name: "audit-wear", cfg: withGolden(goldenLatent, func(c *Config) {
				c.AuditLatentFaultProb = 0.02
				c.AuditVisibleFaultProb = 0.005
			}),
			opt:   Options{Trials: 300, Seed: 12, Horizon: 30000},
			mttdl: [3]uint64{0x40b6e51c3e49618f, 0x40b462232d3da2d1, 0x40b968154f55204d},
			loss:  [3]uint64{0x3fefc962fc962fc9, 0x3fef3b935d034a40, 0x3feff101e694fd76},
			cens:  2, losses: 298,
			maxTime: 0x40dd4c0000000000, rm: 0x40b6e51c3e49618f, surv: 0x3fb7e4b17e4b17ee,
		},
		{
			name: "access-detect", cfg: withGolden(goldenLatent, func(c *Config) {
				c.Scrub = scrub.Periodic{Interval: 500}
				c.AccessDetect = scrub.OnAccess{RatePerHour: 0.01, Coverage: 0.5}
			}),
			opt:   Options{Trials: 300, Seed: 13, Horizon: 30000},
			mttdl: [3]uint64{0x40b303cf76d0ea04, 0x40b131361bc3fc9d, 0x40b4d668d1ddd76b},
			loss:  [3]uint64{0x3fefc962fc962fc9, 0x3fef3b935d034a40, 0x3feff101e694fd76},
			cens:  2, losses: 298,
			maxTime: 0x40dd4c0000000000, rm: 0x40b303cf76d0ea04, surv: 0x3f9eb851eb851ec3,
		},
		{
			name: "weibull", cfg: withGolden(goldenWithLatent, func(c *Config) { c.Hazard = faults.WeibullHazard{Shape: 1.5, Scale: 20000} }),
			opt:   Options{Trials: 300, Seed: 14, Horizon: 20000},
			mttdl: [3]uint64{0x40c2ac3379398817, 0x40c1a2d0673ee508, 0x40c3b5968b342b26},
			loss:  [3]uint64{0x3fef40da740da741, 0x3fee7bedc60b8b2b, 0x3fefa30a3b4421e9},
			cens:  7, losses: 293,
			maxTime: 0x40d3880000000000, rm: 0x40c2ac3379398817, surv: 0x3fda3d70a3d70a4a,
		},
		{
			name: "everything", cfg: goldenEverything,
			opt:   Options{Trials: 300, Seed: 15, Horizon: 50000},
			mttdl: [3]uint64{0x40bb6925356b9b25, 0x40b858d10872b8b8, 0x40be797962647d92},
			loss:  [3]uint64{0x3ff0000000000000, 0x3fef986dc4821f2c, 0x3feffffffffffffe},
			cens:  0, losses: 300,
			maxTime: 0x40e414916c0c967f, rm: 0x40bb6925356b9b2f, surv: 0x3f9b4e81b4e81b58,
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
// either change; both must leave every bit below unmoved.
func profileGoldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "weibull-norm-1", cfg: goldenAged(normalizedWeibull(1)),
			opt:   Options{Trials: 200, Seed: 21, Horizon: agedHorizon},
			mttdl: [3]uint64{0x41185dab55929f64, 0x41159c8b6788a242, 0x411b1ecb439c9c86},
			loss:  [3]uint64{0x3fc6666666666666, 0x3fc076223218c7a1, 0x3fcde80e8a5b5b8f},
			cens:  165, losses: 35,
			maxTime: 0x411ac07000000000, rm: 0x41185dab55929f64, surv: 0x3fed1eb851eb851f,
		},
		{
			name: "weibull-norm-1.5", cfg: goldenAged(normalizedWeibull(1.5)),
			opt:   Options{Trials: 200, Seed: 22, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4118b50d17a41369, 0x4116ee553b577e2b, 0x411a7bc4f3f0a8a7},
			loss:  [3]uint64{0x3fcb851eb851eb85, 0x3fc4f4bc856fb451, 0x3fd1babefc381da4},
			cens:  157, losses: 43,
			maxTime: 0x411ac07000000000, rm: 0x4118b50d17a41369, surv: 0x3fee147ae147ae14,
		},
		{
			name: "weibull-norm-2", cfg: goldenAged(normalizedWeibull(2)),
			opt:   Options{Trials: 200, Seed: 23, Horizon: agedHorizon},
			mttdl: [3]uint64{0x41193cd677f95ea3, 0x4117df4a6c0972d1, 0x411a9a6283e94a75},
			loss:  [3]uint64{0x3fd0a3d70a3d70a4, 0x3fca21342e8bb7df, 0x3fd4cb48a476bed9},
			cens:  148, losses: 52,
			maxTime: 0x411ac07000000000, rm: 0x41193cd677f95ea3, surv: 0x3fef0a3d70a3d70a,
		},
		{
			name: "weibull-norm-3", cfg: goldenAged(normalizedWeibull(3)),
			opt:   Options{Trials: 200, Seed: 24, Horizon: agedHorizon},
			mttdl: [3]uint64{0x41195c52349f00db, 0x4118a56f36feef0c, 0x411a1335323f12aa},
			loss:  [3]uint64{0x3fd947ae147ae148, 0x3fd51c1d77d96698, 0x3fddb415ba491d20},
			cens:  121, losses: 79,
			maxTime: 0x411ac07000000000, rm: 0x41195c52349f00db, surv: 0x3ff0000000000000,
		},
		{
			name: "weibull-norm-2.5", cfg: goldenAged(normalizedWeibull(2.5)),
			opt:   Options{Trials: 200, Seed: 25, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4119249504c2d9ec, 0x41181b63494e55d4, 0x411a2dc6c0375e04},
			loss:  [3]uint64{0x3fd47ae147ae147b, 0x3fd097cd9fb8b28b, 0x3fd8cd1c6d14c18b},
			cens:  136, losses: 64,
			maxTime: 0x411ac07000000000, rm: 0x4119249504c2d9ec, surv: 0x3fef5c28f5c28f5c,
		},
		{
			name: "constant", cfg: goldenAged(func(*testing.T) faults.Hazard { return faults.ConstantHazard{Factor: 1.5} }),
			opt:   Options{Trials: 200, Seed: 26, Horizon: agedHorizon},
			mttdl: [3]uint64{0x4114504872d59d5a, 0x4112b743c4a6230a, 0x4115e94d210517aa},
			loss:  [3]uint64{0x3fdbd70a3d70a3d7, 0x3fd78fe372881151, 0x3fe0232a50282c4e},
			cens:  113, losses: 87,
			maxTime: 0x411ac07000000000, rm: 0x4114504872d59d5a, surv: 0x3fe7d70a3d70a3d6,
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
			mttdl: [3]uint64{0x41118f75d71e903f, 0x411094e0caf6405a, 0x41128a0ae346e024},
			loss:  [3]uint64{0x3fed99999999999a, 0x3fec289a4d7e1f7e, 0x3fee875f9c483778},
			cens:  15, losses: 185,
			maxTime: 0x411ac07000000000, rm: 0x41118f75d71e903f, surv: 0x3fea8f5c28f5c28f,
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
			mttdl: [3]uint64{0x40c4916493ac52f4, 0x40c370131ceedecd, 0x40c5b2b60a69c71b},
			loss:  [3]uint64{0x0, 0x0, 0x0},
			cens:  0, losses: 200,
			maxTime: 0x40d580fbb9102445, rm: 0x0, surv: 0x3ff0000000000000,
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
	checkTrialResult(t, r.RunTrial(3, 7, 0), true, 0x40a3a3cf62cf2b0a, faults.Latent, faults.Latent, 0x3ff0000000000000,
		TrialStats{VisibleFaults: 14, LatentFaults: 8, Detections: 6, Repairs: 19, Audits: 36, ShockEvents: 1, AuditInduced: 2, WOVOpenedByVis: 10, WOVOpenedByLat: 7})
}

// TestGoldenTraceTrial pins one TraceTrial of goldenEverything: its
// result and a digest of every event, audit passes included.
func TestGoldenTraceTrial(t *testing.T) {
	tr, err := TraceTrial(goldenEverything(t), 4, 50000)
	if err != nil {
		t.Fatal(err)
	}
	checkTrialResult(t, tr.Result, true, 0x40d0774f7ec2d7c0, faults.Latent, faults.Visible, 0x3ff0000000000000,
		TrialStats{VisibleFaults: 45, LatentFaults: 44, Detections: 43, Repairs: 79, Audits: 252, ShockEvents: 5, AuditInduced: 13, WOVOpenedByVis: 26, WOVOpenedByLat: 34})
	if n, d := len(tr.Events), traceDigest(tr.Events); n != 544 || d != 0x2f292954cc3cdf96 {
		t.Errorf("%d events, digest %#x; want 544, 0x2f292954cc3cdf96", n, d)
	}
}
