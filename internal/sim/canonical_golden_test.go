package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/storage"
)

// canonWeibull4Golden is the full canonical string of the 4-replica
// uniform Weibull case below. The "/inverse" tag joined it when Weibull
// draws moved from thinning to inversion (TestWeibullKeysFollowTheSampler).
const canonWeibull4Golden = `sim.Config/v1{replicas:4,minIntact:1,specs:[sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard/inverse{Shape:1.5,Scale:200000}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard/inverse{Shape:1.5,Scale:200000}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard/inverse{Shape:1.5,Scale:200000}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard/inverse{Shape:1.5,Scale:200000}}],correlation:faults.Independent{},shocks:[],auditLatent:0,auditVisible:0}sim.Options/v1{trials:500,horizon:438000,seed:7,level:0.95}`

// canonGoldenCase is one configuration of the canonical golden corpus.
type canonGoldenCase struct {
	name string
	cfg  sim.Config
	opt  sim.Options
	sum  string // hex SHA-256 of Canonical(cfg, opt)
}

// canonGoldenCorpus builds the corpus. Every value is a literal or a
// pure constructor call, so the configurations cannot drift with the
// code under test; the pinned digests were captured from the reflective
// string-builder encoder the append-only encoder replaced, except the
// three Weibull entries, re-captured when Weibull draws moved from
// thinning to inversion (TestWeibullKeysFollowTheSampler), and
// hazard/normalized-at-bound, added when normalizing over a horizon on
// a segment bound stopped charging that segment at the next one's
// factor (TestNormalizedAtBoundKey).
func canonGoldenCorpus(t *testing.T) []canonGoldenCase {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	paper := func(replicas int) sim.Config {
		cfg, err := sim.PaperConfig(3, 1)
		must(err)
		cfg.Replicas = replicas
		return cfg
	}
	opt := sim.Options{Trials: 1000, Seed: 1}
	horizonOpt := sim.Options{Trials: 500, Seed: 7, Horizon: 50 * 8760}

	weibull, err := faults.NewWeibullHazard(1.5, 200000)
	must(err)
	normWeibull, err := faults.Normalize(weibull, 438300)
	must(err)
	bathtub, err := aging.Bathtub(2000, 3, 12000, 6)
	must(err)
	bathtubAtBound, err := faults.Normalize(bathtub, 12000)
	must(err)
	constant, err := faults.NewConstantHazard(2)
	must(err)
	piecewise, err := faults.NewPiecewiseHazard([]float64{1000, 5000}, []float64{3, 1, 0.5})
	must(err)

	fleet, err := storage.FleetConfig(
		mustTier(t, "consumer", 12), mustTier(t, "enterprise", 3), mustTier(t, "tape", 0))
	must(err)

	partial := paper(2)
	partial.Specs = make([]sim.ReplicaSpec, 2)
	partial.Specs[0].VisibleMean = partial.VisibleMean

	perReplica := paper(4)
	perReplica.Specs = []sim.ReplicaSpec{
		{Hazard: constant}, {Hazard: bathtub}, {Hazard: weibull}, {Hazard: normWeibull},
	}

	shocks := paper(3)
	shocks.Shocks = []faults.Shock{
		{Name: "power", Kind: faults.Visible, Mean: 1e6, Targets: []int{0, 1}, HitProb: 1},
		{Name: "admin", Kind: faults.Latent, Mean: 5e5, Targets: []int{1, 2}, HitProb: 0.5},
	}

	access := paper(2)
	onAccess, err := scrub.NewOnAccess(0.01, 0.5)
	must(err)
	access.AccessDetect = onAccess

	operator := paper(2)
	operator.Repair.OperatorDelay = rng.Deterministic{Value: 48}
	operator.Repair.BugLatentProb = 0.001

	combined := paper(2)
	combined.Scrub = scrub.Combined{Parts: []scrub.Strategy{scrub.Periodic{Interval: 2920}, onAccess}}

	mixture := paper(2)
	mix, err := rng.NewMixture([]float64{0.9, 0.1},
		[]rng.Sampler{rng.Deterministic{Value: 0.5}, rng.Scaled{Factor: 4, Base: rng.Exponential{MeanValue: 2}}})
	must(err)
	emp, err := rng.NewEmpirical([]float64{1, 2.5, 7})
	must(err)
	mixture.Repair.Visible = mix
	mixture.Repair.OperatorDelay = emp

	poisson := paper(2)
	ps, err := scrub.NewPoisson(4)
	must(err)
	poisson.Scrub = ps
	poisson.Correlation = faults.AlphaCorrelation{Factor: 0.5}

	minIntact0 := paper(3)
	minIntact1 := paper(3)
	minIntact1.MinIntact = 1
	erasure := paper(4)
	erasure.MinIntact = 2

	audits := paper(2)
	audits.AuditLatentFaultProb = 0.01
	audits.AuditVisibleFaultProb = 0.001

	infMeans := paper(2)
	infMeans.LatentMean = math.Inf(1)
	infSpec := paper(2)
	infSpec.Specs = []sim.ReplicaSpec{{VisibleMean: math.Inf(1)}, {Label: "site-B"}}

	rep, err := repair.Automated(model.PaperMRV, model.PaperMRL, 0)
	must(err)
	rare := sim.Config{Replicas: 2, VisibleMean: 1e5, LatentMean: 2e4,
		Scrub: scrub.Periodic{Interval: 2920}, Repair: rep, Correlation: faults.Independent{}}
	adaptive := sim.Options{Trials: 100, Seed: 3, TargetRelWidth: 0.05, MaxTrials: 50000, BatchSize: 128}
	autoBias := horizonOpt
	autoBias.Bias = sim.AutoBias
	explicitBias := horizonOpt
	explicitBias.Bias = 40
	level := opt
	level.Level = 0.95
	level99 := opt
	level99.Level = 0.99

	withHazard := func(replicas int, h faults.Hazard) sim.Config {
		cfg := paper(replicas)
		cfg.Hazard = h
		return cfg
	}

	return []canonGoldenCase{
		{"uniform/1", paper(1), opt,
			"16ef965054c542800ff92a0ca5fb6e8d8bf9fc4e56143c5a7834369e82f6b76f"},
		{"uniform/2", paper(2), opt,
			"4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520"},
		{"uniform/4", paper(4), opt,
			"ac5a8a0bb448ffc59f34777f7aaf8c2d055c524606fc198c04334f5afabb19e9"},
		{"uniform/7", paper(7), opt,
			"798ca234283d9a217f27fc8c9b14d126f293e61ea8f63a97c03728652182484b"},
		{"fleet/tiers", fleet, opt,
			"94c68b27fab152d4e515ea1e6b3994ee50b22a1c8461596cf651903d5d4832c7"},
		{"fleet/partial-override", partial, opt,
			"4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520"},
		{"hazard/constant", withHazard(2, constant), horizonOpt,
			"199810e1eed1e0cbcd4fbce8abce3c4169538999c0ce7ff1a95e7f8d2b8893a4"},
		{"hazard/bathtub", withHazard(3, bathtub), horizonOpt,
			"ea08ec9ba8d6ed8f580c2158058bb9b276a61400fb0b6709c271d50406046386"},
		{"hazard/piecewise", withHazard(2, piecewise), horizonOpt,
			"4a55218d087e1d3195b32218f5b0e3d525de8183b6ef173ca9f769f690d0cec1"},
		{"hazard/weibull-4", withHazard(4, weibull), horizonOpt,
			"2885a992feee0cd34fac8e9714148758cacab55a4991e114cef9f4b6f486f629"},
		{"hazard/normalized", withHazard(2, normWeibull), horizonOpt,
			"54889188036ad9027f09cfe9e16de2300e247bec5bfe19614f0f77e23459ea66"},
		{"hazard/normalized-at-bound", withHazard(2, bathtubAtBound), horizonOpt,
			"9c7099de7b9d94946ec5c47d059317650cfd22b9f4794e3dde0fb31f19564b61"},
		{"hazard/per-replica", perReplica, horizonOpt,
			"5326e49d92bb896f0e43318022b939d90ef62b0715404536c97604d74714b226"},
		{"shocks", shocks, opt,
			"d41dd8285254a4ab4388cb22c9c1dc2cd910662983ff97264a5e2f473b39b5b4"},
		{"access-detect", access, opt,
			"9b33adcc88af7c2d251ffc868d9617d972661686b53a267fd68c960e4948d535"},
		{"operator-delay-bug", operator, opt,
			"f0b67c00d32810a6297725c38622fbf6113f976e121a219538d6796e4e23b722"},
		{"scrub/combined", combined, opt,
			"bdeac9cf3b73fc03b6a83bbd93c80135a8491afa944cf920eaa443fd79e3dbec"},
		{"repair/mixture-empirical", mixture, opt,
			"25fc972da4b50f1964a7a47995eed9f0dbe13afa00f3729f960336c56c1a0aab"},
		{"poisson-scrub-alpha", poisson, opt,
			"1b5f917e368a7baed129bb09cd110ad3beb8b2d8152a8028c37c6250b46147c0"},
		{"min-intact/0", minIntact0, opt,
			"82168b17342b2ceea7dcc91bb81b27a7f593133e0f71435cc56e510016d43eb2"},
		{"min-intact/1", minIntact1, opt,
			"82168b17342b2ceea7dcc91bb81b27a7f593133e0f71435cc56e510016d43eb2"},
		{"min-intact/erasure", erasure, opt,
			"c8f462cbb35fd9f0e6808ff7efa3a738fc862d8efaa604b85dabf2b040c89d63"},
		{"audit-side-effects", audits, opt,
			"01a09335fec6bcbc5952e4c746c25062845b3e88aae53dd5ee15327710be2cc5"},
		{"inf-mean/scalar", infMeans, opt,
			"b1364f91d51e8b1714a00cf5aa9330b2469f913c4f9d5f3a2b38d16ba00d8293"},
		{"inf-mean/spec", infSpec, opt,
			"1d2233b339385f71e3ab5fcf8121cce528fc951ed743c5298589560e7fcd6b1b"},
		{"options/adaptive", rare, adaptive,
			"1d7d5608eed345e56a35f77a6b79108761a47c81e8e79c9c248190242c79fe97"},
		{"options/auto-bias", rare, autoBias,
			"72ca230b844bc50706ef267daba5429abd15de9155b8c291e2b0e0631609829b"},
		{"options/explicit-bias", rare, explicitBias,
			"6dc27b1bccb81b1d5500c2c524b4a9100fd20822dc3362a1ac9b23995d2bb182"},
		{"options/default-level", paper(2), level,
			"4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520"},
		{"options/level-99", paper(2), level99,
			"31bbb39d4f02c411e502fbb3755d4934d42c9cc187a195ebebd2cddea3174dc6"},
	}
}

func mustTier(t *testing.T, name string, scrubs float64) storage.Spec {
	t.Helper()
	s, ok := storage.TierSpec(name, scrubs)
	if !ok {
		t.Fatalf("unknown tier %q", name)
	}
	return s
}

// TestCanonicalGoldenCorpus pins the canonical form of a corpus that
// touches every encoder path — uniform and explicit fleets, every hazard
// kind scalar and per replica, shocks, access detection, operator
// delays, every option shape — to SHA-256 digests captured before the
// encoder was rewritten. The canonical form is the persistent disk-store
// address, so any drift here orphans stored results.
func TestCanonicalGoldenCorpus(t *testing.T) {
	for _, c := range canonGoldenCorpus(t) {
		s, err := sim.Canonical(c.cfg, c.opt)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sum := sha256.Sum256([]byte(s))
		got := hex.EncodeToString(sum[:])
		if got != c.sum {
			t.Errorf("%s: canonical digest %s, want %s\n%s", c.name, got, c.sum, s)
		}
		fp, err := sim.Fingerprint(c.cfg, c.opt)
		if err != nil || fp != got {
			t.Errorf("%s: Fingerprint = %s, %v; want the digest of Canonical %s", c.name, fp, err, got)
		}
		if c.name == "hazard/weibull-4" && s != canonWeibull4Golden {
			t.Errorf("4-replica Weibull canonical string drifted:\n got %s\nwant %s", s, canonWeibull4Golden)
		}
	}
}

// TestNormalizedAtBoundKey: E17's bathtub normalized over a horizon
// exactly on its wear-out bound resolves to the factor 1/(16000/12000),
// not the 1/5.5 that charged the useful-life segment at the wear-out
// factor. The canonical form encodes the resolved factor, so the
// corrected key moves by itself, and the old resolution keeps the key
// it had: the one the build that made the mistake gave this body, and
// answered with the same sampler.
func TestNormalizedAtBoundKey(t *testing.T) {
	const oldSum = "feed2d131f278eca3ae62b2c4b0eaac26e421cee58fb79776b19fe672d4bdf36"
	bathtub, err := aging.Bathtub(2000, 3, 12000, 6)
	if err != nil {
		t.Fatal(err)
	}
	n, err := faults.Normalize(bathtub, 12000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Factor-0.75) > 1e-15 {
		t.Errorf("normalized at the bound: factor %v, want 0.75", n.Factor)
	}
	cfg, err := sim.PaperConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replicas = 2
	cfg.Hazard = faults.ScaledHazard{Base: bathtub, Factor: 1 / 5.5}
	old, err := sim.Fingerprint(cfg, sim.Options{Trials: 500, Seed: 7, Horizon: 50 * 8760})
	if err != nil {
		t.Fatal(err)
	}
	if old != oldSum {
		t.Errorf("the old resolution keys to %s, want %s", old, oldSum)
	}
	found := false
	for _, c := range canonGoldenCorpus(t) {
		if c.name == "hazard/normalized-at-bound" {
			found = true
			if c.sum == old {
				t.Errorf("the corrected key is the old resolution's %s", old)
			}
		}
	}
	if !found {
		t.Error("no hazard/normalized-at-bound case in the corpus")
	}
}

// parentWeibullSums are the corpus's Weibull digests before Weibull
// draws moved from thinning to inversion: the keys a disk store or a
// worker of that build holds.
var parentWeibullSums = map[string]string{
	"hazard/weibull-4":   "17d38d7c12a40c2edd584eacf61e9c049b3403b5a93a04971add1f01d1d64120",
	"hazard/normalized":  "b67a8eba9c9f76c9364dd41e0317f7374cfe7d967054c677db4f097d1a8b06e5",
	"hazard/per-replica": "57b054e034e699a00772c698fa08b11753fc928b806aab318076615f0c491edb",
}

// TestWeibullKeysFollowTheSampler: a configuration with a Weibull
// profile, bare, normalized or beside other profiles, must key
// differently from the build that sampled Weibull profiles by thinning,
// and differ only by the "/inverse" tag on the profile's type name;
// every other configuration of the corpus, unprofiled, constant and
// piecewise among them, must keep the digest that build gave it.
func TestWeibullKeysFollowTheSampler(t *testing.T) {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	weibull := 0
	for _, c := range canonGoldenCorpus(t) {
		s, err := sim.Canonical(c.cfg, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		parent, ok := parentWeibullSums[c.name]
		if !strings.Contains(s, "WeibullHazard") {
			if ok || digest(s) != c.sum {
				t.Errorf("%s: no Weibull profile, but the key moved from %s to %s", c.name, c.sum, digest(s))
			}
			continue
		}
		weibull++
		switch {
		case !ok:
			t.Errorf("%s: a Weibull key with no parent digest", c.name)
		case digest(s) == parent:
			t.Errorf("%s: the Weibull key %s is still the thinning build's", c.name, parent)
		case digest(strings.ReplaceAll(s, "faults.WeibullHazard/inverse{", "faults.WeibullHazard{")) != parent:
			t.Errorf("%s: the key differs from the thinning build's by more than the tag", c.name)
		}
	}
	if weibull != len(parentWeibullSums) {
		t.Errorf("%d Weibull cases in the corpus, want %d", weibull, len(parentWeibullSums))
	}
}
