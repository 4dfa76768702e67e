package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
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
// uniform Weibull case below, draw-layout marker first.
const canonWeibull4Golden = `draws/v2;sim.Config/v1{replicas:4,minIntact:1,specs:[sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard{Shape:1.5,Scale:200000}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard{Shape:1.5,Scale:200000}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard{Shape:1.5,Scale:200000}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0},Hazard:faults.WeibullHazard{Shape:1.5,Scale:200000}}],correlation:faults.Independent{},shocks:[],auditLatent:0,auditVisible:0}sim.Options/v1{trials:500,horizon:438000,seed:7,level:0.95}`

// canonGoldenCase is one configuration of the canonical golden corpus.
type canonGoldenCase struct {
	name string
	cfg  sim.Config
	opt  sim.Options
	sum  string // hex SHA-256 of Canonical(cfg, opt)
}

// canonGoldenCorpus builds the corpus. Every value is a literal or a
// pure constructor call, so the configurations cannot drift with the
// code under test. The pinned digests were re-captured, every one, when
// the draw layout moved to version 2 (TestKeysMoveOnce); before that
// they were the digests of the earlier layout's builds, listed in
// layout1Sums.
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
			"3dcad9e266eb81136a6f88cb9c14d9ad05e3897b382c10b3daf99e471f543c27"},
		{"uniform/2", paper(2), opt,
			"6358d8afa287ac5afc4eeade2c3d9062cde3bf5f2829e3eece22c4d975a2efe1"},
		{"uniform/4", paper(4), opt,
			"067a8d4669d5885a59c5504c0a7dbb6af731b7ab78bf489fd2491d829743b81f"},
		{"uniform/7", paper(7), opt,
			"bca3e664b39f68c142a8f93b5268e9f0822d78b971b389e029c493a6e96ca78f"},
		{"fleet/tiers", fleet, opt,
			"f36f5108f0e6e039f6b102f9b74cac4e31da3ba74987596fa2e716fb67373c73"},
		{"fleet/partial-override", partial, opt,
			"6358d8afa287ac5afc4eeade2c3d9062cde3bf5f2829e3eece22c4d975a2efe1"},
		{"hazard/constant", withHazard(2, constant), horizonOpt,
			"407b090ffea0d419401a1e21202c8db0ae8a81a00eaf719c5f24203d4099821d"},
		{"hazard/bathtub", withHazard(3, bathtub), horizonOpt,
			"8334ba23cd1d62b984a426a5f5d9e1a73e14837c70829e3e886fd705e72c65af"},
		{"hazard/piecewise", withHazard(2, piecewise), horizonOpt,
			"051b3865afa8d4a35abb7934b8e0ea9c10289548d4bad2d60010e20fccec19fb"},
		{"hazard/weibull-4", withHazard(4, weibull), horizonOpt,
			"3a12c0f3816c9ce6a319b27d6b55cb18578f30eba0c1771018cffa539531d518"},
		{"hazard/normalized", withHazard(2, normWeibull), horizonOpt,
			"649ec65fae41b8157b2b2a3251159c939cd8d77127890f39936463961edabe4d"},
		{"hazard/normalized-at-bound", withHazard(2, bathtubAtBound), horizonOpt,
			"69fa912e1fb684345c9e6b81de6848a83840e6fe16ad9342e2f50d290d69b1c5"},
		{"hazard/per-replica", perReplica, horizonOpt,
			"92b376fb2aec025e0e0e2c98b6909cfd6a88ca5613b582d5b5879b90b2cac661"},
		{"shocks", shocks, opt,
			"a53df2a09e1141fedd2f62a4278ba94fd098ee70d474e628e3350d03acbc51c9"},
		{"access-detect", access, opt,
			"923b8bcb1aa1e391dd9f4a2441c4430fd4664324888dac6c1c7a74138045dbab"},
		{"operator-delay-bug", operator, opt,
			"71e5a53cea42d954fbddaef22eb4b57569859f0a2e37c82152e0d459d945a27e"},
		{"scrub/combined", combined, opt,
			"f932c349c0cc3b6bd9974aadeabc43db45e0c698ef24c610605cba4814bbcc24"},
		{"repair/mixture-empirical", mixture, opt,
			"7283daa4373cbd1648f9337feced4670b1d6afbe99f13be4bf5005da421c43ef"},
		{"poisson-scrub-alpha", poisson, opt,
			"e4bbc716840bdabc2e621646857f1de96eb047a52dcb8883225175aa1d5cd934"},
		{"min-intact/0", minIntact0, opt,
			"fdd366e5856aea93a193963922a145f5c5b9440a9cb81bf8356c6815e3e91620"},
		{"min-intact/1", minIntact1, opt,
			"fdd366e5856aea93a193963922a145f5c5b9440a9cb81bf8356c6815e3e91620"},
		{"min-intact/erasure", erasure, opt,
			"b8a1b1dc3320040c8b4558925107a1b23b3763350adc391906db2b6889b44ca5"},
		{"audit-side-effects", audits, opt,
			"bdd7c93e75482fe4773eff37f9a49e37a3e70103f3eed3335f76e685bd61ad46"},
		{"inf-mean/scalar", infMeans, opt,
			"997be8745088a2b1c202e86364e14db3dd6f908e7aa5937f5824045fd42b3338"},
		{"inf-mean/spec", infSpec, opt,
			"8ed9a6345ccdf93e8a07c56559606cc2e9f27438a7e32574215a6414d7e43787"},
		{"options/adaptive", rare, adaptive,
			"da50c4698b8d1d8f9b003656ad07c9b2d49e29d4569f3c103e58939c15765b42"},
		{"options/auto-bias", rare, autoBias,
			"d3697269b30dcb4c929d65c70e7cfa48a65e40a09a3d1592a02646bc37359630"},
		{"options/explicit-bias", rare, explicitBias,
			"bb4f5b10abd8e8e8a3bcf4ce8d3137873a2c0745d052efe1c934eb0dfb6d0203"},
		{"options/default-level", paper(2), level,
			"6358d8afa287ac5afc4eeade2c3d9062cde3bf5f2829e3eece22c4d975a2efe1"},
		{"options/level-99", paper(2), level99,
			"0dcf52a8782203de472209fca1319f7dfbf92b71de72d2cf43971f58e0d50a28"},
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
// corrected key and the key of the old resolution differ. Both were
// re-pinned when every key moved with draw layout 2
// (TestKeysMoveOnce); under layout 1 the old resolution keyed to
// feed2d131f278eca3ae62b2c4b0eaac26e421cee58fb79776b19fe672d4bdf36.
func TestNormalizedAtBoundKey(t *testing.T) {
	const oldSum = "afbae670a9698b9616c0573926769f2d2c41faae1c509e71e20677c88ac5d850"
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

// layout1Sums are the corpus's digests under draw layout 1 (an
// exponential was −ln u, and one stream per replica served its fault
// arrivals and repairs): the keys a disk store or a worker of such a
// build holds.
var layout1Sums = map[string]string{
	"uniform/1":                  "16ef965054c542800ff92a0ca5fb6e8d8bf9fc4e56143c5a7834369e82f6b76f",
	"uniform/2":                  "4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520",
	"uniform/4":                  "ac5a8a0bb448ffc59f34777f7aaf8c2d055c524606fc198c04334f5afabb19e9",
	"uniform/7":                  "798ca234283d9a217f27fc8c9b14d126f293e61ea8f63a97c03728652182484b",
	"fleet/tiers":                "94c68b27fab152d4e515ea1e6b3994ee50b22a1c8461596cf651903d5d4832c7",
	"fleet/partial-override":     "4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520",
	"hazard/constant":            "199810e1eed1e0cbcd4fbce8abce3c4169538999c0ce7ff1a95e7f8d2b8893a4",
	"hazard/bathtub":             "ea08ec9ba8d6ed8f580c2158058bb9b276a61400fb0b6709c271d50406046386",
	"hazard/piecewise":           "4a55218d087e1d3195b32218f5b0e3d525de8183b6ef173ca9f769f690d0cec1",
	"hazard/weibull-4":           "2885a992feee0cd34fac8e9714148758cacab55a4991e114cef9f4b6f486f629",
	"hazard/normalized":          "54889188036ad9027f09cfe9e16de2300e247bec5bfe19614f0f77e23459ea66",
	"hazard/normalized-at-bound": "9c7099de7b9d94946ec5c47d059317650cfd22b9f4794e3dde0fb31f19564b61",
	"hazard/per-replica":         "5326e49d92bb896f0e43318022b939d90ef62b0715404536c97604d74714b226",
	"shocks":                     "d41dd8285254a4ab4388cb22c9c1dc2cd910662983ff97264a5e2f473b39b5b4",
	"access-detect":              "9b33adcc88af7c2d251ffc868d9617d972661686b53a267fd68c960e4948d535",
	"operator-delay-bug":         "f0b67c00d32810a6297725c38622fbf6113f976e121a219538d6796e4e23b722",
	"scrub/combined":             "bdeac9cf3b73fc03b6a83bbd93c80135a8491afa944cf920eaa443fd79e3dbec",
	"repair/mixture-empirical":   "25fc972da4b50f1964a7a47995eed9f0dbe13afa00f3729f960336c56c1a0aab",
	"poisson-scrub-alpha":        "1b5f917e368a7baed129bb09cd110ad3beb8b2d8152a8028c37c6250b46147c0",
	"min-intact/0":               "82168b17342b2ceea7dcc91bb81b27a7f593133e0f71435cc56e510016d43eb2",
	"min-intact/1":               "82168b17342b2ceea7dcc91bb81b27a7f593133e0f71435cc56e510016d43eb2",
	"min-intact/erasure":         "c8f462cbb35fd9f0e6808ff7efa3a738fc862d8efaa604b85dabf2b040c89d63",
	"audit-side-effects":         "01a09335fec6bcbc5952e4c746c25062845b3e88aae53dd5ee15327710be2cc5",
	"inf-mean/scalar":            "b1364f91d51e8b1714a00cf5aa9330b2469f913c4f9d5f3a2b38d16ba00d8293",
	"inf-mean/spec":              "1d2233b339385f71e3ab5fcf8121cce528fc951ed743c5298589560e7fcd6b1b",
	"options/adaptive":           "1d7d5608eed345e56a35f77a6b79108761a47c81e8e79c9c248190242c79fe97",
	"options/auto-bias":          "72ca230b844bc50706ef267daba5429abd15de9155b8c291e2b0e0631609829b",
	"options/explicit-bias":      "6dc27b1bccb81b1d5500c2c524b4a9100fd20822dc3362a1ac9b23995d2bb182",
	"options/default-level":      "4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520",
	"options/level-99":           "31bbb39d4f02c411e502fbb3755d4934d42c9cc187a195ebebd2cddea3174dc6",
}

// TestKeysMoveOnce: every key of the corpus moved with draw layout 2, so
// no store entry or worker of a layout-1 build answers one. Each
// canonical string differs from its layout-1 string only by the
// "draws/v2;" marker in front and by the "/inverse" tag layout 1 put on
// faults.WeibullHazard's name, which the marker replaces; the
// normalized Weibull profiles differ too by their factor, which layout 2
// resolves through Λ(0, h)/h where layout 1 took the closed form
// (h/Scale)^(Shape−1).
func TestKeysMoveOnce(t *testing.T) {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	oldFactor := strconv.FormatFloat(1/math.Pow(438300.0/200000, 0.5), 'g', -1, 64)
	for _, c := range canonGoldenCorpus(t) {
		s, err := sim.Canonical(c.cfg, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		old, ok := layout1Sums[c.name]
		if !ok {
			t.Errorf("%s: no layout-1 digest", c.name)
			continue
		}
		if digest(s) == old {
			t.Errorf("%s: the key %s is still layout 1's", c.name, old)
		}
		rest, ok := strings.CutPrefix(s, "draws/v2;")
		if !ok {
			t.Errorf("%s: no layout marker in front of %.40q", c.name, s)
			continue
		}
		layout1 := strings.ReplaceAll(rest, "faults.WeibullHazard{", "faults.WeibullHazard/inverse{")
		if strings.Contains(c.name, "normalized") && !strings.Contains(c.name, "at-bound") || c.name == "hazard/per-replica" {
			const weibull = "faults.WeibullHazard/inverse{Shape:1.5,Scale:200000},Factor:"
			factor := strings.Index(layout1, weibull)
			if factor < 0 {
				t.Errorf("%s: no normalized Weibull profile", c.name)
				continue
			}
			factor += len(weibull)
			moved := layout1[factor : factor+strings.IndexByte(layout1[factor:], '}')]
			if moved == oldFactor {
				t.Errorf("%s: the normalized factor is still layout 1's %s", c.name, oldFactor)
			}
			layout1 = strings.ReplaceAll(layout1, weibull+moved+"}", weibull+oldFactor+"}")
		}
		if digest(layout1) != old {
			t.Errorf("%s: the key differs from layout 1's by more than the marker, the tag and a normalized factor", c.name)
		}
	}
}
