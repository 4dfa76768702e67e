package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/scrub"
)

// canonPaperGolden is the canonical string of PaperConfig(3, 1) with
// Options{Trials: 1000, Seed: 1}, captured from the build immediately
// before ReplicaSpec gained its Hazard field. Unprofiled configs must
// keep producing exactly this string (and fingerprint) forever: the
// canonical form is the persistent disk-store key, so any drift silently
// orphans every cached result. The appendCanonical additive-field rule —
// nil faults.Hazard fields are omitted — is what this test pins.
const canonPaperGolden = `sim.Config/v1{replicas:2,minIntact:1,specs:[sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0}},sim.ReplicaSpec{Label:"",VisibleMean:1.4e+06,LatentMean:280000,Scrub:scrub.Periodic{Interval:2920,Offset:0},AccessDetect:nil,Repair:repair.Policy{Visible:rng.Deterministic{Value:0.3333333333333333},Latent:rng.Deterministic{Value:0.3333333333333333},OperatorDelay:nil,BugLatentProb:0}}],correlation:faults.Independent{},shocks:[],auditLatent:0,auditVisible:0}sim.Options/v1{trials:1000,horizon:0,seed:1,level:0.95}`

const canonPaperGoldenFP = "4b4591651b78b870bffbe159ad65eeedb990fead96c0c2ce7c81faddb64bc520"

func TestCanonicalNilHazardByteIdentical(t *testing.T) {
	cfg, err := PaperConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 1000, Seed: 1}
	s, err := Canonical(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s != canonPaperGolden {
		t.Errorf("nil-hazard canonical string drifted from the pre-hazard encoding:\n got %s\nwant %s", s, canonPaperGolden)
	}
	fp, err := Fingerprint(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fp != canonPaperGoldenFP {
		t.Errorf("nil-hazard fingerprint drifted: got %s, want %s", fp, canonPaperGoldenFP)
	}
}

func TestHazardFingerprintsDistinct(t *testing.T) {
	cfg, err := PaperConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 1000, Seed: 1}
	base, err := Fingerprint(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Even the dynamically-identical unit profile must fingerprint apart
	// from nil: a profiled run consumes randomness differently, so it is
	// a different result.
	unit := cfg
	unit.Hazard = faults.ConstantHazard{Factor: 1}
	fpUnit, err := Fingerprint(unit, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fpUnit == base {
		t.Errorf("ConstantHazard{1} collided with the nil-profile fingerprint")
	}

	weib := cfg
	weib.Hazard = faults.WeibullHazard{Shape: 2, Scale: 50000}
	fpWeib, err := Fingerprint(weib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fpWeib == base || fpWeib == fpUnit {
		t.Errorf("Weibull profile fingerprint collided (%s base=%s unit=%s)", fpWeib, base, fpUnit)
	}

	// Equal parameterizations collide, whether set on the config scalar
	// or expanded into explicit specs.
	expanded := Config{Specs: weib.ReplicaSpecs(), Correlation: weib.Correlation}
	fpExp, err := Fingerprint(expanded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fpExp != fpWeib {
		t.Errorf("scalar hazard and expanded-spec hazard fingerprint differently")
	}
}

// hazardMirror is a two-way mirror whose visible channel carries the
// given profile (nil for the plain constant process).
func hazardMirror(t *testing.T, h faults.Hazard) Config {
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
		Hazard:      h,
	}
}

func TestHazardEstimateParallelBitIdentity(t *testing.T) {
	bath, err := aging.Bathtub(2000, 3, 12000, 6)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := faults.Normalize(bath, 20000)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 400, Seed: 5, Horizon: 20000}
	var got []Estimate
	for _, par := range []int{1, 8} {
		r, err := NewRunner(hazardMirror(t, norm))
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Parallel = par
		est, err := r.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, est)
	}
	a, b := got[0], got[1]
	if math.Float64bits(a.LossProb.Point) != math.Float64bits(b.LossProb.Point) ||
		math.Float64bits(a.LossProb.Lo) != math.Float64bits(b.LossProb.Lo) ||
		math.Float64bits(a.MTTDL.Point) != math.Float64bits(b.MTTDL.Point) ||
		math.Float64bits(a.MTTDL.Lo) != math.Float64bits(b.MTTDL.Lo) ||
		a.Censored != b.Censored || a.Stats != b.Stats || a.Matrix != b.Matrix {
		t.Errorf("profiled estimate differs across Parallel 1 vs 8:\n%+v\nvs\n%+v", a, b)
	}
	if a.Censored == 0 || a.Censored == opt.Trials {
		t.Errorf("degenerate profiled run (censored %d of %d): test exercises nothing", a.Censored, opt.Trials)
	}
}

func TestHazardAccelerationShiftsLoss(t *testing.T) {
	opt := Options{Trials: 1000, Seed: 3, Horizon: 20000}
	rBase, err := NewRunner(hazardMirror(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	base, err := rBase.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	rHot, err := NewRunner(hazardMirror(t, faults.ConstantHazard{Factor: 2}))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := rHot.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if hot.LossProb.Point <= base.LossProb.Point {
		t.Errorf("doubled hazard did not raise loss probability: %v vs %v", hot.LossProb.Point, base.LossProb.Point)
	}
}

func TestHazardBiasRejected(t *testing.T) {
	cfg := hazardMirror(t, faults.ConstantHazard{Factor: 2})
	opt := Options{Trials: 100, Seed: 1, Horizon: 20000, Bias: 4}
	if _, err := Canonical(cfg, opt); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("Canonical(bias+hazard) err = %v, want ErrInvalidConfig", err)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Estimate(opt); err == nil || !strings.Contains(err.Error(), "hazard") {
		t.Errorf("Estimate(bias+hazard) err = %v, want hazard incompatibility", err)
	}
}

func TestHazardInheritanceAndOverride(t *testing.T) {
	cfg := hazardMirror(t, faults.ConstantHazard{Factor: 2})
	specs := cfg.ReplicaSpecs()
	for i, s := range specs {
		if s.Hazard != (faults.ConstantHazard{Factor: 2}) {
			t.Errorf("replica %d did not inherit the config hazard: %v", i, s.Hazard)
		}
	}
	// A per-spec profile overrides the scalar.
	over := cfg
	over.Specs = make([]ReplicaSpec, 2)
	over.Specs[1].Hazard = faults.WeibullHazard{Shape: 2, Scale: 1000}
	specs = over.ReplicaSpecs()
	if specs[0].Hazard != (faults.ConstantHazard{Factor: 2}) {
		t.Errorf("spec 0 lost the inherited hazard: %v", specs[0].Hazard)
	}
	if specs[1].Hazard != (faults.WeibullHazard{Shape: 2, Scale: 1000}) {
		t.Errorf("spec 1 override lost: %v", specs[1].Hazard)
	}
	if !cfg.HasHazard() || !over.HasHazard() {
		t.Errorf("HasHazard false on profiled configs")
	}
	if plain := hazardMirror(t, nil); plain.HasHazard() {
		t.Errorf("HasHazard true on an unprofiled config")
	}
}

func TestHazardConfigValidation(t *testing.T) {
	bad := hazardMirror(t, faults.WeibullHazard{Shape: 0.5, Scale: 1000})
	if err := bad.Validate(); err == nil {
		t.Errorf("Validate accepted a shape<1 Weibull hazard")
	}
}
