package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
)

// canonPaperConfig returns the §5.4 scrubbed mirror and default options.
func canonPaperConfig(t *testing.T) (Config, Options) {
	t.Helper()
	cfg, err := PaperConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, Options{Trials: 1000, Seed: 1}
}

func TestCanonicalScalarAndSpecsCollide(t *testing.T) {
	cfg, opt := canonPaperConfig(t)

	// The same fleet written as explicit per-replica specs.
	expanded := Config{
		Specs:       cfg.ReplicaSpecs(),
		Correlation: cfg.Correlation,
	}
	a, err := Canonical(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical(expanded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("scalar shorthand and expanded Specs canonicalize differently:\n%s\nvs\n%s", a, b)
	}

	// Partial override that resolves to the same values also collides.
	partial := cfg
	partial.Specs = make([]ReplicaSpec, 2)
	partial.Specs[0].VisibleMean = cfg.VisibleMean
	c, err := Canonical(partial, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("value-equal partial Specs canonicalize differently")
	}
}

func TestCanonicalNormalizations(t *testing.T) {
	cfg, opt := canonPaperConfig(t)
	base, err := Fingerprint(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Parallelism does not shape results, so it must not shape keys.
	par := opt
	par.Parallel = 7
	if fp, _ := Fingerprint(cfg, par); fp != base {
		t.Errorf("Parallel changed the fingerprint")
	}
	// Level 0 is the documented 0.95 default.
	lvl := opt
	lvl.Level = 0.95
	if fp, _ := Fingerprint(cfg, lvl); fp != base {
		t.Errorf("explicit default Level changed the fingerprint")
	}
	// MinIntact 0 defaults to 1.
	mi := cfg
	mi.MinIntact = 1
	if fp, _ := Fingerprint(mi, opt); fp != base {
		t.Errorf("explicit default MinIntact changed the fingerprint")
	}
}

func TestCanonicalSensitivity(t *testing.T) {
	cfg, opt := canonPaperConfig(t)
	base, err := Fingerprint(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Config, *Options){
		"visible mean":  func(c *Config, _ *Options) { c.VisibleMean *= 2 },
		"latent mean":   func(c *Config, _ *Options) { c.LatentMean *= 2 },
		"replica count": func(c *Config, _ *Options) { c.Replicas = 3 },
		"min intact":    func(c *Config, _ *Options) { c.MinIntact = 2 },
		"scrub":         func(c *Config, _ *Options) { c.Scrub = scrub.Periodic{Interval: 1000} },
		"scrub offset":  func(c *Config, _ *Options) { c.Scrub = scrub.Periodic{Interval: 2920, Offset: 10} },
		"repair": func(c *Config, _ *Options) {
			p, err := repair.Automated(model.PaperMRV*2, model.PaperMRL, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.Repair = p
		},
		"correlation": func(c *Config, _ *Options) { c.Correlation = faults.AlphaCorrelation{Factor: 0.5} },
		"correlation model": func(c *Config, _ *Options) {
			c.Correlation = faults.CompoundingAlpha{Factor: 1}
		},
		"shock": func(c *Config, _ *Options) {
			c.Shocks = []faults.Shock{{Name: "power", Mean: 1e6, Targets: []int{0, 1}, HitProb: 1}}
		},
		"audit wear":   func(c *Config, _ *Options) { c.AuditLatentFaultProb = 0.01 },
		"audit damage": func(c *Config, _ *Options) { c.AuditVisibleFaultProb = 0.01 },
		"access detect": func(c *Config, _ *Options) {
			a, err := scrub.NewOnAccess(0.01, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			c.AccessDetect = a
		},
		"spec label": func(c *Config, _ *Options) {
			c.Specs = c.ReplicaSpecs()
			c.Specs[0].Label = "site-B"
		},
		"trials":  func(_ *Config, o *Options) { o.Trials = 2000 },
		"seed":    func(_ *Config, o *Options) { o.Seed = 2 },
		"horizon": func(_ *Config, o *Options) { o.Horizon = 8760 },
		"level":   func(_ *Config, o *Options) { o.Level = 0.99 },
		"adaptive target": func(_ *Config, o *Options) {
			o.TargetRelWidth = 0.05
			o.MaxTrials = 100000
		},
		"adaptive max trials": func(_ *Config, o *Options) {
			o.TargetRelWidth = 0.05
			o.MaxTrials = 200000
		},
		"adaptive batch size": func(_ *Config, o *Options) {
			o.TargetRelWidth = 0.05
			o.MaxTrials = 100000
			o.BatchSize = 512
		},
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		cfg2, opt2 := canonPaperConfig(t)
		mutate(&cfg2, &opt2)
		fp, err := Fingerprint(cfg2, opt2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// Note: "correlation model" above flips AlphaCorrelation{1} vs the
// default Independent{} — behaviorally identical but a different model
// type, and the canonical form is allowed (and expected) to distinguish
// concrete types; only value-equal configurations must collide.

// Fixed-trial options must keep their historical canonical encoding —
// batch size cannot shape a fixed result, so it must not shape the key —
// while adaptive options fold the stopping rule into the key.
func TestCanonicalAdaptiveEncoding(t *testing.T) {
	cfg, opt := canonPaperConfig(t)
	base, err := Canonical(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(base, "sim.Options/v1{trials:1000,horizon:0,seed:1,level:0.95}") {
		t.Errorf("fixed-trial options encoding changed:\n%s", base)
	}
	batched := opt
	batched.BatchSize = 32
	if got, _ := Canonical(cfg, batched); got != base {
		t.Error("batch size changed a fixed-trial key")
	}

	adaptive := opt
	adaptive.TargetRelWidth = 0.05
	adaptive.MaxTrials = 50000
	s, err := Canonical(cfg, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "targetRel:0.05,maxTrials:50000,batch:256") {
		t.Errorf("adaptive options not encoded in the key:\n%s", s)
	}
}

func TestCanonicalRejectsInvalidConfig(t *testing.T) {
	var cfg Config // no replicas, nil correlation
	if _, err := Canonical(cfg, Options{Trials: 10}); err == nil {
		t.Fatal("Canonical accepted an invalid config")
	}
}

func TestCanonicalIsSelfDescribing(t *testing.T) {
	cfg, opt := canonPaperConfig(t)
	s, err := Canonical(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sim.Config/v1", "sim.Options/v1", "scrub.Periodic", "repair.Policy",
		"faults.Independent", "trials:1000", "seed:1", "level:0.95",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("canonical form missing %q:\n%s", want, s)
		}
	}
}

func TestConfigMismatchErrorsAreClear(t *testing.T) {
	cfg, _ := canonPaperConfig(t)
	cfg.Specs = cfg.ReplicaSpecs()
	cfg.Replicas = 3 // but len(Specs) == 2
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a Specs/Replicas length mismatch")
	}
	if !strings.Contains(err.Error(), "2 specs for 3 replicas") {
		t.Errorf("mismatch error %q does not state both counts", err)
	}
}

// canonKinds exercises every kind the canonical encoder handles,
// including the ones no Config reaches today.
type canonKinds struct {
	B      bool
	I8     int8
	U      uint
	U16    uint16
	F32    float32
	NaN    float64
	NegInf float64
	S      string
	Arr    [3]int
	Nil    []float64
	Empty  []float64
	M      map[string]float64
	IM     map[int]string
	NilMap map[string]int
	P      *faults.WeibullHazard
	NilP   *faults.WeibullHazard
	Any    any
	NilAny any
	H      faults.Hazard
	hidden struct{ x, y float64 }
}

// canonKindsGolden is canonKinds' encoding as the reflective
// string-builder encoder wrote it: the nil Hazard field is omitted, maps
// sort by encoded "k:v" entry (so 10:"x" sorts before 1:"w"), and
// pointers and interfaces are transparent.
const canonKindsGolden = `sim.canonKinds{B:true,I8:-3,U:7,U16:65535,F32:0.10000000149011612,NaN:NaN,NegInf:-Inf,S:"q\"uo\tteé",Arr:[1,2,3],Nil:nil,Empty:[],M:map{"a":1,"b":2,"c":+Inf},IM:map{-1:"z",10:"x",1:"w",2:"y"},NilMap:nil,P:faults.WeibullHazard/inverse{Shape:2,Scale:3},NilP:nil,Any:faults.ConstantHazard{Factor:1.5},NilAny:nil,hidden:struct { x float64; y float64 }{x:1e-300,y:1.23456789e+08}}`

func TestCanonicalValueKinds(t *testing.T) {
	v := canonKinds{
		B: true, I8: -3, U: 7, U16: 65535, F32: 0.1, NaN: math.NaN(), NegInf: math.Inf(-1),
		S: "q\"uo\tteé", Arr: [3]int{1, 2, 3}, Empty: []float64{},
		M:  map[string]float64{"b": 2, "a": 1, "c": math.Inf(1)},
		IM: map[int]string{10: "x", 2: "y", -1: "z", 1: "w"},
		P:  &faults.WeibullHazard{Shape: 2, Scale: 3}, Any: faults.ConstantHazard{Factor: 1.5},
	}
	v.hidden.x = 1e-300
	v.hidden.y = 123456789
	for i := 0; i < 20; i++ { // map iteration order must never show
		b, err := appendValue(nil, reflect.ValueOf(v))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != canonKindsGolden {
			t.Fatalf("encoding drifted:\n got %s\nwant %s", b, canonKindsGolden)
		}
	}

	for _, c := range []struct {
		v    any
		want string
	}{
		{func() {}, "cannot canonicalize func value"},
		{make(chan int), "cannot canonicalize chan value"},
		{struct{ F func() }{}, "cannot canonicalize func value"},
		{complex(1, 2), "cannot canonicalize complex128 value"},
		{[]any{1, func() {}}, "cannot canonicalize func value"},
		{map[string]any{"f": func() {}}, "cannot canonicalize func value"},
	} {
		if _, err := appendValue(nil, reflect.ValueOf(c.v)); err == nil || err.Error() != c.want {
			t.Errorf("%T: err = %v, want %q", c.v, err, c.want)
		}
	}
}

// TestCanonicalRejectsFuncState: a config carrying function-valued
// state fails to canonicalize and names the replica it sits on.
func TestCanonicalRejectsFuncState(t *testing.T) {
	cfg, opt := canonPaperConfig(t)
	cfg.Specs = cfg.ReplicaSpecs()
	cfg.Specs[1].Scrub = funcScrub{next: func(float64) float64 { return 0 }}
	_, err := Fingerprint(cfg, opt)
	if err == nil || err.Error() != "sim: canonicalizing replica 1: cannot canonicalize func value" {
		t.Fatalf("err = %v", err)
	}
}

// funcScrub is a scrub strategy whose state is a function.
type funcScrub struct{ next func(float64) float64 }

func (f funcScrub) NextAudit(now float64, _ *rng.Source) (float64, bool) { return f.next(now), true }
func (funcScrub) MeanDetectionLag() float64                              { return 1 }
func (funcScrub) Name() string                                           { return "func" }

// canonRace is encoded only by TestCanonicalConcurrent, so its codec is
// first built while several goroutines race for it.
type canonRace struct {
	A float64
	H faults.Hazard
	S []string
}

// TestCanonicalConcurrent: the per-type codec cache is shared by every
// caller; concurrent first use and concurrent fingerprints must agree
// (run under -race in CI).
func TestCanonicalConcurrent(t *testing.T) {
	cfg, opt := canonPaperConfig(t)
	want, err := Fingerprint(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	const wantRace = `sim.canonRace{A:1.5,S:["a","b"]}`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b, err := appendValue(nil, reflect.ValueOf(canonRace{A: 1.5, S: []string{"a", "b"}}))
				if err != nil || string(b) != wantRace {
					t.Errorf("encoded %s, %v; want %s", b, err, wantRace)
					return
				}
				if fp, err := Fingerprint(cfg, opt); err != nil || fp != want {
					t.Errorf("Fingerprint = %s, %v; want %s", fp, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyedRequestsCanRun: a request gets a key exactly when a run
// would accept it. Each row is refused by Canonical, Fingerprint and
// EstimateStream alike, with the same error text.
func TestKeyedRequestsCanRun(t *testing.T) {
	paper, _ := canonPaperConfig(t)
	weibull, err := faults.NewWeibullHazard(2, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	profiled := hazardMirror(t, weibull)
	for _, tc := range []struct {
		name string
		cfg  Config
		opt  Options
	}{
		{"one trial", paper, Options{Trials: 1}},
		{"level 1.5", paper, Options{Trials: 100, Level: 1.5}},
		{"bias without horizon", paper, Options{Trials: 100, Bias: AutoBias}},
		{"negative target", paper, Options{TargetRelWidth: -0.1}},
		{"adaptive max trials 1", paper, Options{TargetRelWidth: 0.1, MaxTrials: 1}},
		{"bias with hazard", profiled, Options{Trials: 100, Horizon: 1000, Bias: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, runErr := r.EstimateStream(context.Background(), tc.opt, nil)
			if runErr == nil {
				t.Fatal("EstimateStream accepted the request")
			}
			if _, err := Fingerprint(tc.cfg, tc.opt); err == nil || err.Error() != runErr.Error() {
				t.Errorf("Fingerprint error %v, want %q", err, runErr)
			}
			if _, err := Canonical(tc.cfg, tc.opt); err == nil || err.Error() != runErr.Error() {
				t.Errorf("Canonical error %v, want %q", err, runErr)
			}
		})
	}
}

// TestPaperConfigAlpha: PaperConfig reads α as the wire does — 1 is
// independent replicas, anything else must be a correlation factor in
// (0, 1].
func TestPaperConfigAlpha(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		want  faults.Correlation
	}{
		{1, faults.Independent{}},
		{0.5, faults.AlphaCorrelation{Factor: 0.5}},
		{1.5, nil},
		{math.NaN(), nil},
		{0, nil},
		{-1, nil},
	} {
		cfg, err := PaperConfig(3, tc.alpha)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("alpha %v: accepted with correlation %#v, want an error", tc.alpha, cfg.Correlation)
		case tc.want != nil && err != nil:
			t.Errorf("alpha %v: %v", tc.alpha, err)
		case tc.want != nil && cfg.Correlation != tc.want:
			t.Errorf("alpha %v: correlation %#v, want %#v", tc.alpha, cfg.Correlation, tc.want)
		}
	}
}
