package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/faults"
)

func TestHazardSpecBuild(t *testing.T) {
	cases := []struct {
		name string
		spec HazardSpec
		want faults.Hazard
	}{
		{"constant", HazardSpec{Kind: "constant", Factor: 2}, faults.ConstantHazard{Factor: 2}},
		{"weibull", HazardSpec{Kind: "weibull", Shape: 2, ScaleHours: 50000}, faults.WeibullHazard{Shape: 2, Scale: 50000}},
	}
	for _, c := range cases {
		h, err := c.spec.Build()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if h != c.want {
			t.Errorf("%s: built %#v, want %#v", c.name, h, c.want)
		}
	}

	bath, err := (HazardSpec{Kind: "bathtub", BurnInHours: 2000, BurnInFactor: 3, WearOnsetHours: 12000, WearFactor: 6}).Build()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := aging.Bathtub(2000, 3, 12000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bath, direct) {
		t.Errorf("bathtub spec built %#v, aging.Bathtub %#v", bath, direct)
	}

	pw, err := (HazardSpec{Kind: "piecewise", BoundsHours: []float64{1000}, Factors: []float64{3, 1}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := (faults.PiecewiseHazard{Bounds: []float64{1000}, Factors: []float64{3, 1}}); !reflect.DeepEqual(pw, want) {
		t.Errorf("piecewise spec built %#v, want %#v", pw, want)
	}

	norm, err := (HazardSpec{Kind: "weibull", Shape: 2, ScaleHours: 8000, NormalizeHours: 20000}).Build()
	if err != nil {
		t.Fatal(err)
	}
	// The mean of φ = 2·(t/8000) over [0, 20000] is 20000/8000.
	want := faults.ScaledHazard{Base: faults.WeibullHazard{Shape: 2, Scale: 8000}, Factor: 1 / math.Pow(20000.0/8000, 2-1)}
	if norm != want {
		t.Errorf("normalized weibull spec built %#v, want %#v", norm, want)
	}
}

func TestHazardSpecBuildRejects(t *testing.T) {
	cases := []struct {
		name string
		spec HazardSpec
		frag string
	}{
		{"unknown kind", HazardSpec{Kind: "gamma", Shape: 2}, "unknown hazard kind"},
		{"empty kind", HazardSpec{Factor: 2}, "unknown hazard kind"},
		{"wrong-kind param", HazardSpec{Kind: "bathtub", Shape: 2, BurnInHours: 100, BurnInFactor: 2, WearOnsetHours: 1000, WearFactor: 2}, `"shape" does not apply`},
		{"constant with scale", HazardSpec{Kind: "constant", Factor: 2, ScaleHours: 100}, `"scale_hours" does not apply`},
		{"bad shape", HazardSpec{Kind: "weibull", Shape: 0.5, ScaleHours: 100}, "shape"},
		{"negative normalize", HazardSpec{Kind: "constant", Factor: 2, NormalizeHours: -1}, "normalize_hours"},
	}
	for _, c := range cases {
		if _, err := c.spec.Build(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.frag)
		}
	}
}

// TestHazardRequestInheritance checks the wire-side scalar-to-fleet
// inheritance mirrors the simulator's: a request-level hazard fills in
// fleet entries without their own, and a per-entry profile wins.
func TestHazardRequestInheritance(t *testing.T) {
	req := EstimateRequest{
		Hazard: &HazardSpec{Kind: "constant", Factor: 2},
		Fleet: []FleetEntry{
			{Tier: "consumer"},
			{Tier: "consumer", Hazard: &HazardSpec{Kind: "weibull", Shape: 2, ScaleHours: 9000}},
		},
	}
	cfg, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	specs := cfg.ReplicaSpecs()
	if specs[0].Hazard != (faults.ConstantHazard{Factor: 2}) {
		t.Errorf("entry 0 did not inherit the request hazard: %#v", specs[0].Hazard)
	}
	if specs[1].Hazard != (faults.WeibullHazard{Shape: 2, Scale: 9000}) {
		t.Errorf("entry 1 lost its own hazard: %#v", specs[1].Hazard)
	}

	uniform := EstimateRequest{Replicas: 3, Hazard: &HazardSpec{Kind: "constant", Factor: 3}}
	cfg, _, err = uniform.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hazard != (faults.ConstantHazard{Factor: 3}) {
		t.Errorf("uniform request dropped the hazard: %#v", cfg.Hazard)
	}

	bad := EstimateRequest{Hazard: &HazardSpec{Kind: "nope"}}
	if _, _, err := bad.Build(); err == nil || !strings.Contains(err.Error(), "hazard") {
		t.Errorf("bad request hazard: err = %v", err)
	}
	badFleet := EstimateRequest{Fleet: []FleetEntry{{Tier: "consumer", Hazard: &HazardSpec{Kind: "constant"}}}}
	if _, _, err := badFleet.Build(); err == nil || !strings.Contains(err.Error(), "fleet entry 0") {
		t.Errorf("bad fleet hazard: err = %v", err)
	}
}

// TestHazardAxisSweep expands a wear_factor sweep over a bathtub base
// and checks each point builds a distinct profile without aliasing the
// base or its siblings.
func TestHazardAxisSweep(t *testing.T) {
	doc := Document{
		V: 1,
		Base: EstimateRequest{
			Hazard: &HazardSpec{Kind: "bathtub", BurnInHours: 2000, BurnInFactor: 3, WearOnsetHours: 12000, WearFactor: 6},
		},
		Grid: []Axis{{Param: "hazard.wear_factor", Values: []float64{2, 6, 12}}},
	}
	points, err := Expand(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("expanded %d points, want 3", len(points))
	}
	for i, want := range []float64{2, 6, 12} {
		if got := points[i].Request.Hazard.WearFactor; got != want {
			t.Errorf("point %d wear factor = %v, want %v", i, got, want)
		}
		cfg, _, err := points[i].Request.Build()
		if err != nil {
			t.Fatalf("point %d build: %v", i, err)
		}
		if pw, ok := cfg.Hazard.(faults.PiecewiseHazard); !ok || pw.Factors[2] != want {
			t.Errorf("point %d built %#v, want wear factor %v", i, cfg.Hazard, want)
		}
	}
	if doc.Base.Hazard.WearFactor != 6 {
		t.Errorf("expansion mutated the base document's hazard (wear factor now %v)", doc.Base.Hazard.WearFactor)
	}
	fps := map[string]bool{}
	for _, p := range points {
		fp, err := p.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[fp] = true
	}
	if len(fps) != 3 {
		t.Errorf("swept points share fingerprints: %d distinct of 3", len(fps))
	}
}

func TestHazardAxisValidation(t *testing.T) {
	base := EstimateRequest{Hazard: &HazardSpec{Kind: "constant", Factor: 2}}
	cases := []struct {
		name string
		doc  Document
		frag string
	}{
		{
			"no base hazard",
			Document{V: 1, Grid: []Axis{{Param: "hazard.factor", Values: []float64{1, 2}}}},
			"requires the base to declare a hazard",
		},
		{
			"kind mismatch",
			Document{V: 1, Base: base, Grid: []Axis{{Param: "hazard.shape", Values: []float64{1, 2}}}},
			`parameterizes a "weibull" hazard`,
		},
		{
			"zero coordinate",
			Document{V: 1, Base: base, Grid: []Axis{{Param: "hazard.factor", Values: []float64{0, 2}}}},
			"unset hazard field",
		},
	}
	for _, c := range cases {
		if err := c.doc.Validate(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.frag)
		}
	}
	// normalize_hours is kind-independent: valid over any base kind.
	ok := Document{V: 1, Base: base, Grid: []Axis{{Param: "hazard.normalize_hours", Values: []float64{10000, 20000}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("normalize_hours axis over a constant base: %v", err)
	}
}

// TestHazardAxisKindsFollowBuild: every scalar field hazardKindParams
// lists is a hazard.<field> axis, accepted over a base of its own kind
// and rejected over every other; normalize_hours is accepted over any
// kind; and no other hazard.* axis exists.
func TestHazardAxisKindsFollowBuild(t *testing.T) {
	scalar := map[string]bool{}
	st := reflect.TypeOf(HazardSpec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		scalar[name] = f.Type.Kind() == reflect.Float64
	}
	axes := map[string]bool{"hazard.normalize_hours": true}
	for kind, fields := range hazardKindParams {
		for _, field := range fields {
			if !scalar[field] {
				continue
			}
			param := "hazard." + field
			axes[param] = true
			if _, ok := scalarParams[param]; !ok {
				t.Errorf("%s field %q has no %q axis", kind, field, param)
				continue
			}
			for other := range hazardKindParams {
				a := Axis{Param: param, Values: []float64{1}}
				err := a.validate("grid", EstimateRequest{Hazard: &HazardSpec{Kind: other}})
				if other == kind {
					if err != nil {
						t.Errorf("%s axis over a %s base: %v", param, other, err)
					}
					continue
				}
				want := fmt.Sprintf("scenario: %q axis parameterizes a %q hazard, but the base declares kind %q", param, kind, other)
				if err == nil || err.Error() != want {
					t.Errorf("%s axis over a %s base: err = %v, want %q", param, other, err, want)
				}
			}
		}
	}
	for kind := range hazardKindParams {
		a := Axis{Param: "hazard.normalize_hours", Values: []float64{1000}}
		if err := a.validate("grid", EstimateRequest{Hazard: &HazardSpec{Kind: kind}}); err != nil {
			t.Errorf("normalize_hours axis over a %s base: %v", kind, err)
		}
	}
	for param := range scalarParams {
		if strings.HasPrefix(param, "hazard.") && !axes[param] {
			t.Errorf("axis %q sweeps no scalar hazardKindParams field", param)
		}
	}
}
