package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// intp is a test shorthand.
func intp(v int) *int { return &v }

// TestExpansionOrderGolden pins the documented deterministic order:
// grid odometer with the first axis slowest and the last fastest, the
// zip tuple innermost.
func TestExpansionOrderGolden(t *testing.T) {
	doc := Document{
		V: Version,
		Base: EstimateRequest{
			Fleet:  []FleetEntry{{Tier: "consumer"}, {Tier: "consumer"}},
			Trials: 50,
		},
		Grid: []Axis{
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "tier", Tiers: []string{"consumer", "enterprise"}, Replica: intp(1)},
		},
		Zip: []Axis{
			{Param: "horizon_years", Values: []float64{10, 50}},
			{Param: "scrubs_per_year", Values: []float64{12, 3}},
		},
	}
	points, err := Expand(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		alpha   float64
		tier1   string
		horizon float64
		scrubs  float64
	}{
		{1, "consumer", 10, 12},
		{1, "consumer", 50, 3},
		{1, "enterprise", 10, 12},
		{1, "enterprise", 50, 3},
		{0.5, "consumer", 10, 12},
		{0.5, "consumer", 50, 3},
		{0.5, "enterprise", 10, 12},
		{0.5, "enterprise", 50, 3},
	}
	if len(points) != len(want) {
		t.Fatalf("expanded %d points, want %d", len(points), len(want))
	}
	for i, w := range want {
		pt := points[i]
		if pt.Index != i {
			t.Errorf("point %d carries index %d", i, pt.Index)
		}
		r := pt.Request
		if r.Alpha != w.alpha || r.Fleet[1].Tier != w.tier1 || r.HorizonYears != w.horizon {
			t.Errorf("point %d = alpha %v, tier %q, horizon %v; want %v, %q, %v",
				i, r.Alpha, r.Fleet[1].Tier, r.HorizonYears, w.alpha, w.tier1, w.horizon)
		}
		if r.ScrubsPerYear == nil || *r.ScrubsPerYear != w.scrubs {
			t.Errorf("point %d scrubs = %v, want %v", i, r.ScrubsPerYear, w.scrubs)
		}
		if r.Fleet[0].Tier != "consumer" {
			t.Errorf("point %d rewrote the unswept fleet entry: %q", i, r.Fleet[0].Tier)
		}
		// Coords mirror the applied values, grid axes first; tier coords
		// carry no Value, scalar coords always carry one (even 0).
		if len(pt.Coords) != 4 || pt.Coords[0].Param != "alpha" || pt.Coords[1].Tier != w.tier1 ||
			pt.Coords[1].Value != nil || pt.Coords[2].Value == nil || *pt.Coords[2].Value != w.horizon ||
			pt.Coords[3].Value == nil || *pt.Coords[3].Value != w.scrubs {
			t.Errorf("point %d coords = %+v", i, pt.Coords)
		}
	}
	// The base document must be untouched by expansion.
	if doc.Base.Alpha != 0 || doc.Base.Fleet[1].Tier != "consumer" || doc.Base.ScrubsPerYear != nil {
		t.Errorf("expansion mutated the base request: %+v", doc.Base)
	}
}

// TestCoordZeroSurvivesWire: a swept 0 (never audited, bug prob 0) is
// a real coordinate and must not vanish under omitempty.
func TestCoordZeroSurvivesWire(t *testing.T) {
	points, err := Expand(Document{
		V:    Version,
		Base: EstimateRequest{Trials: 10},
		Grid: []Axis{{Param: "scrubs_per_year", Values: []float64{0, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(points[0].Coords)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"param":"scrubs_per_year","value":0}]`; string(b) != want {
		t.Errorf("zero coordinate encodes as %s, want %s", b, want)
	}
}

// TestExpandNoAxes: a document with no axes is its base alone.
func TestExpandNoAxes(t *testing.T) {
	points, err := Expand(Document{V: Version, Base: EstimateRequest{Trials: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Request.Trials != 10 || len(points[0].Coords) != 0 {
		t.Fatalf("no-axis expansion = %+v, want the bare base", points)
	}
}

// TestZipOnlyExpansion: without a grid, the zip block alone drives the
// point count.
func TestZipOnlyExpansion(t *testing.T) {
	points, err := Expand(Document{
		V:    Version,
		Base: EstimateRequest{Trials: 10},
		Zip: []Axis{
			{Param: "replicas", Values: []float64{2, 3, 4}},
			{Param: "alpha", Values: []float64{1, 0.5, 0.1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("zip expansion has %d points, want 3", len(points))
	}
	for i, want := range []struct {
		replicas int
		alpha    float64
	}{{2, 1}, {3, 0.5}, {4, 0.1}} {
		r := points[i].Request
		if r.Replicas != want.replicas || r.Alpha != want.alpha {
			t.Errorf("zip point %d = (%d, %v), want (%d, %v)", i, r.Replicas, r.Alpha, want.replicas, want.alpha)
		}
	}
}

// TestValidationErrors exercises every structural rejection.
func TestValidationErrors(t *testing.T) {
	fleetBase := EstimateRequest{Fleet: []FleetEntry{{Tier: "consumer"}}}
	huge := make([]float64, 300)
	for i := range huge {
		huge[i] = float64(i + 1)
	}
	cases := []struct {
		name string
		doc  Document
		want string
	}{
		{"missing version", Document{}, "unsupported version"},
		{"future version", Document{V: 2}, "unsupported version"},
		{"unknown param", Document{V: 1, Grid: []Axis{{Param: "scrub_cadence", Values: []float64{1}}}}, "unknown axis param"},
		{"no param", Document{V: 1, Grid: []Axis{{Values: []float64{1}}}}, "no param"},
		{"empty values", Document{V: 1, Grid: []Axis{{Param: "alpha"}}}, "no values"},
		{"tiers on scalar", Document{V: 1, Grid: []Axis{{Param: "alpha", Tiers: []string{"consumer"}}}}, `takes "values"`},
		{"values on tier", Document{V: 1, Base: fleetBase, Grid: []Axis{{Param: "tier", Tiers: []string{"consumer"}, Values: []float64{1}}}}, `takes "tiers"`},
		{"tier without fleet", Document{V: 1, Grid: []Axis{{Param: "tier", Tiers: []string{"consumer"}}}}, "requires a base fleet"},
		{"unknown tier", Document{V: 1, Base: fleetBase, Grid: []Axis{{Param: "tier", Tiers: []string{"floppy"}}}}, "unknown tier"},
		{"tier replica range", Document{V: 1, Base: fleetBase, Grid: []Axis{{Param: "tier", Tiers: []string{"consumer"}, Replica: intp(1)}}}, "out of range"},
		{"replica on scalar", Document{V: 1, Grid: []Axis{{Param: "alpha", Values: []float64{1}, Replica: intp(0)}}}, "applies only to tier axes"},
		{"duplicate param", Document{V: 1, Grid: []Axis{{Param: "alpha", Values: []float64{1}}}, Zip: []Axis{{Param: "alpha", Values: []float64{0.5}}}}, "two axes sweep alpha"},
		{"whole vs per-replica tier", Document{V: 1,
			Base: EstimateRequest{Fleet: []FleetEntry{{Tier: "consumer"}, {Tier: "consumer"}}},
			Grid: []Axis{
				{Param: "tier", Tiers: []string{"consumer"}},
				{Param: "tier", Tiers: []string{"tape"}, Replica: intp(0)},
			}}, "whole-fleet tier axis conflicts"},
		{"zip length mismatch", Document{V: 1, Zip: []Axis{
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "replicas", Values: []float64{2}},
		}}, "share one length"},
		{"non-integer replicas", Document{V: 1, Grid: []Axis{{Param: "replicas", Values: []float64{2.5}}}}, "non-negative integer"},
		{"zero replicas", Document{V: 1, Grid: []Axis{{Param: "replicas", Values: []float64{0}}}}, ">= 1"},
		{"nan value", Document{V: 1, Grid: []Axis{{Param: "alpha", Values: []float64{math.NaN()}}}}, "not finite"},
		{"zero alpha", Document{V: 1, Grid: []Axis{{Param: "alpha", Values: []float64{0, 0.5}}}}, "silently mean the default"},
		{"zero level", Document{V: 1, Grid: []Axis{{Param: "level", Values: []float64{0}}}}, "silently mean the default"},
		{"zero visible mean", Document{V: 1, Grid: []Axis{{Param: "visible_mean_hours", Values: []float64{0, 500}}}}, "silently mean the default"},
		{"zero max trials", Document{V: 1, Grid: []Axis{{Param: "max_trials", Values: []float64{0}}}}, "silently mean the default"},
		{"inert fleet param", Document{V: 1, Base: fleetBase, Grid: []Axis{{Param: "visible_mean_hours", Values: []float64{1000}}}}, "inert"},
		{"inert scrubs on custom fleet", Document{V: 1,
			Base: EstimateRequest{Fleet: []FleetEntry{{VisibleMeanHours: 1000, RepairHours: 10}}},
			Grid: []Axis{{Param: "scrubs_per_year", Values: []float64{0, 3, 12}}}}, "inert"},
		{"inert scrubs on pinned tier", Document{V: 1,
			Base: EstimateRequest{Fleet: []FleetEntry{{Tier: "consumer", ScrubsPerYear: 6}, {Tier: "tape"}}},
			Grid: []Axis{{Param: "scrubs_per_year", Values: []float64{3, 12}}}}, "inert"},
		{"seed beyond float53", Document{V: 1, Grid: []Axis{{Param: "seed", Values: []float64{9.007199254740994e15}}}}, "2^53"},
		{"too many points", Document{V: 1, Grid: []Axis{
			{Param: "visible_mean_hours", Values: huge},
			{Param: "latent_mean_hours", Values: huge},
		}}, "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Expand(tc.doc)
			if err == nil {
				t.Fatalf("Expand accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFleetEntryBound: a document may copy at most MaxFleetEntries
// fleet entries across its points, and a base fleet longer than
// MaxReplicas fails up front, before any axis is looked at.
func TestFleetEntryBound(t *testing.T) {
	values := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	doc := func(fleet, points int) Document {
		return Document{V: 1,
			Base: EstimateRequest{Fleet: make([]FleetEntry, fleet)},
			Grid: []Axis{{Param: "seed", Values: values(points)}}}
	}
	for _, c := range []struct {
		fleet, points int
		ok            bool
	}{
		{1, MaxPoints, true},
		{4, MaxPoints, true},
		{MaxReplicas, MaxFleetEntries / MaxReplicas, true},
		{MaxReplicas, MaxFleetEntries/MaxReplicas + 1, false},
		{5, 52429, false}, // one entry over
	} {
		err := doc(c.fleet, c.points).Validate()
		if c.ok && err != nil {
			t.Errorf("%d entries x %d points rejected: %v", c.fleet, c.points, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "fleet entries")) {
			t.Errorf("%d entries x %d points: Validate = %v, want the fleet-entry limit", c.fleet, c.points, err)
		}
	}
	long := Document{V: 1, Base: EstimateRequest{Fleet: make([]FleetEntry, MaxReplicas+1)}}
	if err := long.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Errorf("base fleet of %d: Validate = %v, want the replica limit", MaxReplicas+1, err)
	}
}

// TestParseStrict: unknown fields and trailing garbage are rejected, a
// valid document round-trips.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"v":1,"axes":[]}`)); err == nil {
		t.Error("Parse accepted an unknown top-level field")
	}
	if _, err := Parse([]byte(`{"v":1,"grid":[{"param":"alpha","valuez":[1]}]}`)); err == nil {
		t.Error("Parse accepted an unknown axis field")
	}
	doc, err := Parse([]byte(`{"v":1,"name":"ok","base":{"trials":10},"grid":[{"param":"alpha","values":[1,0.5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "ok" || len(doc.Grid) != 1 {
		t.Errorf("parsed %+v", doc)
	}
}

// TestFingerprintEquivalence is the canonicalization contract: an
// expanded point content-addresses identically to the equivalent
// hand-built request, and canonically-equal points inside one document
// (min_intact 0 vs its default 1) collide.
func TestFingerprintEquivalence(t *testing.T) {
	seed := uint64(9)
	doc := Document{
		V: Version,
		Base: EstimateRequest{
			Trials: 60, HorizonYears: 50, Seed: &seed,
		},
		Grid: []Axis{
			{Param: "replicas", Values: []float64{2, 3}},
			{Param: "scrubs_per_year", Values: []float64{0, 12}},
		},
	}
	points, err := Expand(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Point 3 = replicas 2 (slow axis index 1... ) — order: (2,0),(2,12),(3,0),(3,12).
	scrubs := 12.0
	hand := EstimateRequest{
		Replicas: 3, ScrubsPerYear: &scrubs,
		Trials: 60, HorizonYears: 50, Seed: &seed,
	}
	handKey, err := hand.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ptKey, err := points[3].Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if ptKey != handKey {
		t.Errorf("expanded point fingerprint %s != hand-built request fingerprint %s", ptKey, handKey)
	}

	// min_intact 0 and 1 canonicalize identically, so a sweep over both
	// yields colliding fingerprints — the dedupe satellite's substrate.
	collide := Document{
		V:    Version,
		Base: EstimateRequest{Trials: 60},
		Grid: []Axis{{Param: "min_intact", Values: []float64{0, 1}}},
	}
	cp, err := Expand(collide)
	if err != nil {
		t.Fatal(err)
	}
	k0, err := cp[0].Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := cp[1].Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if k0 != k1 {
		t.Errorf("min_intact 0 and 1 fingerprints differ: %s vs %s", k0, k1)
	}
}
