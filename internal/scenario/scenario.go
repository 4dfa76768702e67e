// Package scenario is the declarative, versioned vocabulary for naming
// simulations: one Document describes a base system plus named sweep
// axes, and every frontend — cmd/ltsim (-scenario), the ltsimd daemon
// (POST /scenarios/expand, scenario-driven POST /sweep), and the
// experiment harness — expands it through the same deterministic path.
// The paper's analyses are parameter sweeps (§5.4–§6.6: replication
// levels, scrub schedules, correlation α, mixed fleets); a scenario
// document is such a sweep as data instead of code.
//
// # Schema (v1)
//
// A document is JSON with a mandatory version tag:
//
//	{
//	  "v": 1,
//	  "name": "replication-vs-correlation",      // optional label
//	  "base": { ... },                           // an EstimateRequest
//	  "grid": [ {axis}, ... ],                   // cartesian axes
//	  "zip":  [ {axis}, ... ]                    // paired axes
//	}
//
// "base" is the full wire request vocabulary (EstimateRequest): the
// uniform-fleet scalars or an explicit "fleet" of tiers, plus the run
// options (trials, seed, horizon_years, level, target_rel_width,
// max_trials). Omitted base fields keep the wire defaults.
//
// An axis sweeps one named parameter over explicit values:
//
//	{"param": "replicas", "values": [2, 3, 4]}
//	{"param": "scrubs_per_year", "values": [0, 3, 12]}
//	{"param": "tier", "tiers": ["consumer", "enterprise"], "replica": 0}
//
// Scalar params (swept via "values"): replicas, min_intact,
// visible_mean_hours, latent_mean_hours, repair_visible_hours,
// repair_latent_hours, scrubs_per_year, alpha, repair_bug_prob,
// audit_wear_prob, trials, max_trials, horizon_years, seed, level,
// target_rel_width, bias, and the hazard-profile params (hazard.factor,
// hazard.shape, hazard.scale_hours, hazard.burn_in_hours,
// hazard.burn_in_factor, hazard.wear_onset_hours, hazard.wear_factor,
// hazard.normalize_hours) — these last require "base" to declare a
// "hazard" of the matching kind and sweep its fields in place.
// Negative means disable a fault channel, exactly as
// on a single request; scrubs_per_year 0 means never audited (the axis
// value is always explicit), while params whose wire 0 means "use the
// default" (alpha, level, the mean and repair scalars, max_trials)
// reject an axis value of 0 — sweeping a silent default is never what
// the author meant. The uniform-fleet params (replicas, the mean and
// repair scalars, repair_bug_prob) cannot be swept when "base" declares
// a fleet, and neither can scrubs_per_year when no fleet entry follows
// the request-level audit default — they would be silently inert.
//
// The "tier" param substitutes named storage tiers into the base fleet
// (swept via "tiers"); "replica" selects which fleet entry it rewrites
// (omitted = every entry). Explicit per-entry overrides survive the
// substitution, per the FleetEntry contract.
//
// # Expansion
//
// Expansion order is deterministic and documented: grid axes nest in
// document order with the first axis varying slowest and the last
// fastest, and the zip block — whose axes must share one length and
// advance together — forms one compound axis nested innermost (fastest).
// A document with no axes expands to its base alone. Each Point carries
// its expansion index, the coordinate values that produced it, and the
// fully-applied EstimateRequest.
//
// # Canonicalization
//
// A point is just a request: fingerprinting goes through
// EstimateRequest.Build and sim.Fingerprint, so an expanded point
// content-addresses identically to the equivalent hand-built request —
// server-side and client-side expansion of one document share cache
// entries, and equivalent points inside one document (e.g. a min_intact
// 0 vs 1 axis) collide onto a single computation.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Version is the scenario schema version this package implements.
const Version = 1

// MaxPoints bounds one document's expansion, so a small JSON body
// cannot fan out into an unbounded amount of scheduled work.
const MaxPoints = 65536

// MaxFleetEntries bounds the fleet entries one document's expansion
// copies, points × base fleet length: every point carries its own copy
// of the base fleet, so without it a few-KB body with a long fleet and
// a full grid would copy that fleet MaxPoints times. At about 100 bytes
// an entry the bound keeps the copies near the memory of MaxPoints
// points themselves: a 4-entry fleet may still sweep MaxPoints points,
// a MaxReplicas-entry one 256.
const MaxFleetEntries = 1 << 18

// Document is one declarative scenario: a base request plus named sweep
// axes. See the package comment for the schema.
type Document struct {
	// V is the schema version; must be Version.
	V int `json:"v"`
	// Name labels the scenario in reports and summaries.
	Name string `json:"name,omitempty"`
	// Base is the request every point starts from.
	Base EstimateRequest `json:"base"`
	// Grid axes expand as a cartesian product, first axis slowest.
	Grid []Axis `json:"grid,omitempty"`
	// Zip axes advance together (all must share one length) and nest
	// innermost of the grid.
	Zip []Axis `json:"zip,omitempty"`
}

// Axis sweeps one named parameter.
type Axis struct {
	// Param names the swept request field, or "tier" for named-tier
	// substitution into the base fleet.
	Param string `json:"param"`
	// Values are the scalar sweep values (every param except "tier").
	Values []float64 `json:"values,omitempty"`
	// Tiers are the named tiers a "tier" axis substitutes.
	Tiers []string `json:"tiers,omitempty"`
	// Replica selects which fleet entry a "tier" axis rewrites; nil
	// rewrites every entry.
	Replica *int `json:"replica,omitempty"`
}

// Coord is one axis coordinate of an expanded point. Value is a
// pointer so that a legitimate 0 coordinate (scrubs_per_year 0,
// repair_bug_prob 0) survives JSON encoding; tier coords carry Tier
// and a nil Value.
type Coord struct {
	Param string   `json:"param"`
	Value *float64 `json:"value,omitempty"`
	Tier  string   `json:"tier,omitempty"`
}

// Point is one expanded scenario point.
type Point struct {
	// Index is the point's position in the deterministic expansion
	// order.
	Index int `json:"index"`
	// Coords records the axis values that produced the point, grid axes
	// first (document order), then zip axes.
	Coords []Coord `json:"coords,omitempty"`
	// Request is the base request with every coordinate applied.
	Request EstimateRequest `json:"request"`
}

// Fingerprint returns the point's content-address: identical to the
// fingerprint of the equivalent hand-built request.
func (p Point) Fingerprint() (string, error) { return p.Request.Fingerprint() }

// Execute builds, fingerprints, and simulates one point locally under
// ctx — the single local execution path shared by `ltsim -scenario` and
// the experiment harness, so every frontend that runs a point itself
// produces exactly what a daemon sweeping the same document would
// compute and cache under key. A cancelled ctx stops the run between
// trials and returns ctx's error. opt is returned alongside the
// estimate because result encodings need the run's horizon.
func (p Point) Execute(ctx context.Context) (key string, est sim.Estimate, opt sim.Options, err error) {
	cfg, opt, err := p.Request.Build()
	if err != nil {
		return "", sim.Estimate{}, sim.Options{}, err
	}
	key, err = sim.Fingerprint(cfg, opt)
	if err != nil {
		return "", sim.Estimate{}, sim.Options{}, err
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return "", sim.Estimate{}, sim.Options{}, err
	}
	est, err = runner.EstimateStream(ctx, opt, nil)
	if err != nil {
		return "", sim.Estimate{}, sim.Options{}, err
	}
	return key, est, opt, nil
}

// Parse decodes and validates a scenario document, rejecting unknown
// fields so typos fail loudly instead of expanding the wrong sweep.
func Parse(data []byte) (Document, error) {
	var d Document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return Document{}, fmt.Errorf("scenario: decoding document: %w", err)
	}
	if err := d.Validate(); err != nil {
		return Document{}, err
	}
	return d, nil
}

// applyScalar sets one scalar param on a request. The table is the
// single source of truth for which params exist; Validate checks
// against it.
var scalarParams = map[string]func(*EstimateRequest, float64){
	"replicas":             func(r *EstimateRequest, v float64) { r.Replicas = int(v) },
	"min_intact":           func(r *EstimateRequest, v float64) { r.MinIntact = int(v) },
	"visible_mean_hours":   func(r *EstimateRequest, v float64) { r.VisibleMeanHours = v },
	"latent_mean_hours":    func(r *EstimateRequest, v float64) { r.LatentMeanHours = v },
	"repair_visible_hours": func(r *EstimateRequest, v float64) { r.RepairVisibleHours = v },
	"repair_latent_hours":  func(r *EstimateRequest, v float64) { r.RepairLatentHours = v },
	"scrubs_per_year":      func(r *EstimateRequest, v float64) { r.ScrubsPerYear = &v },
	"alpha":                func(r *EstimateRequest, v float64) { r.Alpha = v },
	"repair_bug_prob":      func(r *EstimateRequest, v float64) { r.RepairBugProb = v },
	"audit_wear_prob":      func(r *EstimateRequest, v float64) { r.AuditWearProb = v },
	"trials":               func(r *EstimateRequest, v float64) { r.Trials = int(v) },
	"max_trials":           func(r *EstimateRequest, v float64) { r.MaxTrials = int(v) },
	"horizon_years":        func(r *EstimateRequest, v float64) { r.HorizonYears = v },
	"seed":                 func(r *EstimateRequest, v float64) { u := uint64(v); r.Seed = &u },
	"level":                func(r *EstimateRequest, v float64) { r.Level = v },
	"target_rel_width":     func(r *EstimateRequest, v float64) { r.TargetRelWidth = v },
	"bias":                 func(r *EstimateRequest, v float64) { r.Bias = v },

	// Hazard-profile params mutate the base request's hazard spec; axis
	// validation guarantees r.Hazard is non-nil and of the matching kind
	// before any of these run (see hazardAxisKind).
	"hazard.factor":           func(r *EstimateRequest, v float64) { r.Hazard.Factor = v },
	"hazard.shape":            func(r *EstimateRequest, v float64) { r.Hazard.Shape = v },
	"hazard.scale_hours":      func(r *EstimateRequest, v float64) { r.Hazard.ScaleHours = v },
	"hazard.burn_in_hours":    func(r *EstimateRequest, v float64) { r.Hazard.BurnInHours = v },
	"hazard.burn_in_factor":   func(r *EstimateRequest, v float64) { r.Hazard.BurnInFactor = v },
	"hazard.wear_onset_hours": func(r *EstimateRequest, v float64) { r.Hazard.WearOnsetHours = v },
	"hazard.wear_factor":      func(r *EstimateRequest, v float64) { r.Hazard.WearFactor = v },
	"hazard.normalize_hours":  func(r *EstimateRequest, v float64) { r.Hazard.NormalizeHours = v },
}

// hazardAxisKind reports whether param is a hazard.* axis and, if so,
// the profile kind whose field it sweeps, read from hazardKindParams (""
// for normalize_hours, which every kind takes). The base request must
// declare a hazard of that kind, or the axis would sweep a field its
// Build rejects (or, worse for a kind-independent field on a nil hazard,
// sweep nothing).
func hazardAxisKind(param string) (kind string, isHazard bool) {
	field, isHazard := strings.CutPrefix(param, "hazard.")
	if !isHazard {
		return "", false
	}
	for k, fields := range hazardKindParams {
		if slices.Contains(fields, field) {
			return k, true
		}
	}
	return "", true
}

// integerParams must carry non-negative integral values.
var integerParams = map[string]bool{
	"replicas": true, "min_intact": true, "trials": true,
	"max_trials": true, "seed": true,
}

// zeroMeansDefault lists the params whose wire value 0 is the
// "use the default" sentinel: an axis value of 0 there would silently
// sweep the default instead of what the author plausibly meant, so
// Validate rejects it. (trials 0 stays legal — it is the wire's own
// spelling for "the adaptive floor, or the default fixed budget";
// seed/min_intact 0 are real values; a fault channel is disabled with
// a negative mean, never 0.)
var zeroMeansDefault = map[string]string{
	"alpha":                "1 (independent)",
	"level":                "0.95",
	"visible_mean_hours":   "the paper's Cheetah MV",
	"latent_mean_hours":    "the paper's ML",
	"repair_visible_hours": "the paper's MRV",
	"repair_latent_hours":  "the paper's MRL",
	"max_trials":           "the simulator's 1<<20 cap",
}

// fleetOnlyInert lists the params Build ignores when the base declares
// a fleet — sweeping them there would silently do nothing.
var fleetOnlyInert = map[string]bool{
	"replicas": true, "visible_mean_hours": true, "latent_mean_hours": true,
	"repair_visible_hours": true, "repair_latent_hours": true,
	"repair_bug_prob": true,
}

// len returns the axis's value count.
func (a Axis) len() int {
	if a.Param == "tier" {
		return len(a.Tiers)
	}
	return len(a.Values)
}

// validate checks one axis against the document's base.
func (a Axis) validate(block string, base EstimateRequest) error {
	if a.Param == "" {
		return fmt.Errorf("scenario: %s axis has no param", block)
	}
	if a.Param == "tier" {
		if len(a.Tiers) == 0 {
			return fmt.Errorf("scenario: tier axis needs a non-empty \"tiers\" list")
		}
		if len(a.Values) > 0 {
			return fmt.Errorf("scenario: tier axis takes \"tiers\", not \"values\"")
		}
		if len(base.Fleet) == 0 {
			return fmt.Errorf("scenario: tier axis requires a base fleet to substitute into")
		}
		if a.Replica != nil && (*a.Replica < 0 || *a.Replica >= len(base.Fleet)) {
			return fmt.Errorf("scenario: tier axis replica %d out of range [0,%d)", *a.Replica, len(base.Fleet))
		}
		for _, name := range a.Tiers {
			if _, ok := storage.TierSpec(name, 1); !ok {
				return fmt.Errorf("scenario: tier axis names unknown tier %q", name)
			}
		}
		return nil
	}
	if _, ok := scalarParams[a.Param]; !ok {
		return fmt.Errorf("scenario: unknown axis param %q", a.Param)
	}
	if a.Replica != nil {
		return fmt.Errorf("scenario: %q axis: \"replica\" applies only to tier axes", a.Param)
	}
	if len(a.Tiers) > 0 {
		return fmt.Errorf("scenario: %q axis takes \"values\", not \"tiers\"", a.Param)
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("scenario: %q axis has no values", a.Param)
	}
	if len(base.Fleet) > 0 && fleetOnlyInert[a.Param] {
		return fmt.Errorf("scenario: %q axis is inert when the base declares a fleet", a.Param)
	}
	if kind, isHazard := hazardAxisKind(a.Param); isHazard {
		if base.Hazard == nil {
			return fmt.Errorf("scenario: %q axis requires the base to declare a hazard profile", a.Param)
		}
		if kind != "" && base.Hazard.Kind != kind {
			return fmt.Errorf("scenario: %q axis parameterizes a %q hazard, but the base declares kind %q", a.Param, kind, base.Hazard.Kind)
		}
		for _, v := range a.Values {
			// 0 is the wire's "unset" for every hazard field, so a 0
			// coordinate would sweep a spec HazardSpec.Build rejects (or
			// silently drop normalization); fail at validation instead.
			if v == 0 {
				return fmt.Errorf("scenario: %q axis value 0 would read as an unset hazard field; hazard parameters must be positive", a.Param)
			}
		}
	}
	if a.Param == "scrubs_per_year" && len(base.Fleet) > 0 {
		// With a fleet, the request-level frequency is only the default
		// for tier entries that don't pin their own; if no entry follows
		// it, the axis could not move any replica.
		matters := false
		for _, e := range base.Fleet {
			if e.defaultScrubsMatters() {
				matters = true
				break
			}
		}
		if !matters {
			return fmt.Errorf("scenario: scrubs_per_year axis is inert: no fleet entry follows the request-level audit default (custom entries and tiers pinning their own frequency ignore it)")
		}
	}
	for _, v := range a.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: %q axis value %v is not finite (disable a channel with a negative mean)", a.Param, v)
		}
		if integerParams[a.Param] && (v < 0 || v != math.Trunc(v)) {
			return fmt.Errorf("scenario: %q axis value %v must be a non-negative integer", a.Param, v)
		}
		if integerParams[a.Param] && v > 1<<53 {
			// Axis values travel as float64: above 2^53 the written
			// integer and the decoded one can silently differ, and a
			// seed the author never named would be simulated and cached.
			return fmt.Errorf("scenario: %q axis value %v exceeds 2^53 and cannot be represented exactly", a.Param, v)
		}
		if a.Param == "replicas" && v < 1 {
			return fmt.Errorf("scenario: replicas axis value %v must be >= 1 (0 would silently mean the default)", v)
		}
		if def, sentinel := zeroMeansDefault[a.Param]; sentinel && v == 0 {
			return fmt.Errorf("scenario: %q axis value 0 would silently mean the default %s; sweep the value you mean", a.Param, def)
		}
	}
	return nil
}

// conflictKey identifies what an axis overrides, for duplicate
// detection: scalar params by name, tier axes by substituted entry.
func (a Axis) conflictKey() string {
	if a.Param == "tier" {
		if a.Replica == nil {
			return "tier/*"
		}
		return fmt.Sprintf("tier/%d", *a.Replica)
	}
	return a.Param
}

// Validate checks the document's structure: version, base fleet
// length, axis shapes, zip alignment, conflicting axes, and the
// expansion size caps (points, and fleet entries copied).
func (d Document) Validate() error {
	if d.V != Version {
		return fmt.Errorf("scenario: unsupported version %d (this build speaks v%d)", d.V, Version)
	}
	if n := len(d.Base.Fleet); n > MaxReplicas {
		// Every point would fail Build; reject before expanding.
		return fmt.Errorf("scenario: base fleet of %d entries exceeds the limit of %d replicas", n, MaxReplicas)
	}
	seen := make(map[string]bool)
	tierAll, tierSome := false, false
	check := func(block string, axes []Axis) error {
		for _, a := range axes {
			if err := a.validate(block, d.Base); err != nil {
				return err
			}
			key := a.conflictKey()
			if seen[key] {
				return fmt.Errorf("scenario: two axes sweep %s", key)
			}
			seen[key] = true
			if a.Param == "tier" {
				if a.Replica == nil {
					tierAll = true
				} else {
					tierSome = true
				}
			}
		}
		return nil
	}
	if err := check("grid", d.Grid); err != nil {
		return err
	}
	if err := check("zip", d.Zip); err != nil {
		return err
	}
	if tierAll && tierSome {
		return fmt.Errorf("scenario: a whole-fleet tier axis conflicts with per-replica tier axes")
	}
	for _, a := range d.Zip {
		if a.len() != d.Zip[0].len() {
			return fmt.Errorf("scenario: zip axes must share one length: %q has %d values, %q has %d",
				a.Param, a.len(), d.Zip[0].Param, d.Zip[0].len())
		}
	}
	n := d.numPoints()
	if n > MaxPoints {
		return fmt.Errorf("scenario: document expands to %d points, limit %d", n, MaxPoints)
	}
	if f := n * len(d.Base.Fleet); f > MaxFleetEntries {
		return fmt.Errorf("scenario: document expands to %d points of %d fleet entries (%d entries), limit %d", n, len(d.Base.Fleet), f, MaxFleetEntries)
	}
	return nil
}

// numPoints is the expansion size. Callers must have validated axis
// shapes (every axis non-empty, zip aligned).
func (d Document) numPoints() int {
	n := 1
	for _, a := range d.Grid {
		n *= a.len()
		if n > MaxPoints {
			return n // avoid overflow on absurd documents
		}
	}
	if len(d.Zip) > 0 {
		n *= d.Zip[0].len()
	}
	return n
}

// clone deep-copies the request's pointer and slice fields so one
// point's overrides never alias another's (or the base's).
func clone(r EstimateRequest) EstimateRequest {
	if r.ScrubsPerYear != nil {
		v := *r.ScrubsPerYear
		r.ScrubsPerYear = &v
	}
	if r.Seed != nil {
		v := *r.Seed
		r.Seed = &v
	}
	if r.Fleet != nil {
		r.Fleet = append([]FleetEntry(nil), r.Fleet...)
		for i := range r.Fleet {
			if r.Fleet[i].Hazard != nil {
				h := *r.Fleet[i].Hazard
				h.BoundsHours = append([]float64(nil), h.BoundsHours...)
				h.Factors = append([]float64(nil), h.Factors...)
				r.Fleet[i].Hazard = &h
			}
		}
	}
	if r.Hazard != nil {
		h := *r.Hazard
		h.BoundsHours = append([]float64(nil), h.BoundsHours...)
		h.Factors = append([]float64(nil), h.Factors...)
		r.Hazard = &h
	}
	return r
}

// apply writes axis coordinate i into the request and returns the
// coordinate record.
func (a Axis) apply(r *EstimateRequest, i int) Coord {
	if a.Param == "tier" {
		name := a.Tiers[i]
		if a.Replica != nil {
			r.Fleet[*a.Replica].Tier = name
		} else {
			for j := range r.Fleet {
				r.Fleet[j].Tier = name
			}
		}
		return Coord{Param: "tier", Tier: name}
	}
	v := a.Values[i]
	scalarParams[a.Param](r, v)
	return Coord{Param: a.Param, Value: &v}
}

// Expand validates the document and materializes every point in the
// deterministic order the package comment specifies: grid odometer
// (first axis slowest), zip tuple innermost.
func Expand(d Document) ([]Point, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	counts := make([]int, 0, len(d.Grid)+1)
	for _, a := range d.Grid {
		counts = append(counts, a.len())
	}
	zipLen := 1
	if len(d.Zip) > 0 {
		zipLen = d.Zip[0].len()
	}
	counts = append(counts, zipLen)

	total := d.numPoints()
	points := make([]Point, 0, total)
	digits := make([]int, len(counts))
	for idx := 0; idx < total; idx++ {
		rem := idx
		for i := len(counts) - 1; i >= 0; i-- {
			digits[i] = rem % counts[i]
			rem /= counts[i]
		}
		req := clone(d.Base)
		coords := make([]Coord, 0, len(d.Grid)+len(d.Zip))
		for i, a := range d.Grid {
			coords = append(coords, a.apply(&req, digits[i]))
		}
		for _, a := range d.Zip {
			coords = append(coords, a.apply(&req, digits[len(counts)-1]))
		}
		points = append(points, Point{Index: idx, Coords: coords, Request: req})
	}
	return points, nil
}
