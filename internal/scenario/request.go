package scenario

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/aging"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/storage"
)

// HazardSpec is a non-stationary fault profile on the wire: a named kind
// plus that kind's parameters. It builds the faults.Hazard that scales
// both fault channels over replica age (docs/MODEL.md §Hazard profiles):
//
//	{"kind": "constant", "factor": 2}
//	{"kind": "weibull", "shape": 2, "scale_hours": 50000}
//	{"kind": "bathtub", "burn_in_hours": 8760, "burn_in_factor": 4,
//	                    "wear_onset_hours": 43800, "wear_factor": 8}
//	{"kind": "piecewise", "bounds_hours": [1000], "factors": [3, 1]}
//
// Setting a parameter that does not belong to the kind is an error, so a
// typo ("shape" on a bathtub) fails loudly instead of silently sweeping
// the default. NormalizeHours, valid with any kind, rescales the profile
// so its mean multiplier over that horizon is exactly 1 — the
// equal-mean-rate framing for "does the time profile itself matter?"
// comparisons (experiment E17).
type HazardSpec struct {
	// Kind names the profile: "constant", "weibull", "bathtub", or
	// "piecewise".
	Kind string `json:"kind"`
	// Factor is the constant profile's multiplier.
	Factor float64 `json:"factor,omitempty"`
	// Shape and ScaleHours parameterize the Weibull profile (shape >= 1).
	Shape      float64 `json:"shape,omitempty"`
	ScaleHours float64 `json:"scale_hours,omitempty"`
	// BurnInHours/BurnInFactor and WearOnsetHours/WearFactor parameterize
	// the bathtub profile (aging.Bathtub).
	BurnInHours    float64 `json:"burn_in_hours,omitempty"`
	BurnInFactor   float64 `json:"burn_in_factor,omitempty"`
	WearOnsetHours float64 `json:"wear_onset_hours,omitempty"`
	WearFactor     float64 `json:"wear_factor,omitempty"`
	// BoundsHours and Factors parameterize the piecewise profile
	// (faults.NewPiecewiseHazard).
	BoundsHours []float64 `json:"bounds_hours,omitempty"`
	Factors     []float64 `json:"factors,omitempty"`
	// NormalizeHours, when positive, wraps the profile in
	// faults.Normalize over this horizon (mean multiplier 1).
	NormalizeHours float64 `json:"normalize_hours,omitempty"`
}

// hazardKindParams maps each kind to its parameter fields, as wire
// names. It drives the wrong-kind rejection in Build and, read in
// reverse by hazardAxisKind, the axis/kind check in scenario validation.
var hazardKindParams = map[string][]string{
	"constant":  {"factor"},
	"weibull":   {"shape", "scale_hours"},
	"bathtub":   {"burn_in_hours", "burn_in_factor", "wear_onset_hours", "wear_factor"},
	"piecewise": {"bounds_hours", "factors"},
}

// setFields returns the names of the kind-specific parameters the spec
// sets (NormalizeHours is kind-independent and excluded).
func (h HazardSpec) setFields() []string {
	var out []string
	if h.Factor != 0 {
		out = append(out, "factor")
	}
	if h.Shape != 0 {
		out = append(out, "shape")
	}
	if h.ScaleHours != 0 {
		out = append(out, "scale_hours")
	}
	if h.BurnInHours != 0 {
		out = append(out, "burn_in_hours")
	}
	if h.BurnInFactor != 0 {
		out = append(out, "burn_in_factor")
	}
	if h.WearOnsetHours != 0 {
		out = append(out, "wear_onset_hours")
	}
	if h.WearFactor != 0 {
		out = append(out, "wear_factor")
	}
	if h.BoundsHours != nil {
		out = append(out, "bounds_hours")
	}
	if h.Factors != nil {
		out = append(out, "factors")
	}
	return out
}

// Build constructs the faults.Hazard the spec describes, rejecting
// unknown kinds and parameters that belong to a different kind.
func (h HazardSpec) Build() (faults.Hazard, error) {
	fields, ok := hazardKindParams[h.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown hazard kind %q (valid: constant, weibull, bathtub, piecewise)", h.Kind)
	}
	allowed := make(map[string]bool, len(fields))
	for _, f := range fields {
		allowed[f] = true
	}
	for _, f := range h.setFields() {
		if !allowed[f] {
			return nil, fmt.Errorf("hazard parameter %q does not apply to kind %q (its parameters: %s)",
				f, h.Kind, strings.Join(fields, ", "))
		}
	}
	var built faults.Hazard
	var err error
	switch h.Kind {
	case "constant":
		built, err = faults.NewConstantHazard(h.Factor)
	case "weibull":
		built, err = faults.NewWeibullHazard(h.Shape, h.ScaleHours)
	case "bathtub":
		built, err = aging.Bathtub(h.BurnInHours, h.BurnInFactor, h.WearOnsetHours, h.WearFactor)
	case "piecewise":
		built, err = faults.NewPiecewiseHazard(h.BoundsHours, h.Factors)
	}
	if err != nil {
		return nil, err
	}
	if h.NormalizeHours != 0 {
		if h.NormalizeHours < 0 || math.IsNaN(h.NormalizeHours) || math.IsInf(h.NormalizeHours, 0) {
			return nil, fmt.Errorf("normalize_hours %v must be positive and finite", h.NormalizeHours)
		}
		return faults.Normalize(built, h.NormalizeHours)
	}
	return built, nil
}

// FleetEntry is one replica of a heterogeneous fleet on the wire: either
// a named tier (resolved by storage.TierSpec, so CLI and daemon agree on
// what "consumer" means) or explicit storage.Spec numbers, with explicit
// fields overriding the tier's. JSON cannot carry +Inf, so a negative
// mean disables that fault channel; a custom entry that omits
// latent_mean_hours has no latent channel at all.
type FleetEntry struct {
	Tier             string  `json:"tier,omitempty"`
	Label            string  `json:"label,omitempty"`
	VisibleMeanHours float64 `json:"visible_mean_hours,omitempty"`
	LatentMeanHours  float64 `json:"latent_mean_hours,omitempty"`
	// ScrubsPerYear: 0 means "keep the tier's frequency" (or never, for
	// a custom entry); negative means explicitly never audited — the
	// escape hatch for overriding a tier back to zero.
	ScrubsPerYear     float64 `json:"scrubs_per_year,omitempty"`
	ScrubOffsetHours  float64 `json:"scrub_offset_hours,omitempty"`
	RepairHours       float64 `json:"repair_hours,omitempty"`
	AccessRatePerHour float64 `json:"access_rate_per_hour,omitempty"`
	AccessCoverage    float64 `json:"access_coverage,omitempty"`
	// Hazard, when non-nil, makes this replica's fault channels
	// non-stationary (see HazardSpec). Tiers carry no profile, so there
	// is nothing to override: the entry's profile is always the final one.
	Hazard *HazardSpec `json:"hazard,omitempty"`
}

// WireFloat maps a fault mean onto its wire form: JSON cannot carry
// +Inf, so a disabled channel travels as -1. The inverse lives in
// EstimateRequest.Build / FleetEntry.spec.
func WireFloat(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

// FleetEntryFromSpec converts a resolved storage spec into its wire
// form, mapping +Inf means onto the negative-disables convention. A
// hazard profile is not reverse-mapped: named tiers never carry one, and
// a built faults.Hazard has no canonical wire decomposition.
func FleetEntryFromSpec(s storage.Spec) FleetEntry {
	return FleetEntry{
		Label:             s.Label,
		VisibleMeanHours:  WireFloat(s.VisibleMean),
		LatentMeanHours:   WireFloat(s.LatentMean),
		ScrubsPerYear:     s.ScrubsPerYear,
		ScrubOffsetHours:  s.ScrubOffset,
		RepairHours:       s.RepairHours,
		AccessRatePerHour: s.AccessRatePerHour,
		AccessCoverage:    s.AccessCoverage,
	}
}

// defaultScrubsMatters reports whether the entry's resolved audit
// frequency follows the request-level scrubs_per_year default: true
// only for tier entries that neither pin their own frequency nor name
// a tier that ignores the default (tape audits once a year regardless).
// Custom entries never consume the default. Scenario validation uses
// this to reject scrubs_per_year axes that could not move any replica.
func (e FleetEntry) defaultScrubsMatters() bool {
	if e.Tier == "" || e.ScrubsPerYear != 0 {
		return false
	}
	a, ok := storage.TierSpec(e.Tier, 1)
	if !ok {
		return false
	}
	b, _ := storage.TierSpec(e.Tier, 2)
	return a.ScrubsPerYear != b.ScrubsPerYear
}

// spec resolves the entry into a storage.Spec. defaultScrubs applies to
// tiers that do not set their own audit frequency.
func (e FleetEntry) spec(defaultScrubs float64) (storage.Spec, error) {
	var s storage.Spec
	if e.Tier != "" {
		t, ok := storage.TierSpec(e.Tier, defaultScrubs)
		if !ok {
			return storage.Spec{}, fmt.Errorf("unknown tier %q (valid: %s)", e.Tier, strings.Join(storage.TierNames(), ", "))
		}
		s = t
	} else {
		s = storage.Spec{Label: "custom", LatentMean: math.Inf(1)}
	}
	if e.Label != "" {
		s.Label = e.Label
	}
	unfinite := func(v float64) float64 {
		if v < 0 {
			return math.Inf(1)
		}
		return v
	}
	if e.VisibleMeanHours != 0 {
		s.VisibleMean = unfinite(e.VisibleMeanHours)
	}
	if e.LatentMeanHours != 0 {
		s.LatentMean = unfinite(e.LatentMeanHours)
	}
	switch {
	case e.ScrubsPerYear < 0:
		s.ScrubsPerYear = 0 // never audited
	case e.ScrubsPerYear > 0:
		s.ScrubsPerYear = e.ScrubsPerYear
	}
	if e.ScrubOffsetHours != 0 {
		s.ScrubOffset = e.ScrubOffsetHours
	}
	if e.RepairHours != 0 {
		s.RepairHours = e.RepairHours
	}
	if e.AccessRatePerHour != 0 {
		s.AccessRatePerHour = e.AccessRatePerHour
	}
	if e.AccessCoverage != 0 {
		s.AccessCoverage = e.AccessCoverage
	}
	if e.Hazard != nil {
		h, err := e.Hazard.Build()
		if err != nil {
			return storage.Spec{}, fmt.Errorf("hazard: %w", err)
		}
		s.Hazard = h
	}
	return s, nil
}

// DefaultTrials is the wire default Monte Carlo budget for fixed-trial
// requests that omit "trials" — shared by Build and the daemon policy
// clamp so both agree on what a budget-less request means.
const DefaultTrials = 1000

// EstimateRequest is one estimation query: the uniform-fleet shorthand
// (mirroring cmd/ltsim's flags and their defaults) or an explicit Fleet,
// plus the Monte Carlo options that shape the result. Omitted fields take
// the same defaults as the CLI, so the CLI in client mode and a hand-rolled
// curl body describing the same system build the same sim.Config — and
// therefore the same cache key.
type EstimateRequest struct {
	// Replicas is the uniform-fleet copy count (default 2). Ignored when
	// Fleet is set.
	Replicas int `json:"replicas,omitempty"`
	// MinIntact is the recovery threshold: 1 for replication (default),
	// m for an m-of-n erasure code.
	MinIntact int `json:"min_intact,omitempty"`
	// VisibleMeanHours / LatentMeanHours are the uniform per-replica
	// fault means (defaults: the paper's Cheetah MV and ML). Negative
	// disables the channel.
	VisibleMeanHours float64 `json:"visible_mean_hours,omitempty"`
	LatentMeanHours  float64 `json:"latent_mean_hours,omitempty"`
	// RepairVisibleHours / RepairLatentHours are the uniform automated
	// repair times (defaults: the paper's MRV and MRL).
	RepairVisibleHours float64 `json:"repair_visible_hours,omitempty"`
	RepairLatentHours  float64 `json:"repair_latent_hours,omitempty"`
	// ScrubsPerYear is the uniform periodic audit frequency; nil means
	// the paper's 3/year, explicit 0 means never audited.
	ScrubsPerYear *float64 `json:"scrubs_per_year,omitempty"`
	// Alpha is the §5.3 correlation factor in (0,1]; 0 means 1
	// (independent).
	Alpha float64 `json:"alpha,omitempty"`
	// RepairBugProb and AuditWearProb are the §6.6 side-effect
	// probabilities.
	RepairBugProb float64 `json:"repair_bug_prob,omitempty"`
	AuditWearProb float64 `json:"audit_wear_prob,omitempty"`
	// Fleet, when non-empty, replaces the uniform shorthand with one
	// entry per replica.
	Fleet []FleetEntry `json:"fleet,omitempty"`
	// Hazard, when non-nil, applies a non-stationary fault profile to
	// every replica of the uniform fleet (see HazardSpec). Per-entry
	// profiles on Fleet entries take precedence; with a Fleet set, this
	// field fills in entries that carry none, mirroring the simulator's
	// scalar-to-spec inheritance.
	Hazard *HazardSpec `json:"hazard,omitempty"`

	// Trials is the Monte Carlo budget (default 1000). When
	// TargetRelWidth is set it is instead the adaptive run's minimum
	// trial count and defaults to 0 (the simulator's floor).
	Trials int `json:"trials,omitempty"`
	// HorizonYears censors trials (0 = run each to loss).
	HorizonYears float64 `json:"horizon_years,omitempty"`
	// Seed fixes the randomness; nil means 1. A pointer so that an
	// explicit seed 0 stays seed 0.
	Seed *uint64 `json:"seed,omitempty"`
	// Level is the confidence level in (0,1); 0 means 0.95.
	Level float64 `json:"level,omitempty"`

	// TargetRelWidth, when positive, makes the run adaptive: it stops at
	// the first batch boundary where the stopping interval's relative
	// half-width reaches the target (see sim.Options.TargetRelWidth).
	// Adaptive results are deterministic and cacheable: the stopping
	// rule joins the canonical key, the realized trial count does not.
	TargetRelWidth float64 `json:"target_rel_width,omitempty"`
	// MaxTrials caps an adaptive run (0 = the simulator's 1<<20
	// default). Ignored for fixed-trial runs.
	MaxTrials int `json:"max_trials,omitempty"`
	// Bias controls importance-sampled failure biasing for rare-event
	// runs: 0 (default) is plain Monte Carlo, -1 asks the analytic
	// model to choose the boost factor β from the configuration and
	// horizon, and any value >= 1 is used as β directly. Biased runs
	// require a horizon and report the Horvitz–Thompson weighted
	// estimate with its effective sample size. Mirrors
	// sim.Options.Bias (-1 is sim.AutoBias).
	Bias float64 `json:"bias,omitempty"`

	// Progress asks /estimate to stream NDJSON progress frames followed
	// by the final result frame, instead of a single JSON body. It is
	// transport, not configuration: it does not shape the result and is
	// excluded from the canonical key, so a progress-streamed run and a
	// plain run of the same request share one cache entry.
	Progress bool `json:"progress,omitempty"`
}

// MaxReplicas bounds one request's replica count, scalar or fleet.
// Validation, the canonical key and every trial are linear in it, so an
// unbounded count from the wire would let one small body pin a CPU or
// exhaust memory before any simulation starts.
const MaxReplicas = 1024

// Build assembles the simulator configuration and options the request
// describes. The result is not yet validated beyond what construction
// requires; sim.Fingerprint / sim.NewRunner validate fully.
func (r EstimateRequest) Build() (sim.Config, sim.Options, error) {
	n := r.Replicas
	if len(r.Fleet) > 0 {
		n = len(r.Fleet)
	}
	if n > MaxReplicas {
		return sim.Config{}, sim.Options{}, fmt.Errorf("replicas %d exceeds the limit of %d", n, MaxReplicas)
	}
	scrubs := 3.0
	if r.ScrubsPerYear != nil {
		scrubs = *r.ScrubsPerYear
	}
	alpha := r.Alpha
	if alpha == 0 {
		alpha = 1
	}
	corr, err := faults.NewCorrelation(alpha)
	if err != nil {
		return sim.Config{}, sim.Options{}, err
	}

	var hazard faults.Hazard
	if r.Hazard != nil {
		h, err := r.Hazard.Build()
		if err != nil {
			return sim.Config{}, sim.Options{}, fmt.Errorf("hazard: %w", err)
		}
		hazard = h
	}

	var cfg sim.Config
	if len(r.Fleet) > 0 {
		specs := make([]storage.Spec, len(r.Fleet))
		for i, e := range r.Fleet {
			s, err := e.spec(scrubs)
			if err != nil {
				return sim.Config{}, sim.Options{}, fmt.Errorf("fleet entry %d: %w", i, err)
			}
			if s.Hazard == nil {
				s.Hazard = hazard
			}
			specs[i] = s
		}
		built, err := storage.FleetConfig(specs...)
		if err != nil {
			return sim.Config{}, sim.Options{}, err
		}
		cfg = built
	} else {
		orDefault := func(v, def float64) float64 {
			switch {
			case v < 0:
				return math.Inf(1)
			case v == 0:
				return def
			}
			return v
		}
		// Repairs cannot be disabled: the negative-disables convention
		// applies only to fault means. Checked in a fixed order, so a
		// request with both wrong always gets the same error.
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"repair_visible_hours", r.RepairVisibleHours},
			{"repair_latent_hours", r.RepairLatentHours},
		} {
			if f.v < 0 || math.IsInf(f.v, 1) {
				return sim.Config{}, sim.Options{}, fmt.Errorf("%s %v must be positive and finite", f.name, f.v)
			}
		}
		rep, err := repair.Automated(
			orDefault(r.RepairVisibleHours, model.PaperMRV),
			orDefault(r.RepairLatentHours, model.PaperMRL),
			r.RepairBugProb)
		if err != nil {
			return sim.Config{}, sim.Options{}, err
		}
		var strat scrub.Strategy = scrub.None{}
		if scrubs > 0 {
			p, err := scrub.NewPeriodic(scrubs, 0)
			if err != nil {
				return sim.Config{}, sim.Options{}, err
			}
			strat = p
		}
		replicas := r.Replicas
		if replicas == 0 {
			replicas = 2
		}
		cfg = sim.Config{
			Replicas:    replicas,
			VisibleMean: orDefault(r.VisibleMeanHours, model.PaperMV),
			LatentMean:  orDefault(r.LatentMeanHours, model.PaperML),
			Scrub:       strat,
			Repair:      rep,
			Hazard:      hazard,
		}
	}
	cfg.MinIntact = r.MinIntact
	cfg.Correlation = corr
	cfg.AuditLatentFaultProb = r.AuditWearProb

	trials := r.Trials
	if trials == 0 && r.TargetRelWidth == 0 {
		trials = DefaultTrials
	}
	var seed uint64 = 1
	if r.Seed != nil {
		seed = *r.Seed
	}
	opt := sim.Options{
		Trials:         trials,
		Horizon:        model.YearsToHours(r.HorizonYears),
		Seed:           seed,
		Level:          r.Level,
		TargetRelWidth: r.TargetRelWidth,
		MaxTrials:      r.MaxTrials,
		Bias:           r.Bias,
	}
	return cfg, opt, nil
}

// Fingerprint builds the request and returns its sim.Fingerprint cache
// key — the content address a daemon without request policy would use.
func (r EstimateRequest) Fingerprint() (string, error) {
	cfg, opt, err := r.Build()
	if err != nil {
		return "", err
	}
	return sim.Fingerprint(cfg, opt)
}
