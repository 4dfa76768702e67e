// Package sim is the event-driven Monte Carlo simulator of replicated
// long-term storage: the validation substrate for the paper's analytic
// model and the tool for exploring where its approximations break.
//
// A trial simulates r replicas of one unit of data. Each replica suffers
// visible faults (noticed immediately, repaired from a surviving copy)
// and latent faults (silent until an audit, an access, or a subsequent
// visible fault surfaces them). Correlation accelerates fault arrivals on
// healthy replicas while any fault is outstanding (the paper's α), and
// common-cause shocks fault several replicas at once (the Talagala
// shared-component channel). The trial ends when every replica is
// simultaneously faulty — the generalization of the paper's double-fault
// data-loss event — or when the horizon is reached (censored).
//
// # Heterogeneous fleets and the Config → ReplicaSpec migration
//
// The §6.1–§6.2 arguments rest on mixing dissimilar media: consumer next
// to enterprise drives, online disk next to offline tape. Config supports
// this through Specs, a slice of per-replica ReplicaSpec values giving
// each copy its own fault means, audit schedule, access-detection
// channel, repair policy, and site/tier label.
//
// The scalar Config fields (VisibleMean, LatentMean, Scrub, AccessDetect,
// Repair) remain as the uniform shorthand: a Config with only scalars set
// behaves exactly as before — Validate expands it into identical specs,
// and the same seed reproduces byte-identical estimates. Within a spec, a
// zero/nil field inherits the corresponding scalar, so partial overrides
// compose with fleet-wide defaults.
//
// # Time-varying fault processes and trace replay
//
// Fault arrivals default to time-homogeneous Poisson, but a
// ReplicaSpec.Hazard (or the uniform Config.Hazard) attaches a hazard
// profile — constant, piecewise/bathtub (internal/aging.Bathtub),
// Weibull wear-out — that multiplies the channel's base rate over trial
// time, sampled by inverting the profile's integrated hazard
// (faults.Hazard). Profiled runs keep every determinism guarantee below;
// configs without profiles remain byte-identical to historical output,
// both in results and in canonical keys. Recorded fault/repair/access
// event streams (internal/trace) replay through the same trial engine
// via NewReplayRunner. The full probabilistic contract — process
// semantics, the inversion contract, bit-identity, and the
// canonical-key folding — is specified in docs/MODEL.md.
//
// # Streaming estimation, adaptive precision, and the determinism contract
//
// Estimation is a streaming reduce, not a collect-then-aggregate pass:
// each worker owns one reusable trial (the event graph is re-seeded and
// re-armed in place, never rebuilt) and folds every TrialResult into a
// per-batch mergeable accumulator; the worker that finishes a batch
// merges accumulators at fixed batch boundaries (Options.BatchSize
// trials each) in batch-index order. Peak memory is O(batch + losses),
// not O(trials): censored trials collapse to counters, so
// horizon-censored rare-loss runs no longer scale with the budget,
// while run-to-loss runs still retain one loss time per trial for the
// Kaplan–Meier fit. Runner.EstimateStream
// exposes the run as it executes through Progress snapshots.
//
// The determinism contract has two halves:
//
//   - Fixed-trial runs (TargetRelWidth unset) are bit-identical to the
//     historical sequential aggregation for the same (config, seed,
//     trials) — regardless of Parallel and BatchSize. Integer aggregates
//     merge exactly, the Kaplan–Meier fit depends only on the
//     observation multiset, and the order-sensitive reductions (the
//     Welford pass over loss times and, in biased runs, the weighted
//     estimators) replay each batch's observations in trial order during
//     the merge. golden_test.go pins this to the bit; bias_test.go pins
//     the weighted counterpart.
//
//   - Adaptive runs (TargetRelWidth > 0) stop at the first batch
//     boundary where the stopping interval's relative half-width meets
//     the target (the LossProb Wilson interval under a Horizon, else the
//     MTTDL t-interval), bounded by [Trials, MaxTrials]. Decisions are
//     evaluated only over in-order merged batches, so the realized trial
//     count — and therefore the result — is a pure function of (config,
//     seed, target, MaxTrials, BatchSize), never of Parallel or timing.
//
// Importance-sampled runs (Options.Bias non-zero: an explicit factor or
// AutoBias) keep both halves of the contract. Each trial's likelihood-
// ratio weight is computed inside the trial from the same event stream —
// biasing reshapes hazard draws, never the number or order of random
// draws consumed per event — and the weighted (Horvitz–Thompson)
// estimators are replay-merged in batch order exactly like the Welford
// pass, so a biased run is bit-identical at any Parallel/BatchSize and
// its adaptive variant stops deterministically on the weighted CI.
// Unbiased runs never touch the weighted path: their results and
// canonical keys are byte-identical to pre-bias builds.
//
// Canonical/Fingerprint encode the stopping rule into adaptive cache
// keys and the resolved bias factor into biased keys (AutoBias folds to
// the factor it resolves to, so auto and equivalent-explicit requests
// share a cache entry), while fixed-trial unbiased keys keep their
// historical form.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/scrub"
)

// ErrInvalidConfig reports a simulator configuration outside its domain.
var ErrInvalidConfig = errors.New("sim: invalid config")

// ReplicaSpec describes one replica of a (possibly heterogeneous) fleet:
// its fault behaviour, detection channels, repair policy, and a label
// naming the site or storage tier it models. Zero/nil fields inherit the
// corresponding Config scalar, so a spec can override just the dimensions
// on which a replica differs from the fleet default.
type ReplicaSpec struct {
	// Label names the site or storage tier ("consumer-disk",
	// "tape-shelf", "site-B"). Informational: reports and traces use it;
	// the dynamics do not.
	Label string
	// VisibleMean is this replica's mean time to a visible fault in
	// hours (+Inf disables the channel; 0 inherits Config.VisibleMean).
	VisibleMean float64
	// LatentMean is this replica's mean time to a latent fault in hours
	// (+Inf disables the channel; 0 inherits Config.LatentMean).
	LatentMean float64
	// Scrub schedules this replica's proactive audits (nil inherits
	// Config.Scrub).
	Scrub scrub.Strategy
	// AccessDetect is this replica's §4.1 user-access detection channel
	// (nil inherits Config.AccessDetect, which may itself be nil = none).
	AccessDetect scrub.Strategy
	// Repair is this replica's recovery policy. The zero Policy (no
	// samplers set) inherits Config.Repair.
	Repair repair.Policy
	// Hazard, when non-nil, makes both of this replica's fault channels
	// time-varying: the instantaneous hazard at trial time t is the
	// channel's base rate (1/mean) times the profile's multiplier φ(t),
	// sampled by inversion (see faults.Hazard and docs/MODEL.md). nil
	// inherits Config.Hazard, which may itself be nil — the
	// time-homogeneous default, byte-identical to historical behaviour.
	// Incompatible with Options.Bias (the likelihood-ratio bookkeeping
	// assumes constant armed rates); EstimateStream rejects the
	// combination.
	Hazard faults.Hazard
}

// inheritsRepair reports whether the spec's Repair field is the zero
// Policy placeholder that inherits the Config scalar.
func (s ReplicaSpec) inheritsRepair() bool {
	return s.Repair.Visible == nil && s.Repair.Latent == nil
}

// validate checks a fully-resolved spec (after scalar inheritance).
func (s ReplicaSpec) validate(i int) error {
	// Fields are checked in a fixed order (a slice, not a map), so a
	// config with several bad fields always reports the same one.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"visible mean", s.VisibleMean},
		{"latent mean", s.LatentMean},
	} {
		if math.IsNaN(f.v) || f.v <= 0 {
			return fmt.Errorf("%w: replica %d %s %v must be positive (use +Inf to disable)", ErrInvalidConfig, i, f.name, f.v)
		}
	}
	if s.Scrub == nil {
		return fmt.Errorf("%w: replica %d has no scrub strategy (use scrub.None{})", ErrInvalidConfig, i)
	}
	if err := s.Repair.Validate(); err != nil {
		return fmt.Errorf("%w: replica %d: %v", ErrInvalidConfig, i, err)
	}
	if s.Hazard != nil {
		if err := s.Hazard.Validate(); err != nil {
			return fmt.Errorf("%w: replica %d hazard profile: %v", ErrInvalidConfig, i, err)
		}
	}
	return nil
}

// Config describes one replicated-storage system.
type Config struct {
	// Replicas is the number of copies r (>= 1). For an erasure-coded
	// object it is the number of fragments n. May be left 0 when Specs
	// is non-empty, in which case len(Specs) is the replica count.
	Replicas int
	// MinIntact is the number of intact replicas required to recover the
	// data: 1 for plain replication (any surviving copy suffices, the
	// paper's model), m for an m-of-n erasure code (§7, the
	// Weatherspoon/OceanStore design point). 0 defaults to 1.
	MinIntact int
	// Specs, if non-empty, gives each replica its own fault means, audit
	// schedule, detection channel, repair policy, and tier label — the
	// §6.1–§6.2 heterogeneous-fleet configuration. Must have exactly
	// Replicas entries (or leave Replicas 0 to derive the count). Zero
	// and nil spec fields inherit the scalar shorthand below. When Specs
	// is empty, the scalars describe every replica uniformly.
	Specs []ReplicaSpec
	// VisibleMean is the per-replica mean time to a visible fault (the
	// model's MV), in hours. +Inf disables the channel.
	VisibleMean float64
	// LatentMean is the per-replica mean time to a latent fault (ML), in
	// hours. +Inf disables the channel.
	LatentMean float64
	// Scrub schedules proactive audits of each replica; audits detect
	// outstanding latent faults. scrub.None{} for a system that never
	// audits.
	Scrub scrub.Strategy
	// AccessDetect, if non-nil, is the §4.1 user-access detection
	// channel: an additional, usually very slow, detector for latent
	// faults (typically scrub.OnAccess).
	AccessDetect scrub.Strategy
	// Repair is the recovery policy for detected faults.
	Repair repair.Policy
	// Hazard, when non-nil, applies one hazard profile uniformly: every
	// replica whose spec leaves Hazard nil inherits it, making the whole
	// fleet's fault arrivals time-varying (same-batch aging, the §6.5
	// bathtub). nil keeps the time-homogeneous default.
	Hazard faults.Hazard
	// Correlation is the inter-replica fault acceleration model (the
	// paper's α). faults.Independent{} for independent replicas.
	Correlation faults.Correlation
	// Shocks are common-cause fault sources hitting several replicas at
	// once (shared power, admin domains, disasters).
	Shocks []faults.Shock
	// AuditLatentFaultProb is the §6.6 audit side effect: the
	// probability that one audit pass plants a new latent fault on the
	// audited replica (media wear, handling).
	AuditLatentFaultProb float64
	// AuditVisibleFaultProb is the probability that one audit pass
	// destroys the replica outright (offline-media handling accidents).
	AuditVisibleFaultProb float64
}

// HasHazard reports whether any resolved replica carries a hazard
// profile, i.e. whether the configuration's fault arrivals are
// time-varying. Biased estimation rejects such configs (the
// likelihood-ratio bookkeeping assumes constant armed rates) and
// ModelParams callers should know the closed forms see only the base
// rates.
func (c Config) HasHazard() bool {
	if c.Hazard != nil {
		return true
	}
	for _, s := range c.Specs {
		if s.Hazard != nil {
			return true
		}
	}
	return false
}

// NumReplicas returns the effective replica count: len(Specs) when specs
// are given, else the Replicas scalar.
func (c Config) NumReplicas() int {
	if len(c.Specs) > 0 {
		return len(c.Specs)
	}
	return c.Replicas
}

// resolveSpec returns replica i's fully-resolved spec: the explicit
// Specs[i] entry (when present) with zero/nil fields filled from the
// uniform scalar shorthand.
func (c Config) resolveSpec(i int) ReplicaSpec {
	var s ReplicaSpec
	if i < len(c.Specs) {
		s = c.Specs[i]
	}
	if s.VisibleMean == 0 {
		s.VisibleMean = c.VisibleMean
	}
	if s.LatentMean == 0 {
		s.LatentMean = c.LatentMean
	}
	if s.Scrub == nil {
		s.Scrub = c.Scrub
	}
	if s.AccessDetect == nil {
		s.AccessDetect = c.AccessDetect
	}
	if s.inheritsRepair() {
		s.Repair = c.Repair
	}
	if s.Hazard == nil {
		s.Hazard = c.Hazard
	}
	return s
}

// ReplicaSpecs expands the configuration into one fully-resolved spec
// per replica. For a uniform Config every entry is identical; for a
// heterogeneous one each entry reflects its Specs override. The trial
// engine consumes this expansion, so uniform shorthand and explicit
// identical specs are byte-for-byte equivalent under the same seed.
func (c Config) ReplicaSpecs() []ReplicaSpec {
	out := make([]ReplicaSpec, c.NumReplicas())
	for i := range out {
		out[i] = c.resolveSpec(i)
	}
	return out
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	n := c.NumReplicas()
	if n < 1 {
		return fmt.Errorf("%w: replicas %d must be >= 1", ErrInvalidConfig, n)
	}
	if len(c.Specs) > 0 {
		if c.Replicas != 0 && c.Replicas != len(c.Specs) {
			return fmt.Errorf("%w: %d specs for %d replicas", ErrInvalidConfig, len(c.Specs), c.Replicas)
		}
	}
	if c.MinIntact < 0 || c.MinIntact > n {
		return fmt.Errorf("%w: min intact %d must be in [0, %d]", ErrInvalidConfig, c.MinIntact, n)
	}
	anyChannel := len(c.Shocks) > 0
	for i := 0; i < n; i++ {
		s := c.resolveSpec(i)
		if err := s.validate(i); err != nil {
			return err
		}
		if !math.IsInf(s.VisibleMean, 1) || !math.IsInf(s.LatentMean, 1) {
			anyChannel = true
		}
	}
	if !anyChannel {
		return fmt.Errorf("%w: no fault channel configured", ErrInvalidConfig)
	}
	if c.Correlation == nil {
		return fmt.Errorf("%w: nil correlation model (use faults.Independent{})", ErrInvalidConfig)
	}
	// The trial tabulates Acceleration(n) for n = 0..replicas and feeds
	// it to faults.Process.SetAcceleration, which panics below 1; a
	// custom model must fail here, not inside a worker goroutine.
	for k := 0; k <= n; k++ {
		if a := c.Correlation.Acceleration(k); math.IsNaN(a) || math.IsInf(a, 0) || a < 1 {
			return fmt.Errorf("%w: correlation acceleration %v at %d faulty replicas must be finite and >= 1", ErrInvalidConfig, a, k)
		}
	}
	for _, s := range c.Shocks {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		for _, target := range s.Targets {
			if target >= n {
				return fmt.Errorf("%w: shock %q targets replica %d of %d", ErrInvalidConfig, s.Name, target, n)
			}
		}
	}
	for _, f := range []struct {
		name string
		p    float64
	}{
		{"audit latent fault probability", c.AuditLatentFaultProb},
		{"audit visible fault probability", c.AuditVisibleFaultProb},
	} {
		if math.IsNaN(f.p) || f.p < 0 || f.p > 1 {
			return fmt.Errorf("%w: %s %v must be in [0,1]", ErrInvalidConfig, f.name, f.p)
		}
	}
	return nil
}

// ModelParams maps the configuration onto the analytic model's
// parameters for closed-form comparison. Shock channels fold into the
// per-replica fault rates (each replica sees its marginal shock rate);
// detection channels combine as competing processes. Heterogeneous
// fleets use replica 0's spec — topology comparisons keep marginals
// equal by design, and the closed forms assume a uniform fleet anyway.
func (c Config) ModelParams() model.Params {
	spec := c.resolveSpec(0)
	combine := func(mean, extraRate float64) float64 {
		rate := extraRate
		if !math.IsInf(mean, 1) {
			rate += 1 / mean
		}
		if rate == 0 {
			return math.Inf(1)
		}
		return 1 / rate
	}
	// Shock marginal rates by fault class; replicas can differ, use
	// replica 0 — topology comparisons keep marginals equal by design.
	var visShockRate, latShockRate float64
	for _, s := range c.Shocks {
		for _, t := range s.Targets {
			if t != 0 {
				continue
			}
			switch s.Kind {
			case faults.Visible:
				visShockRate += s.PerReplicaRate()
			case faults.Latent:
				latShockRate += s.PerReplicaRate()
			}
			break
		}
	}
	detect := spec.Scrub.MeanDetectionLag()
	if spec.AccessDetect != nil {
		parts := scrub.Combined{Parts: []scrub.Strategy{spec.Scrub, spec.AccessDetect}}
		detect = parts.MeanDetectionLag()
	}
	return model.Params{
		MV:    combine(spec.VisibleMean, visShockRate),
		ML:    combine(spec.LatentMean, latShockRate),
		MRV:   spec.Repair.MeanVisible(),
		MRL:   spec.Repair.MeanLatent(),
		MDL:   detect,
		Alpha: c.Correlation.Alpha(),
	}
}

// PaperConfig returns the simulator configuration matching the paper's
// §5.4 worked scenario: mirrored replicas with the Cheetah parameters,
// the given audits per year (0 = never), and correlation factor alpha.
// As on the wire, alpha 1 means independent replicas and any other value
// must lie in (0, 1].
func PaperConfig(scrubsPerYear, alpha float64) (Config, error) {
	rep, err := repair.Automated(model.PaperMRV, model.PaperMRL, 0)
	if err != nil {
		return Config{}, err
	}
	var strat scrub.Strategy = scrub.None{}
	if scrubsPerYear > 0 {
		p, err := scrub.NewPeriodic(scrubsPerYear, 0)
		if err != nil {
			return Config{}, err
		}
		strat = p
	}
	corr, err := faults.NewCorrelation(alpha)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Replicas:    2,
		VisibleMean: model.PaperMV,
		LatentMean:  model.PaperML,
		Scrub:       strat,
		Repair:      rep,
		Correlation: corr,
	}, nil
}
