// Package repro is a reproduction of Baker, Shah, Rosenthal,
// Roussopoulos, Maniatis, Giuli & Bungale, "A Fresh Look at the
// Reliability of Long-term Digital Storage" (EuroSys 2006): the analytic
// MTTDL model for replicated archival storage under visible, latent, and
// correlated faults, together with the event-driven Monte Carlo simulator
// that validates it and the experiment harness that regenerates every
// figure and numeric claim in the paper.
//
// This file is the public facade over the internal packages. It
// re-exports only what an example, a test, or a README snippet calls,
// plus the types in those names' signatures; the daemon, router,
// result store, wire encodings and hazard profiles are reached through
// the commands (README.md) rather than re-exported. The three layers are:
//
//   - The analytic model (Params and friends): closed forms, eqs 1-12.
//   - The simulator (SimConfig, NewRunner): physical trials of a replica
//     group to first data loss, with scrubbing, repair, correlation,
//     common-cause shocks, and §6.6 side effects.
//   - The experiments (Experiments, ExperimentByID): the paper's
//     §5.4-§6.6 analyses as runnable artifacts.
//
// Quickstart:
//
//	p := repro.PaperScrubbed()            // §5.4: mirrored Cheetahs, 3 scrubs/yr
//	years := repro.Years(p.MTTDL())       // ~5100 (paper's eq-10 view: 6128.7)
//	loss := p.LossProbability(repro.YearsToHours(50))
//
//	cfg, _ := repro.PaperSimConfig(3, 0.1) // same system, physical simulation
//	r, _ := repro.NewRunner(cfg)
//	est, _ := r.Estimate(repro.SimOptions{Trials: 1000, Seed: 1})
//
// Estimation is a streaming reduce with O(batch) memory: instead of a
// fixed budget, ask for a precision target — the run stops at the first
// deterministic batch boundary where the interval is tight enough, so
// the answer depends only on (config, seed, target, cap, batch size),
// never on worker count. Runner.EstimateStream additionally reports
// progress at every boundary:
//
//	est, _ = r.Estimate(repro.SimOptions{
//		Seed:           1,
//		Horizon:        repro.YearsToHours(50),
//		TargetRelWidth: 0.05,            // stop at 5% CI half-width
//		MaxTrials:      1_000_000,
//	})
//
// When loss is genuinely rare — high replication, fast repair — even a
// precision-targeted run burns its budget waiting for losses. Setting
// Bias switches the run to importance sampling: fault hazards on the
// survivors are accelerated while any replica is faulty, each trial
// carries its likelihood-ratio weight, and the Horvitz–Thompson
// weighted estimate is unbiased at a fraction of the trials. Biased
// runs require a Horizon and report Estimate.Bias and
// Estimate.EffectiveSamples:
//
//	est, _ = r.Estimate(repro.SimOptions{
//		Seed:    1,
//		Horizon: repro.YearsToHours(10),
//		Bias:    8,                      // boost factor >= 1
//		Trials:  5000,
//	})
//
// The fault processes are constant-rate by default, as in the paper;
// SimConfig.Hazard makes them non-stationary (burn-in, wear-out).
// docs/MODEL.md specifies the profiles, their sampling by thinning, and
// the determinism contract; `ltsim -hazard` is the command-line route.
//
// # Trace record and replay
//
// A Runner can record every trial's fault/detection/repair events as a
// versioned NDJSON trace (RecordTrace) and replay a recorded stream
// back through the DES (NewReplayRunner + ReplayEstimate). Recording
// runs the same estimation loop as Estimate and only observes it, so
// the recorded run is the run Estimate reports at that seed. Pinned
// replay reproduces the recorded outcomes exactly, while policy replay
// re-decides detection and repair from the current config — the
// counterfactual "what if this fault history had hit a better-run
// fleet". See examples/trace-replay and the internal/trace schema:
//
//	tr, est, _ := r.RecordTrace(repro.SimOptions{Trials: 5000, Seed: 1, Horizon: repro.YearsToHours(30)})
//	rr, _ := repro.NewReplayRunner(cfg, tr, true) // pinned
//	same, _ := rr.ReplayEstimate(repro.SimOptions{Seed: 9})
//
// # Heterogeneous fleets
//
// SimConfig.Specs gives each replica its own fault means, audit
// schedule, detection channel, repair policy, and tier label (§6.1–§6.2);
// FleetConfig builds such a config from named storage specs. The scalar
// SimConfig fields remain the uniform shorthand — a scalar-only config
// expands into identical per-replica specs and stays byte-identical to
// its pre-Specs behavior under the same seed.
//
//	fleet, _ := repro.FleetConfig(        // consumer + enterprise + tape
//		repro.DiskStorageSpec(repro.Barracuda200(), 12),
//		repro.DiskStorageSpec(repro.Cheetah146(), 12),
//		repro.OfflineStorageSpec(tapeShelf, 2e6, 4e5, 1),
//	)
//	r, _ = repro.NewRunner(fleet)
//
// # Scenario documents
//
// A Scenario (internal/scenario) is the declarative, versioned way to
// name a whole family of simulations: a base request plus named sweep
// axes — "grid" axes expand as a cartesian product, "zip" axes advance
// together — over replicas, scrubs/year, α, horizons, trial budgets,
// and named-tier substitutions. Every frontend expands the same
// document through the same deterministic path: `ltsim -scenario`, the
// daemon's POST /sweep and POST /scenarios/expand, and the experiment
// harness.
//
//	doc, _ := repro.ParseScenario([]byte(`{
//	  "v": 1,
//	  "base": {"horizon_years": 50, "trials": 200},
//	  "grid": [{"param": "replicas", "values": [2, 3]}],
//	  "zip":  [{"param": "alpha",           "values": [1, 0.1]},
//	           {"param": "scrubs_per_year", "values": [3, 12]}]
//	}`))
//	points, _ := repro.ExpandScenario(doc) // 4 points, deterministic order
//	for _, pt := range points {
//	    cfg, opt, _ := pt.Request.Build()
//	    key, _ := pt.Fingerprint() // ≡ the equivalent hand-built request's key
//	    _, _, _ = cfg, opt, key    // simulate, or let a daemon sweep it
//	}
//
// # Service, persistence, cluster, observability
//
// cmd/ltsimd serves the estimator as a caching daemon (optionally over
// a crash-safe disk store, -cache-dir), cmd/ltsimr fronts several
// daemons as one consistent-hashed cluster, and both expose Prometheus
// metrics and per-request span logs. README.md documents their wire
// API, guarantees, and operation; they are not re-exported here.
package repro

import (
	"repro/internal/core"
	"repro/internal/costs"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/threat"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- Analytic model (§5) ----

// Params is the paper's model parameter set: MV, ML, MRV, MRL, MDL, and
// the correlation factor Alpha. See eqs 1-12.
type Params = model.Params

// HoursPerYear converts the model's hour timescale to years (8760).
const HoursPerYear = model.HoursPerYear

// Years converts hours to years.
func Years(hours float64) float64 { return model.Years(hours) }

// YearsToHours converts years to hours.
func YearsToHours(years float64) float64 { return model.YearsToHours(years) }

// FaultProbability is eq 1: P(fault within t) for a memoryless process.
func FaultProbability(t, mttf float64) float64 { return model.FaultProbability(t, mttf) }

// PaperNoScrub returns the §5.4 no-auditing scenario (MTTDL 32.0 years).
func PaperNoScrub() Params { return model.PaperNoScrub() }

// PaperScrubbed returns the §5.4 scenario with 3 scrubs/year (eq-10 MTTDL
// 6128.7 years).
func PaperScrubbed() Params { return model.PaperScrubbed() }

// PaperCorrelated returns the §5.4 scenario with α = 0.1 (612.9 years).
func PaperCorrelated() Params { return model.PaperCorrelated() }

// PaperNegligent returns the §5.4 rare-but-unaudited latent scenario
// (eq-11 MTTDL 159.8 years).
func PaperNegligent() Params { return model.PaperNegligent() }

// ---- Monte Carlo simulator ----

// SimConfig describes a replicated storage system for simulation.
type SimConfig = sim.Config

// SimOptions controls a Monte Carlo estimation run. TargetRelWidth and
// MaxTrials switch it to adaptive (precision-targeted) mode; BatchSize
// sets the streaming reduce's merge granularity; Bias enables
// importance-sampled failure biasing for rare-event runs.
type SimOptions = sim.Options

// Estimate is the aggregated outcome of a Monte Carlo run.
type Estimate = sim.Estimate

// Trace is a fully-evented single trial (Figure 1 material).
type Trace = sim.Trace

// Runner executes Monte Carlo estimations.
type Runner = sim.Runner

// NewRunner validates a configuration and returns a Runner.
func NewRunner(cfg SimConfig) (*Runner, error) { return sim.NewRunner(cfg) }

// TraceTrial runs one fully-traced trial.
func TraceTrial(cfg SimConfig, seed uint64, horizon float64) (*Trace, error) {
	return sim.TraceTrial(cfg, seed, horizon)
}

// PaperSimConfig returns the simulator configuration for the §5.4 worked
// scenario with the given audits per year (0 = never) and correlation α
// (1 = independent, otherwise in (0, 1]).
func PaperSimConfig(scrubsPerYear, alpha float64) (SimConfig, error) {
	return sim.PaperConfig(scrubsPerYear, alpha)
}

// FaultTrace is a recorded fault/repair/access event stream over a
// trial set, serializable as versioned NDJSON (see internal/trace for
// the schema and examples/trace-replay for a worked example). Distinct
// from Trace, the single-trial diagnostic event log.
type FaultTrace = trace.Trace

// NewReplayRunner returns a Runner that replays the recorded trace
// through cfg's fleet instead of sampling fresh faults. With pinRepairs
// true the recorded repair completions are honored (a replay reproduces
// the recorded outcomes exactly); false re-decides detection and repair
// from cfg — the counterfactual replay. Use Runner.ReplayEstimate to
// run it; Runner.RecordTrace on an ordinary runner produces traces.
func NewReplayRunner(cfg SimConfig, tr *FaultTrace, pinRepairs bool) (*Runner, error) {
	return sim.NewReplayRunner(cfg, tr, pinRepairs)
}

// ---- Strategies and substrates ----

// PeriodicScrub returns a periodic audit schedule with n audits/year,
// staggered by offset hours.
func PeriodicScrub(perYear, offset float64) (scrub.Periodic, error) {
	return scrub.NewPeriodic(perYear, offset)
}

// NoScrub never audits.
func NoScrub() scrub.Strategy { return scrub.None{} }

// RepairPolicy describes fault recovery (§6.3).
type RepairPolicy = repair.Policy

// AutomatedRepair returns a hot-spare policy with fixed repair times and
// an optional §6.6 bug probability.
func AutomatedRepair(mrv, mrl, bugProb float64) (RepairPolicy, error) {
	return repair.Automated(mrv, mrl, bugProb)
}

// Correlation models inter-replica fault acceleration (§5.3).
type Correlation = faults.Correlation

// IndependentReplicas returns the α = 1 correlation model.
func IndependentReplicas() Correlation { return faults.Independent{} }

// AlphaCorrelation returns the paper's multiplicative-α correlation.
func AlphaCorrelation(alpha float64) (Correlation, error) {
	return faults.NewAlphaCorrelation(alpha)
}

// The two fault classes (§5.1).
const (
	FaultVisible = faults.Visible
	FaultLatent  = faults.Latent
)

// Topology places replicas along the §6.5 independence dimensions.
type Topology = replica.Topology

// §6.5 independence dimensions.
const (
	Geography      = replica.Geography
	Administration = replica.Administration
	Software       = replica.Software
)

// ShockRates configures per-dimension shared-component failure behaviour
// for Topology.CompileShocks.
type ShockRates = replica.ShockRates

// Colocated places r replicas in one machine room sharing every §6.5
// dimension — the cautionary baseline.
func Colocated(r int) Topology { return replica.Colocated(r) }

// GeoDistributed places r replicas in distinct locations but under one
// administration, procurement, software stack, and organization.
func GeoDistributed(r int) Topology { return replica.GeoDistributed(r) }

// FullyIndependent places r replicas differing on every §6.5 dimension —
// the British Library posture.
func FullyIndependent(r int) Topology { return replica.FullyIndependent(r) }

// ---- Storage economics (§6.1-§6.2, §4.3) ----

// DriveSpec is a disk datasheet (§6.1).
type DriveSpec = storage.DriveSpec

// Barracuda200 and Cheetah146 are the paper's §6.1 drives.
func Barracuda200() DriveSpec { return storage.Barracuda200() }
func Cheetah146() DriveSpec   { return storage.Cheetah146() }

// Media describes one replica's storage medium for audit and repair
// economics (§6.2–§6.4).
type Media = storage.Media

// TapeShelf returns an offline tape medium with §6.2's cost structure.
func TapeShelf(capacityGB, readMBps, retrieveHours, handlingProb, wearProb, costPerCycle float64) Media {
	return storage.TapeShelf(capacityGB, readMBps, retrieveHours, handlingProb, wearProb, costPerCycle)
}

// StorageSpec names one replica's storage substrate (drive or medium
// plus audit/repair numbers), ready to bridge into a replica spec.
type StorageSpec = storage.Spec

// DiskStorageSpec derives a StorageSpec from a §6.1 drive datasheet.
func DiskStorageSpec(d DriveSpec, scrubsPerYear float64) StorageSpec {
	return storage.DiskSpec(d, scrubsPerYear)
}

// OfflineStorageSpec derives a StorageSpec from an offline medium; the
// caller supplies the fault means the datasheet cannot predict.
func OfflineStorageSpec(m Media, visibleMean, latentMean, auditsPerYear float64) StorageSpec {
	return storage.OfflineSpec(m, visibleMean, latentMean, auditsPerYear)
}

// FleetConfig assembles a heterogeneous-fleet SimConfig from named
// storage specs: one replica per spec, independent replicas by default.
func FleetConfig(specs ...StorageSpec) (SimConfig, error) {
	return storage.FleetConfig(specs...)
}

// CostPlan describes a preservation system for costing.
type CostPlan = costs.Plan

// FrontierPoint pairs a plan's cost with its modeled reliability.
type FrontierPoint = costs.FrontierPoint

// EvaluatePlan combines a plan with model parameters into a frontier
// point.
func EvaluatePlan(label string, p CostPlan, params Params) (FrontierPoint, error) {
	return costs.Evaluate(label, p, params)
}

// Archive describes an archival collection's size and traffic (§2).
type Archive = workload.Archive

// PhotoService returns the §2 consumer-photo-scale archive preset.
func PhotoService() Archive { return workload.PhotoService() }

// InstitutionalArchive returns a library-scale archive preset.
func InstitutionalArchive() Archive { return workload.InstitutionalArchive() }

// ---- Scenario documents (internal/scenario) ----

// Scenario is a versioned declarative scenario document: a base
// request plus named grid (cartesian) and zip (paired) sweep axes. See
// the internal/scenario package comment for the full v1 schema.
type Scenario = scenario.Document

// ScenarioPoint is one expanded point: its deterministic expansion
// index, the axis coordinates that produced it, and the fully-applied
// request.
type ScenarioPoint = scenario.Point

// ParseScenario decodes and validates a scenario document, rejecting
// unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// ExpandScenario materializes every point of a scenario document in
// its deterministic expansion order (grid odometer, first axis slowest,
// zip tuple innermost). Each point fingerprints identically to the
// equivalent hand-built request.
func ExpandScenario(doc Scenario) ([]ScenarioPoint, error) { return scenario.Expand(doc) }

// ---- High-level assessment (internal/core) ----

// System describes one candidate preservation deployment for one-call
// assessment: drives, placement, audit schedule, economics.
type System = core.System

// SystemEconomics carries the §4.3 cost streams for a System.
type SystemEconomics = core.Economics

// Assessment is everything the library can say about a System.
type Assessment = core.Assessment

// AssessOptions scales the Monte Carlo side of an assessment.
type AssessOptions = core.AssessOptions

// CompareSystems assesses several systems under the same options.
func CompareSystems(systems []System, opt AssessOptions) ([]*Assessment, error) {
	return core.Compare(systems, opt)
}

// Threat is one §3 threat category.
type Threat = threat.Threat

// ThreatCatalogue returns the §3 threats in the paper's order.
func ThreatCatalogue() []Threat { return threat.All() }

// ---- Experiments ----

// Experiment is one registered reproduction target (the index is
// Experiments, or `ltexp -list`).
type Experiment = experiments.Experiment

// ExperimentConfig scales an experiment run.
type ExperimentConfig = experiments.RunConfig

// Experiments returns every registered experiment in index order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment (e.g. "E2").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
