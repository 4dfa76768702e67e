// Package core assembles the paper's contribution into a single
// decision-support API: describe a preservation system once — drives,
// replica placement, audit schedule, repair automation, budget — and get
// back everything §5–§6 can say about it: analytic MTTDL with regime,
// simulated MTTDL with confidence intervals, mission loss probability,
// mission cost, the threats the placement leaves correlated, and the
// ranked strategy advice of §6.
//
// It is the layer a downstream operator uses; the analytic model
// (internal/model), simulator (internal/sim), and economics
// (internal/costs) remain independently usable underneath.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/costs"
	"repro/internal/model"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/threat"
)

// ErrInvalidSystem reports a System description outside the domain.
var ErrInvalidSystem = errors.New("core: invalid system")

// System describes one candidate preservation deployment.
type System struct {
	// Name labels the system in reports.
	Name string
	// Drive is the disk model for every replica.
	Drive storage.DriveSpec
	// Replicas is the number of copies (or erasure fragments).
	Replicas int
	// MinIntact is the copies needed for recovery: 1 for replication
	// (default when 0), m for an m-of-n erasure code.
	MinIntact int
	// Topology optionally places the replicas on the §6.5 independence
	// dimensions; when set it must have exactly Replicas sites. Shared
	// components become common-cause shocks in the simulation.
	Topology *replica.Topology
	// ThreatMeans gives the mean time between failures of one shared
	// component per threat (hours), for topology-derived shocks. Ignored
	// without a Topology.
	ThreatMeans map[threat.Threat]float64
	// ScrubsPerYear is the audit frequency per replica (0 = never).
	ScrubsPerYear float64
	// LatentFactor is the ratio of latent to visible fault rates
	// (default model.SchwarzLatentFactor = 5).
	LatentFactor float64
	// Alpha is residual correlation beyond what the topology explains
	// (default 1).
	Alpha float64
	// RepairHours is the recovery time for a detected fault; 0 defaults
	// to the drive's full-scan (copy) time — the automated hot-spare
	// posture of §6.3.
	RepairHours float64
	// ArchiveGB and MissionYears size the collection and the horizon.
	ArchiveGB    float64
	MissionYears float64
	// Economics holds the cost knobs; zero values cost zero.
	Economics Economics
}

// Economics carries the §4.3 cost streams.
type Economics struct {
	// AuditCostPerPass is the cost of one audit of one drive.
	AuditCostPerPass float64
	// PowerWattsPerDrive is the average draw per drive.
	PowerWattsPerDrive float64
	// PowerCostPerKWh is the electricity price.
	PowerCostPerKWh float64
	// AdminCostPerDriveYear is yearly administration per drive.
	AdminCostPerDriveYear float64
}

// withDefaults fills the documented defaults.
func (s System) withDefaults() System {
	if s.MinIntact == 0 {
		s.MinIntact = 1
	}
	if s.LatentFactor == 0 {
		s.LatentFactor = model.SchwarzLatentFactor
	}
	if s.Alpha == 0 {
		s.Alpha = 1
	}
	if s.RepairHours == 0 {
		s.RepairHours = s.Drive.FullScanHours()
	}
	return s
}

// Validate reports whether the system description is usable.
func (s System) Validate() error {
	s = s.withDefaults()
	if err := s.Drive.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSystem, err)
	}
	if s.Replicas < 1 {
		return fmt.Errorf("%w: replicas %d must be >= 1", ErrInvalidSystem, s.Replicas)
	}
	if s.MinIntact < 1 || s.MinIntact > s.Replicas {
		return fmt.Errorf("%w: min intact %d outside [1, %d]", ErrInvalidSystem, s.MinIntact, s.Replicas)
	}
	if s.Topology != nil {
		if err := s.Topology.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidSystem, err)
		}
		if s.Topology.Replicas() != s.Replicas {
			return fmt.Errorf("%w: topology has %d sites for %d replicas", ErrInvalidSystem, s.Topology.Replicas(), s.Replicas)
		}
	}
	if s.ScrubsPerYear < 0 || math.IsNaN(s.ScrubsPerYear) {
		return fmt.Errorf("%w: scrubs/year %v must be >= 0", ErrInvalidSystem, s.ScrubsPerYear)
	}
	if s.LatentFactor <= 0 || math.IsNaN(s.LatentFactor) {
		return fmt.Errorf("%w: latent factor %v must be positive", ErrInvalidSystem, s.LatentFactor)
	}
	if s.Alpha <= 0 || s.Alpha > 1 || math.IsNaN(s.Alpha) {
		return fmt.Errorf("%w: alpha %v must be in (0,1]", ErrInvalidSystem, s.Alpha)
	}
	if s.RepairHours <= 0 || math.IsNaN(s.RepairHours) {
		return fmt.Errorf("%w: repair hours %v must be positive", ErrInvalidSystem, s.RepairHours)
	}
	if s.ArchiveGB <= 0 || s.MissionYears <= 0 {
		return fmt.Errorf("%w: archive %v GB and mission %v years must be positive", ErrInvalidSystem, s.ArchiveGB, s.MissionYears)
	}
	return nil
}

// ModelParams derives the §5 parameters for one replica group.
func (s System) ModelParams() model.Params {
	s = s.withDefaults()
	mv := s.Drive.MTTFHours()
	p := model.Params{
		MV:    mv,
		ML:    mv / s.LatentFactor,
		MRV:   s.RepairHours,
		MRL:   s.RepairHours,
		Alpha: s.Alpha,
	}
	return p.WithScrubsPerYear(s.ScrubsPerYear)
}

// SimConfig builds the physical simulation of the system, including
// topology-derived common-cause shocks. It builds through the system's
// scenario.EstimateRequest, the path ltsimd and ltsim take, so it
// inherits the wire's scenario.MaxReplicas (1024) bound.
func (s System) SimConfig() (sim.Config, error) {
	cfg, _, err := s.build(AssessOptions{})
	return cfg, err
}

// request describes the system, and the Monte Carlo run opt asks for,
// as a wire request.
func (s System) request(opt AssessOptions) scenario.EstimateRequest {
	p := s.ModelParams()
	req := scenario.EstimateRequest{
		Replicas:           s.Replicas,
		MinIntact:          s.MinIntact,
		VisibleMeanHours:   p.MV,
		LatentMeanHours:    p.ML,
		RepairVisibleHours: p.MRV,
		RepairLatentHours:  p.MRL,
		ScrubsPerYear:      &s.ScrubsPerYear,
		Alpha:              s.Alpha,
		Trials:             opt.Trials,
		Seed:               &opt.Seed,
	}
	if !opt.RunToLoss {
		req.HorizonYears = s.MissionYears
	}
	return req
}

// build validates the system and builds its simulation and run options
// from its request. Topology shocks are the one field the wire cannot
// express; they are set on the built config.
func (s System) build(opt AssessOptions) (sim.Config, sim.Options, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return sim.Config{}, sim.Options{}, err
	}
	cfg, simOpt, err := s.request(opt).Build()
	if err != nil {
		return sim.Config{}, sim.Options{}, err
	}
	if s.Topology != nil && len(s.ThreatMeans) > 0 {
		shocks, err := threat.ScenarioShocks(*s.Topology, s.ThreatMeans)
		if err != nil {
			return sim.Config{}, sim.Options{}, err
		}
		cfg.Shocks = shocks
	}
	return cfg, simOpt, nil
}

// CostPlan builds the §4.3 cost plan.
func (s System) CostPlan() costs.Plan {
	s = s.withDefaults()
	return costs.Plan{
		Drive:                 s.Drive,
		Replicas:              s.Replicas,
		ArchiveGB:             s.ArchiveGB,
		MissionYears:          s.MissionYears,
		ScrubsPerYear:         s.ScrubsPerYear,
		AuditCostPerPass:      s.Economics.AuditCostPerPass,
		PowerWattsPerDrive:    s.Economics.PowerWattsPerDrive,
		PowerCostPerKWh:       s.Economics.PowerCostPerKWh,
		AdminCostPerDriveYear: s.Economics.AdminCostPerDriveYear,
	}
}

// ExposedThreats returns the §3 threats the placement leaves correlated:
// threats with a correlation dimension on which at least two replicas
// share a value. With no topology, every correlating threat is exposed
// (the conservative reading of a single-room deployment).
func (s System) ExposedThreats() []threat.Threat {
	var out []threat.Threat
	for _, t := range threat.All() {
		info := t.Info()
		if len(info.CorrelatesOver) == 0 {
			continue
		}
		if s.Topology == nil {
			out = append(out, t)
			continue
		}
		exposed := false
		for _, d := range info.CorrelatesOver {
			for _, group := range s.Topology.SharedGroups(d) {
				if len(group) >= 2 {
					exposed = true
					break
				}
			}
			if exposed {
				break
			}
		}
		if exposed {
			out = append(out, t)
		}
	}
	return out
}

// AssessOptions scale the Monte Carlo side of an assessment.
type AssessOptions struct {
	// Trials is the Monte Carlo budget (default 500).
	Trials int
	// Seed fixes the randomness (default 1).
	Seed uint64
	// RunToLoss runs every trial to data loss instead of censoring at
	// the mission horizon. More precise MTTDL; potentially much slower.
	RunToLoss bool
}

// Assessment is everything the library can say about a System.
type Assessment struct {
	// System echoes the (defaulted) input.
	System System
	// Params are the derived §5 model parameters.
	Params model.Params
	// Regime is the operating range classification.
	Regime model.Regime
	// AnalyticMTTDLYears is the clamped eq-7 MTTDL for a mirrored group
	// (replica-pair convention) or eq 12 for r > 2, in years.
	AnalyticMTTDLYears float64
	// SimMTTDLYears is the simulated MTTDL with its confidence interval,
	// in years (restricted mean when censored).
	SimMTTDLYears stats.Interval
	// SimMissionLoss is the simulated P(loss within the mission).
	SimMissionLoss stats.Interval
	// Cost is the mission-total cost breakdown.
	Cost costs.Breakdown
	// CostPerTBYear normalizes Cost.
	CostPerTBYear float64
	// Advice ranks the §6 levers by payoff for a 2x improvement.
	Advice []model.Sensitivity
	// ExposedThreats lists §3 threats the placement leaves correlated.
	ExposedThreats []threat.Threat
}

// Assess runs the full §5–§6 analysis of the system.
func (s System) Assess(opt AssessOptions) (*Assessment, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opt.Trials <= 0 {
		opt.Trials = 500
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}

	p := s.ModelParams()
	a := &Assessment{System: s, Params: p}
	_, a.Regime = p.Approximation()
	switch {
	case s.MinIntact > 1 || s.Replicas == 1:
		// Erasure codes and single copies have no eq-7 form; leave the
		// simulation to speak (NaN marks "not applicable").
		if s.Replicas == 1 {
			a.AnalyticMTTDLYears = model.Years(p.MV)
		} else {
			a.AnalyticMTTDLYears = math.NaN()
		}
	case s.Replicas == 2:
		a.AnalyticMTTDLYears = model.Years(p.MTTDL())
	default:
		a.AnalyticMTTDLYears = model.Years(p.ReplicatedMTTDL(s.Replicas))
	}

	cfg, simOpt, err := s.build(opt)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	est, err := runner.Estimate(simOpt)
	if err != nil {
		return nil, err
	}
	a.SimMTTDLYears = stats.Interval{
		Point: model.Years(est.MTTDL.Point),
		Lo:    model.Years(est.MTTDL.Lo),
		Hi:    model.Years(est.MTTDL.Hi),
		Level: est.MTTDL.Level,
	}
	if opt.RunToLoss {
		// Derive the mission loss probability from the fitted survival
		// curve.
		mission := model.YearsToHours(s.MissionYears)
		a.SimMissionLoss = est.Survival.SurvivalCI(mission, 0.95)
		a.SimMissionLoss.Point = 1 - a.SimMissionLoss.Point
		a.SimMissionLoss.Lo, a.SimMissionLoss.Hi = 1-a.SimMissionLoss.Hi, 1-a.SimMissionLoss.Lo
	} else {
		a.SimMissionLoss = est.LossProb
	}

	breakdown, err := s.CostPlan().Cost()
	if err != nil {
		return nil, err
	}
	a.Cost = breakdown
	a.CostPerTBYear = breakdown.PerTBYear(s.CostPlan())

	a.Advice = p.Sensitivities(2)
	a.ExposedThreats = s.ExposedThreats()
	return a, nil
}

// Compare assesses several systems under the same options and returns
// them in input order — the §6 decision table for a planning meeting.
func Compare(systems []System, opt AssessOptions) ([]*Assessment, error) {
	out := make([]*Assessment, 0, len(systems))
	for _, s := range systems {
		a, err := s.Assess(opt)
		if err != nil {
			return nil, fmt.Errorf("core: assessing %q: %w", s.Name, err)
		}
		out = append(out, a)
	}
	return out, nil
}
