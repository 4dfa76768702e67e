// Package costs implements the economics the paper insists must discipline
// every reliability strategy (§4.3 "the unlimited budget assumption",
// §6.1 drive economics): capital, replacement, power, administration, and
// audit cost streams over a preservation mission, paired with the model's
// loss probability to form a cost–reliability frontier.
package costs

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/storage"
)

// ErrInvalid reports a cost-plan parameter outside its domain.
var ErrInvalid = errors.New("costs: invalid parameter")

// Plan describes one candidate preservation system for costing.
type Plan struct {
	// Drive is the disk model used for every replica.
	Drive storage.DriveSpec
	// Replicas is the number of full copies kept.
	Replicas int
	// ArchiveGB is the collection size in decimal gigabytes.
	ArchiveGB float64
	// MissionYears is the planning horizon.
	MissionYears float64
	// ScrubsPerYear is the audit frequency per replica (0 = never).
	ScrubsPerYear float64
	// AuditCostPerPass is the cost of auditing one drive once. Near
	// zero for online media; tens of dollars for offline handling
	// (§6.2).
	AuditCostPerPass float64
	// PowerWattsPerDrive is the average draw of one spinning drive.
	PowerWattsPerDrive float64
	// PowerCostPerKWh is the electricity price in dollars.
	PowerCostPerKWh float64
	// AdminCostPerDriveYear is the administration cost allocated to one
	// drive for one year (LOCKSS-style appliances push this down, §7).
	AdminCostPerDriveYear float64
}

// Validate reports whether the plan is well-formed.
func (p Plan) Validate() error {
	if err := p.Drive.Validate(); err != nil {
		return err
	}
	if p.Replicas < 1 {
		return fmt.Errorf("%w: replicas %d must be >= 1", ErrInvalid, p.Replicas)
	}
	// Fields are checked in declaration order (a slice, not a map), so a
	// plan with several bad fields always reports the same one.
	for _, f := range []struct {
		name     string
		v        float64
		positive bool // must exceed 0, not just reach it
	}{
		{"archive size", p.ArchiveGB, true},
		{"mission years", p.MissionYears, true},
		{"scrubs per year", p.ScrubsPerYear, false},
		{"audit cost", p.AuditCostPerPass, false},
		{"power watts", p.PowerWattsPerDrive, false},
		{"power cost", p.PowerCostPerKWh, false},
		{"admin cost/drive-year", p.AdminCostPerDriveYear, false},
	} {
		switch {
		case f.positive && (math.IsNaN(f.v) || f.v <= 0):
			return fmt.Errorf("%w: %s %v must be positive", ErrInvalid, f.name, f.v)
		case math.IsNaN(f.v) || f.v < 0:
			return fmt.Errorf("%w: %s %v must be non-negative", ErrInvalid, f.name, f.v)
		}
	}
	return nil
}

// DrivesPerReplica returns the drive count for one copy of the archive.
func (p Plan) DrivesPerReplica() int {
	return int(math.Ceil(p.ArchiveGB / p.Drive.CapacityGB))
}

// TotalDrives returns the fleet size across all replicas.
func (p Plan) TotalDrives() int { return p.DrivesPerReplica() * p.Replicas }

// Breakdown is the mission-total cost by category, in dollars.
type Breakdown struct {
	// Capital buys the initial fleet.
	Capital float64
	// Replacement covers drives that fail in service over the mission
	// (expected count under the memoryless visible-fault rate) plus the
	// periodic refresh forced by the drive's service life.
	Replacement float64
	// Power runs the fleet for the mission.
	Power float64
	// Admin pays people to run the fleet.
	Admin float64
	// Audit pays for scrub passes.
	Audit float64
}

// Total sums the categories.
func (b Breakdown) Total() float64 {
	return b.Capital + b.Replacement + b.Power + b.Admin + b.Audit
}

// PerTBYear normalizes the mission total to dollars per terabyte-year for
// the given plan — the unit preservation budgets are written in.
func (b Breakdown) PerTBYear(p Plan) float64 {
	tbYears := p.ArchiveGB / 1000 * p.MissionYears
	return b.Total() / tbYears
}

// Cost returns the mission-total breakdown for the plan.
func (p Plan) Cost() (Breakdown, error) {
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	drives := float64(p.TotalDrives())
	price := p.Drive.Price()

	var b Breakdown
	b.Capital = drives * price

	// In-service failures (memoryless approximation) ...
	failuresPerDriveYear := model.HoursPerYear / p.Drive.MTTFHours()
	expectedFailures := drives * failuresPerDriveYear * p.MissionYears
	// ... plus scheduled refresh at end of each service life beyond the
	// initial purchase (rolling procurement, §6.5).
	refreshes := math.Max(0, math.Ceil(p.MissionYears/p.Drive.ServiceLifeYears)-1)
	b.Replacement = (expectedFailures + refreshes*drives) * price

	kwh := p.PowerWattsPerDrive / 1000 * model.HoursPerYear * p.MissionYears * drives
	b.Power = kwh * p.PowerCostPerKWh

	b.Admin = p.AdminCostPerDriveYear * drives * p.MissionYears

	b.Audit = p.ScrubsPerYear * p.AuditCostPerPass * drives * p.MissionYears
	return b, nil
}

// FrontierPoint pairs a plan's cost with its modeled reliability: one
// point on the §6 cost–reliability tradeoff.
type FrontierPoint struct {
	// Label names the plan.
	Label string
	// CostPerTBYear is the normalized mission cost.
	CostPerTBYear float64
	// MTTDLYears is the modeled mean time to data loss.
	MTTDLYears float64
	// LossProb is the modeled probability of loss within the mission.
	LossProb float64
}

// Evaluate combines a plan with model parameters into a frontier point.
// The params should describe one replica pair/group of the plan (use
// model presets or sim.Config.ModelParams).
func Evaluate(label string, p Plan, params model.Params) (FrontierPoint, error) {
	b, err := p.Cost()
	if err != nil {
		return FrontierPoint{}, err
	}
	var mttdl float64
	if p.Replicas == 1 {
		mttdl = params.MV // single copy: first fault is loss
	} else if p.Replicas == 2 {
		mttdl = params.MTTDL()
	} else {
		mttdl = params.ReplicatedMTTDL(p.Replicas)
	}
	mission := model.YearsToHours(p.MissionYears)
	return FrontierPoint{
		Label:         label,
		CostPerTBYear: b.PerTBYear(p),
		MTTDLYears:    model.Years(mttdl),
		LossProb:      model.FaultProbability(mission, mttdl),
	}, nil
}
