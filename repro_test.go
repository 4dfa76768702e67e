package repro_test

import (
	"context"
	"math"
	"testing"

	"repro"
)

// The facade test doubles as the README quickstart: everything here uses
// only the public API.

func TestQuickstartAnalytic(t *testing.T) {
	p := repro.PaperScrubbed()
	years := repro.Years(p.LatentDominatedMTTDL())
	if math.Abs(years-6128.7)/6128.7 > 0.005 {
		t.Errorf("paper eq-10 MTTDL = %.1f years, want 6128.7", years)
	}
	loss := p.LossProbability(repro.YearsToHours(50))
	if loss <= 0 || loss >= 1 {
		t.Errorf("loss probability %v out of range", loss)
	}
	if repro.HoursPerYear != 8760 {
		t.Error("HoursPerYear must be 8760")
	}
	if got := repro.Years(repro.YearsToHours(3.5)); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("unit round trip = %v", got)
	}
}

func TestQuickstartSimulation(t *testing.T) {
	cfg, err := repro.PaperSimConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := repro.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(repro.SimOptions{Trials: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	years := repro.Years(est.MTTDL.Point)
	// Physical mirror of the paper's scrubbed scenario: thousands of
	// years (the closed forms print 5-6k; the pair convention halves it).
	if years < 1000 || years > 10000 {
		t.Errorf("simulated MTTDL = %.0f years, want O(paper/2) thousands", years)
	}
}

func TestCustomSystemThroughFacade(t *testing.T) {
	scrubber, err := repro.PeriodicScrub(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.AutomatedRepair(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := repro.AlphaCorrelation(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.SimConfig{
		Replicas:    3,
		VisibleMean: 5000,
		LatentMean:  2000,
		Scrub:       scrubber,
		Repair:      rep,
		Correlation: corr,
	}
	r, err := repro.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(repro.SimOptions{Trials: 100, Seed: 2, Horizon: repro.YearsToHours(50)})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != 100 {
		t.Errorf("trials = %d", est.Trials)
	}
	if est.LossProb.Point < 0 || est.LossProb.Point > 1 {
		t.Errorf("loss probability %v", est.LossProb.Point)
	}
}

func TestTopologyPresets(t *testing.T) {
	if got := repro.Colocated(3).IndependenceScore(); got != 0 {
		t.Errorf("colocated independence = %v, want 0", got)
	}
	if got := repro.FullyIndependent(3).IndependenceScore(); got != 1 {
		t.Errorf("independent independence = %v, want 1", got)
	}
	if got := repro.GeoDistributed(4).Replicas(); got != 4 {
		t.Errorf("geo replicas = %d, want 4", got)
	}
}

func TestDrivePresetsAndPlans(t *testing.T) {
	b := repro.Barracuda200()
	plan := repro.CostPlan{
		Drive:                 b,
		Replicas:              2,
		ArchiveGB:             5000,
		MissionYears:          20,
		ScrubsPerYear:         3,
		AuditCostPerPass:      0.05,
		PowerWattsPerDrive:    10,
		PowerCostPerKWh:       0.1,
		AdminCostPerDriveYear: 25,
	}
	fp, err := repro.EvaluatePlan("mirror", plan, repro.PaperCorrelated())
	if err != nil {
		t.Fatal(err)
	}
	if fp.CostPerTBYear <= 0 || fp.MTTDLYears <= 0 {
		t.Errorf("degenerate frontier point %+v", fp)
	}
}

func TestArchivePresets(t *testing.T) {
	photos := repro.PhotoService()
	if photos.MeanHoursBetweenObjectAccesses() < repro.HoursPerYear {
		t.Error("photo-service objects should wait ~a year between accesses (§4.1)")
	}
	inst := repro.InstitutionalArchive()
	if inst.TotalGB() <= 0 {
		t.Error("institutional archive should have positive size")
	}
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	all := repro.Experiments()
	if len(all) != 19 {
		t.Fatalf("experiments = %d, want 19", len(all))
	}
	e, ok := repro.ExperimentByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	res, err := e.Run(context.Background(), repro.ExperimentConfig{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || len(res.Notes) == 0 {
		t.Error("E1 produced no output through the facade")
	}
}

// scaledDiskStorageSpec derives a storage spec from a §6.1 drive with
// the time axis compressed 300x (preserving every ratio), audits every
// 200 scaled hours, and repair pinned at 2 scaled hours — the recipe
// that keeps run-to-loss trials cheap in tests and benches alike.
func scaledDiskStorageSpec(d repro.DriveSpec) repro.StorageSpec {
	s := repro.DiskStorageSpec(d, 0)
	s.VisibleMean /= 300
	s.LatentMean /= 300
	s.ScrubsPerYear = 8760.0 / 200
	s.RepairHours = 2
	return s
}

// TestMixedFleetMTTDLOrdering is the heterogeneous-fleet acceptance
// regression: a consumer+enterprise mix must land strictly between the
// pure fleets.
func TestMixedFleetMTTDLOrdering(t *testing.T) {
	consumer := scaledDiskStorageSpec(repro.Barracuda200())
	enterprise := scaledDiskStorageSpec(repro.Cheetah146())

	mttdl := func(specs ...repro.StorageSpec) float64 {
		t.Helper()
		cfg, err := repro.FleetConfig(specs...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := repro.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(repro.SimOptions{Trials: 1200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return est.MTTDL.Point
	}
	allConsumer := mttdl(consumer, consumer, consumer)
	mixed := mttdl(consumer, consumer, enterprise)
	allEnterprise := mttdl(enterprise, enterprise, enterprise)
	if !(allConsumer < mixed && mixed < allEnterprise) {
		t.Errorf("mixed fleet MTTDL %.0f not strictly between all-consumer %.0f and all-enterprise %.0f",
			mixed, allConsumer, allEnterprise)
	}
}

func TestTraceThroughFacade(t *testing.T) {
	cfg, err := repro.PaperSimConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := repro.TraceTrial(cfg, 4, repro.YearsToHours(200))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Error("trace empty — 200 years of a mirrored pair should at least audit")
	}
}
