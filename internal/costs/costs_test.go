package costs

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

func basePlan() Plan {
	return Plan{
		Drive:                 storage.Barracuda200(),
		Replicas:              2,
		ArchiveGB:             10000, // 10 TB
		MissionYears:          10,
		ScrubsPerYear:         3,
		AuditCostPerPass:      0.05,
		PowerWattsPerDrive:    10,
		PowerCostPerKWh:       0.10,
		AdminCostPerDriveYear: 20,
	}
}

func TestPlanValidate(t *testing.T) {
	if err := basePlan().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Plan)
	}{
		{"zero replicas", func(p *Plan) { p.Replicas = 0 }},
		{"zero archive", func(p *Plan) { p.ArchiveGB = 0 }},
		{"negative mission", func(p *Plan) { p.MissionYears = -1 }},
		{"negative scrubs", func(p *Plan) { p.ScrubsPerYear = -1 }},
		{"NaN power", func(p *Plan) { p.PowerWattsPerDrive = math.NaN() }},
		{"bad drive", func(p *Plan) { p.Drive.CapacityGB = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := basePlan()
			c.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

func TestDriveCounts(t *testing.T) {
	p := basePlan() // 10 TB over 200 GB drives = 50 per replica
	if got := p.DrivesPerReplica(); got != 50 {
		t.Errorf("drives per replica = %d, want 50", got)
	}
	if got := p.TotalDrives(); got != 100 {
		t.Errorf("total drives = %d, want 100", got)
	}
	// Partial drives round up.
	p.ArchiveGB = 10001
	if got := p.DrivesPerReplica(); got != 51 {
		t.Errorf("drives per replica = %d, want 51 (ceil)", got)
	}
}

func TestCostBreakdown(t *testing.T) {
	p := basePlan()
	b, err := p.Cost()
	if err != nil {
		t.Fatal(err)
	}
	// Capital: 100 drives x $114.
	if math.Abs(b.Capital-11400) > 1e-9 {
		t.Errorf("capital = %v, want 11400", b.Capital)
	}
	// One refresh at year 5 boundary (10-year mission, 5-year life).
	if b.Replacement <= 11400 {
		t.Errorf("replacement = %v, should include a full refresh plus failures", b.Replacement)
	}
	// Power: 10W x 8760h x 10y x 100 drives = 87,600 kWh x $0.10.
	if math.Abs(b.Power-8760) > 1e-6 {
		t.Errorf("power = %v, want 8760", b.Power)
	}
	// Admin: $20 x 100 drives x 10 years.
	if math.Abs(b.Admin-20000) > 1e-9 {
		t.Errorf("admin = %v, want 20000", b.Admin)
	}
	// Audit: 3/year x $0.05 x 100 drives x 10 years.
	if math.Abs(b.Audit-150) > 1e-9 {
		t.Errorf("audit = %v, want 150", b.Audit)
	}
	if got := b.Total(); math.Abs(got-(b.Capital+b.Replacement+b.Power+b.Admin+b.Audit)) > 1e-9 {
		t.Errorf("total = %v inconsistent with parts", got)
	}
	// Per TB-year: total / (10 TB x 10 years).
	if got, want := b.PerTBYear(p), b.Total()/100; math.Abs(got-want) > 1e-9 {
		t.Errorf("per TB-year = %v, want %v", got, want)
	}
}

// §6.1's punchline in dollars: a consumer-drive mirror plus a third
// consumer replica costs far less than an enterprise mirror, and the
// model says the extra replica buys more reliability than the better
// drive.
func TestConsumerTripleBeatsEnterpriseMirror(t *testing.T) {
	consumer3 := basePlan()
	consumer3.Replicas = 3
	enterprise2 := basePlan()
	enterprise2.Drive = storage.Cheetah146()

	c3, err := consumer3.Cost()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := enterprise2.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if c3.Total() >= e2.Total() {
		t.Errorf("3x consumer total %v should undercut 2x enterprise %v", c3.Total(), e2.Total())
	}

	// Reliability via eq 12 with matched per-drive parameters.
	consumerParams := model.Params{
		MV: storage.Barracuda200().MTTFHours(), ML: math.Inf(1),
		MRV: 1, MRL: 1, MDL: 0, Alpha: 0.1,
	}
	enterpriseParams := consumerParams
	enterpriseParams.MV = storage.Cheetah146().MTTFHours()
	if consumerParams.ReplicatedMTTDL(3) <= enterpriseParams.ReplicatedMTTDL(2) {
		t.Error("third consumer replica should out-reliability the enterprise mirror")
	}
}

func TestEvaluate(t *testing.T) {
	p := basePlan()
	params := model.PaperScrubbed()
	fp, err := Evaluate("mirror", p, params)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Label != "mirror" {
		t.Errorf("label = %q", fp.Label)
	}
	if fp.MTTDLYears <= 0 || fp.CostPerTBYear <= 0 {
		t.Errorf("degenerate frontier point %+v", fp)
	}
	if fp.LossProb <= 0 || fp.LossProb >= 1 {
		t.Errorf("loss probability %v out of range", fp.LossProb)
	}
	// Single replica: MTTDL is MV.
	p1 := p
	p1.Replicas = 1
	fp1, err := Evaluate("single", p1, params)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fp1.MTTDLYears, model.Years(params.MV); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("single-copy MTTDL = %v years, want %v", got, want)
	}
	// More replicas must not cost less or lose more.
	p3 := p
	p3.Replicas = 3
	fp3, err := Evaluate("triple", p3, params)
	if err != nil {
		t.Fatal(err)
	}
	if fp3.CostPerTBYear <= fp.CostPerTBYear {
		t.Error("third replica should cost more")
	}
	if fp3.LossProb >= fp.LossProb {
		t.Error("third replica should lose less")
	}
	// Invalid plans are rejected.
	bad := p
	bad.Replicas = 0
	if _, err := Evaluate("bad", bad, params); err == nil {
		t.Error("Evaluate accepted invalid plan")
	}
}

// TestPlanValidateDeterministic: a plan with two bad fields reports the
// first-declared one, identically on every call.
func TestPlanValidateDeterministic(t *testing.T) {
	p := basePlan()
	p.ScrubsPerYear = -1
	p.PowerCostPerKWh = -1
	const want = "costs: invalid parameter: scrubs per year -1 must be non-negative"
	for i := 0; i < 100; i++ {
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}
