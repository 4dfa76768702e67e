package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
)

func traceConfig(t *testing.T) Config {
	t.Helper()
	rep, err := repair.Automated(5, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replicas:    2,
		VisibleMean: 2000,
		LatentMean:  1000,
		Scrub:       scrub.Periodic{Interval: 200},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
}

func TestTraceChronologicalAndConsistent(t *testing.T) {
	tr, err := TraceTrial(traceConfig(t), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	prev := -1.0
	var losses int
	for _, e := range tr.Events {
		if e.Time < prev {
			t.Fatalf("trace not chronological: %v after %v", e.Time, prev)
		}
		prev = e.Time
		if e.Replica < 0 || e.Replica >= 2 {
			t.Fatalf("bad replica index %d", e.Replica)
		}
		if e.Kind == eventDataLoss {
			losses++
		}
	}
	if !tr.Result.Lost {
		t.Fatal("run-to-loss trial reported no loss")
	}
	if losses != 1 {
		t.Errorf("trace has %d loss events, want 1", losses)
	}
	if last := tr.Events[len(tr.Events)-1]; last.Kind != eventDataLoss {
		t.Errorf("last event = %v, want DATA LOSS", last.Kind)
	}
	if last := tr.Events[len(tr.Events)-1]; last.Time != tr.Result.Time {
		t.Errorf("loss event at %v but result time %v", last.Time, tr.Result.Time)
	}
}

// Every detected latent fault must show the Figure 1 lifecycle: fault
// strictly before detection, detection at or before repair start.
func TestTraceLatentLifecycle(t *testing.T) {
	tr, err := TraceTrial(traceConfig(t), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Track per-replica pending latent fault times.
	faultAt := map[int]float64{}
	for _, e := range tr.Events {
		switch e.Kind {
		case eventFault:
			if e.Fault == faults.Latent {
				faultAt[e.Replica] = e.Time
			}
		case eventDetected:
			start, ok := faultAt[e.Replica]
			if !ok {
				continue // visible-fault path
			}
			if e.Time < start {
				t.Fatalf("replica %d detected at %v before fault at %v", e.Replica, e.Time, start)
			}
			delete(faultAt, e.Replica)
		}
	}
}

// With periodic audits every 200 h, a latent fault is detected within one
// interval (unless a visible fault or loss intervenes first).
func TestTraceDetectionWithinInterval(t *testing.T) {
	tr, err := TraceTrial(traceConfig(t), 3, 200000)
	if err != nil {
		t.Fatal(err)
	}
	faultAt := map[int]float64{}
	for _, e := range tr.Events {
		switch e.Kind {
		case eventFault:
			if e.Fault == faults.Latent {
				faultAt[e.Replica] = e.Time
			} else {
				delete(faultAt, e.Replica) // visible path takes over
			}
		case eventDetected:
			if start, ok := faultAt[e.Replica]; ok {
				if lag := e.Time - start; lag > 200+1e-9 {
					t.Fatalf("detection lag %v exceeds the audit interval", lag)
				}
				delete(faultAt, e.Replica)
			}
		}
	}
}

func TestTraceHorizonCensored(t *testing.T) {
	cfg := traceConfig(t)
	cfg.VisibleMean = 1e12
	cfg.LatentMean = 1e12
	tr, err := TraceTrial(cfg, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Result.Lost {
		t.Fatal("immortal config lost data")
	}
	if tr.Result.Time != 500 {
		t.Errorf("censored time = %v, want 500", tr.Result.Time)
	}
	// Audits at 200 and 400 for each of 2 replicas.
	audits := 0
	for _, e := range tr.Events {
		if e.Kind == eventAudit {
			audits++
		}
	}
	if audits != 4 {
		t.Errorf("audits = %d, want 4 (2 replicas x 2 passes)", audits)
	}
}

func TestTraceRejectsInvalidConfig(t *testing.T) {
	if _, err := TraceTrial(Config{}, 1, 0); err == nil {
		t.Error("TraceTrial accepted invalid config")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{eventFault, eventDetected, eventRepairStart, eventRepaired, eventAudit, eventDataLoss}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestModelParamsMapping(t *testing.T) {
	cfg := traceConfig(t)
	p := cfg.ModelParams()
	if p.MV != 2000 || p.ML != 1000 {
		t.Errorf("MV/ML = %v/%v, want 2000/1000", p.MV, p.ML)
	}
	if p.MRV != 5 || p.MRL != 2 {
		t.Errorf("MRV/MRL = %v/%v, want 5/2", p.MRV, p.MRL)
	}
	if p.MDL != 100 {
		t.Errorf("MDL = %v, want 100 (half the 200h audit interval)", p.MDL)
	}
	if p.Alpha != 1 {
		t.Errorf("Alpha = %v, want 1", p.Alpha)
	}
	// Shocks fold into the fault rates.
	cfg.Shocks = []faults.Shock{
		{Name: "s", Mean: 1000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 1},
	}
	p = cfg.ModelParams()
	wantMV := 1 / (1.0/2000 + 1.0/1000)
	if math.Abs(p.MV-wantMV) > 1e-9 {
		t.Errorf("MV with shock = %v, want %v", p.MV, wantMV)
	}
	// Access detection combines with scrub.
	acc, err := scrub.NewOnAccess(0.01, 1) // lag 100
	if err != nil {
		t.Fatal(err)
	}
	cfg.AccessDetect = acc
	p = cfg.ModelParams()
	if math.Abs(p.MDL-50) > 1e-9 {
		t.Errorf("MDL with access channel = %v, want 50 (two competing 100h detectors)", p.MDL)
	}
}

// TestTraceTrialMatchesEstimatorTrial: on periodic audits, TraceTrial
// draws what the estimator's trial draws. A materialized periodic pass
// draws nothing, and access detection, repairs and repair bugs draw
// from their own role streams, so putting every pass on the timeline
// moves no draw: each trial's result equals that of the lazy-audit
// trial started from the same stream, except for the audit passes only
// the trace counts. The config adds access detection, a buggy repair,
// α = 0.5 and a shock, so every role stream a lazy trial draws from is
// exercised. The replicas' audit schedules are staggered: where two
// replicas are detected by passes at one instant, the two paths may
// take those detections in different orders, and under correlation
// the order decides which replica's arrivals are re-drawn.
func TestTraceTrialMatchesEstimatorTrial(t *testing.T) {
	cfg := traceConfig(t)
	cfg.Replicas = 3
	cfg.Specs = []ReplicaSpec{
		{Scrub: scrub.Periodic{Interval: 200}},
		{Scrub: scrub.Periodic{Interval: 200, Offset: 70}},
		{Scrub: scrub.Periodic{Interval: 200, Offset: 140}},
	}
	cfg.AccessDetect = scrub.OnAccess{RatePerHour: 1.0 / 300, Coverage: 0.5}
	cfg.Repair.BugLatentProb = 0.05
	cfg.Correlation = faults.AlphaCorrelation{Factor: 0.5}
	cfg.Shocks = []faults.Shock{{Name: "power", Mean: 3000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 0.5}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := allocTrial(&r.cfg, r.specs, nil)
	if !tr.lazyAudit {
		t.Fatal("the estimator's trial materializes audits on this config")
	}
	audits := 0
	for seed := uint64(1); seed <= 300; seed++ {
		traced, err := TraceTrial(cfg, seed, 20000)
		if err != nil {
			t.Fatal(err)
		}
		tr.start(rng.New(seed))
		plain := tr.run(20000)
		audits += traced.Result.Stats.Audits
		got := traced.Result
		got.Stats.Audits = 0
		if got != plain {
			t.Fatalf("seed %d: TraceTrial gives %+v, the estimator's trial %+v", seed, got, plain)
		}
	}
	if audits == 0 {
		t.Error("no traced trial ran an audit pass")
	}
}
