package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
)

// benchScenario is the swept document: a replicas × scrubs × alpha
// grid with a deliberately-colliding min_intact axis (0 canonicalizes
// to its default 1), so the cold pass exercises batch dedupe — half the
// expansion shares the other half's fingerprints.
func benchScenario() scenario.Document {
	seed := uint64(3)
	return scenario.Document{
		V:    scenario.Version,
		Name: "bench-scenario-sweep",
		Base: scenario.EstimateRequest{Trials: 200, HorizonYears: 50, Seed: &seed},
		Grid: []scenario.Axis{
			{Param: "replicas", Values: []float64{2, 3}},
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "scrubs_per_year", Values: []float64{1, 2, 3, 4, 5, 6}},
			{Param: "min_intact", Values: []float64{0, 1}},
		},
	}
}

// TestBenchArtifactScenario sweeps the scenario document cold and warm
// through server-side expansion and asserts dedupe, hit and job counts,
// bit-identity and a faster warm pass. ltbench's service.sweep_deduped
// layer tracks the dedupe count.
func TestBenchArtifactScenario(t *testing.T) {
	svc := New(Config{CacheSize: 256, Shards: 4, QueueDepth: 64, JobTimeout: time.Minute})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Shutdown(context.Background())
	}()

	doc := benchScenario()
	points, err := scenario.Expand(doc)
	if err != nil {
		t.Fatal(err)
	}
	sweep := SweepRequest{Scenario: &doc}

	start := time.Now()
	cold, coldSum := runSweep(t, ts.URL, sweep)
	coldMS := time.Since(start).Milliseconds()

	start = time.Now()
	warm, warmSum := runSweep(t, ts.URL, sweep)
	warmMS := time.Since(start).Milliseconds()

	unique := len(points) - coldSum.Deduped
	identical := len(cold) == len(warm)
	for i := range cold {
		if cold[i] != warm[i] {
			identical = false
		}
	}
	if !identical {
		t.Error("warm scenario sweep results are not bit-identical to cold")
	}
	if wantDedupe := len(points) / 2; coldSum.Deduped != wantDedupe {
		t.Errorf("cold dedupe = %d of %d points, want %d (min_intact 0 ≡ 1)", coldSum.Deduped, len(points), wantDedupe)
	}
	if warmSum.CacheHits < len(points)*95/100 {
		t.Errorf("warm cache hits = %d of %d, want >= 95%%", warmSum.CacheHits, len(points))
	}
	if got := int(svc.Stats().Scheduler.Completed); got != unique {
		t.Errorf("scheduler ran %d jobs across both passes, want %d (unique keys, cold pass only)", got, unique)
	}

	if coldMS >= 50 && warmMS >= coldMS {
		t.Errorf("cached scenario sweep (%dms) not faster than cold (%dms)", warmMS, coldMS)
	}

	t.Logf("expanded %d (unique %d), cold %dms, warm %dms, %d hits",
		len(points), unique, coldMS, warmMS, warmSum.CacheHits)
}
