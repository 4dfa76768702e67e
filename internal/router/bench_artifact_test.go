package router

import (
	"testing"
	"time"

	"repro/internal/service"
)

// benchSweep posts the doc and returns elapsed, per-index results, and
// the summary.
func benchSweep(t *testing.T, url string, doc map[string]any) (time.Duration, map[int][]byte, service.SweepLine) {
	t.Helper()
	start := time.Now()
	lines, sum := decodeSweep(t, slurp(t, post(t, url+"/sweep", doc)))
	elapsed := time.Since(start)
	byIndex := map[int][]byte{}
	for _, l := range lines {
		byIndex[l.Index] = l.Result
	}
	return elapsed, byIndex, sum
}

// TestBenchArtifactCluster measures a scenario sweep through a 2-worker
// routed cluster: cold, memory-warm, then disk-warm after restarting
// every worker over its cache directory, and asserts warmth, that the
// restarted cluster simulates nothing, and bit-identity across the three
// passes. ltbench's service.restart_sweep_ms layer times the
// single-daemon restart.
func TestBenchArtifactCluster(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	ws := startWorkers(t, 2, dirs)
	_, ts := startRouter(t, ws)

	const trials = 300
	doc := map[string]any{
		"scenario": map[string]any{
			"v":    1,
			"base": map[string]any{"trials": trials, "horizon_years": 50},
			"grid": []map[string]any{
				{"param": "replicas", "values": []float64{1, 2, 3, 4}},
				{"param": "alpha", "values": []float64{0.1, 0.3, 0.5}},
			},
		},
	}
	const points = 12

	coldDur, cold, coldSum := benchSweep(t, ts.URL, doc)
	if coldSum.OK != points || coldSum.Errors != 0 {
		t.Fatalf("cold sweep summary = %+v, want %d ok", coldSum, points)
	}

	warmDur, warm, warmSum := benchSweep(t, ts.URL, doc)
	if warmSum.CacheHits != points {
		t.Fatalf("warm sweep hit %d of %d cluster-wide", warmSum.CacheHits, points)
	}

	// Restart every worker over its cache dir; the rebuilt cluster must
	// answer entirely from the disk tier.
	for _, w := range ws {
		w.stop()
	}
	ws2 := startWorkers(t, 2, dirs)
	_, ts2 := startRouter(t, ws2)
	diskDur, disk, diskSum := benchSweep(t, ts2.URL, doc)
	if diskSum.DiskHits != points {
		t.Fatalf("disk-warm sweep: %d disk hits of %d", diskSum.DiskHits, points)
	}
	if got := completedAcross(ws2); got != 0 {
		t.Fatalf("restarted cluster simulated %d points, want 0", got)
	}

	for i := 0; i < points; i++ {
		if string(cold[i]) != string(warm[i]) || string(cold[i]) != string(disk[i]) {
			t.Errorf("point %d differs across cold/warm/disk passes", i)
		}
	}

	t.Logf("cold %dms, warm %dms, disk-warm %dms, %d scheduled runs",
		coldDur.Milliseconds(), warmDur.Milliseconds(), diskDur.Milliseconds(), completedAcross(ws))
}
