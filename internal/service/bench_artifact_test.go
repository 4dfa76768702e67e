package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// TestBenchArtifact sweeps the acceptance grid cold and then from cache
// and asserts that the cached pass replays bit-identical bytes, is fully
// hit and is faster. ltbench's service.hit_ratio layer tracks the hit
// ratio.
func TestBenchArtifact(t *testing.T) {
	svc := New(Config{CacheSize: 256, Shards: 4, QueueDepth: 64, JobTimeout: time.Minute})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Shutdown(context.Background())
	}()

	grid := sweepGrid()
	for i := range grid.Requests {
		grid.Requests[i].Trials = 200
	}

	start := time.Now()
	cold, _ := runSweep(t, ts.URL, grid)
	coldMS := time.Since(start).Milliseconds()

	start = time.Now()
	warm, warmSummary := runSweep(t, ts.URL, grid)
	warmMS := time.Since(start).Milliseconds()

	identical := len(cold) == len(warm)
	for i := range cold {
		if cold[i] != warm[i] {
			identical = false
		}
	}
	if !identical {
		t.Error("warm sweep results are not bit-identical to cold")
	}
	if warmSummary.CacheHits < len(grid.Requests)*95/100 {
		t.Errorf("warm cache hits = %d of %d, want >= 95%%", warmSummary.CacheHits, len(grid.Requests))
	}

	// The cached pass must be measurably faster. Timer granularity can
	// make tiny sweeps flaky, so only enforce when the cold pass did
	// real work.
	if coldMS >= 50 && warmMS >= coldMS {
		t.Errorf("cached sweep (%dms) not faster than cold sweep (%dms)", warmMS, coldMS)
	}

	t.Logf("cold %dms, warm %dms, %d/%d hits", coldMS, warmMS, warmSummary.CacheHits, len(grid.Requests))
}
