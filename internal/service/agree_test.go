package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/store"
)

// TestStatsAgreeWithMetrics: /stats and /metrics read one set of
// counters. Traffic produces every outcome at least once (memory hit
// and miss, dedup join, LRU eviction, disk hit, corrupt and unreadable
// disk entries, failed and timed-out jobs, sweep dedupe), and then every
// /stats counter must equal its /metrics series summed over shards.
func TestStatsAgreeWithMetrics(t *testing.T) {
	ds, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{CacheSize: 2, Shards: 2, QueueDepth: 16, JobTimeout: time.Second, SimParallel: 1, Store: ds})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	estimate := func(trials int, want string) string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: trials, HorizonYears: 50})
		readAll(t, resp)
		if got := resp.Header.Get("X-Ltsimd-Cache"); resp.StatusCode != http.StatusOK || got != want {
			t.Fatalf("estimate(%d): status %d, X-Ltsimd-Cache %q, want 200 %q", trials, resp.StatusCode, got, want)
		}
		return resp.Header.Get("X-Ltsimd-Key")
	}
	estimate(40, "miss")
	estimate(40, "hit")
	keyB := estimate(41, "miss")
	keyC := estimate(42, "miss") // evicts 40 from the two-entry LRU
	estimate(40, "disk")         // evicts 41
	if err := os.WriteFile(ds.Path(keyB), []byte("not a store entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	estimate(41, "miss") // corrupt on disk: quarantined, re-simulated
	if err := os.Remove(ds.Path(keyC)); err != nil {
		t.Fatal(err)
	}
	estimate(42, "miss") // indexed but unreadable: a store error

	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Requests: []EstimateRequest{
		{Trials: 43, HorizonYears: 50}, {Trials: 43, HorizonYears: 50},
	}})
	readAll(t, resp)

	// A dedup join: a second lookup while the first key's job runs. The
	// failed and timed-out jobs go through the same route with compute
	// functions that fail on purpose.
	ctx := context.Background()
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, _, err := svc.answer(ctx, "join", func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte("{}"), nil
		}, false)
		owner <- err
	}()
	<-started
	if _, disp, _, err := svc.lookup(ctx, "join", nil, false); err != nil || disp != "dedup" {
		t.Fatalf("second lookup: disposition %q, err %v; want dedup", disp, err)
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.answer(ctx, "fail", func(context.Context) ([]byte, error) {
		return nil, errors.New("boom")
	}, false); err == nil {
		t.Fatal("failing job reported no error")
	}
	if _, _, err := svc.answer(ctx, "panic", func(context.Context) ([]byte, error) {
		panic("injected")
	}, false); !errors.Is(err, errJobPanicked) {
		t.Fatalf("panicking job: err %v, want errJobPanicked", err)
	}
	if _, _, err := svc.answer(ctx, "slow", func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow job: err %v, want deadline exceeded", err)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsSnapshot
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("/stats has no store section")
	}
	text := scrape(t, ts.URL)

	for _, c := range []struct {
		series string
		stats  uint64
	}{
		{"ltsimd_cache_hits_total", st.Cache.Hits},
		{"ltsimd_cache_misses_total", st.Cache.Misses},
		{"ltsimd_cache_evictions_total", st.Cache.Evictions},
		{"ltsimd_sched_jobs_completed_total", st.Scheduler.Completed},
		{"ltsimd_sched_jobs_failed_total", st.Scheduler.Failed},
		{"ltsimd_sched_jobs_timeout_total", st.Scheduler.Timeouts},
		{"ltsimd_sched_jobs_panicked_total", st.Scheduler.Panicked},
		{"ltsimd_store_hits_total", st.Store.Hits},
		{"ltsimd_store_misses_total", st.Store.Misses},
		{"ltsimd_store_writes_total", st.Store.Writes},
		{"ltsimd_store_corrupt_total", st.Store.Corrupt},
		{"ltsimd_store_gc_evictions_total", st.Store.GCEvictions},
		{"ltsimd_store_errors_total", st.Store.Errors},
		{"ltsimd_sweep_deduped_total", st.SweepDeduped},
		{"ltsimd_cache_entries", uint64(st.Cache.Size)},
		{"ltsimd_store_entries", uint64(st.Store.Entries)},
		{"ltsimd_store_bytes", uint64(st.Store.Bytes)},
	} {
		if got := metricValue(t, text, c.series); got != float64(c.stats) {
			t.Errorf("%s = %v, /stats says %d", c.series, got, c.stats)
		}
	}

	// The traffic really produced each outcome, so the equalities above
	// compare live counters, not zeros.
	for _, c := range []struct {
		name     string
		got, min uint64
	}{
		{"cache hits", st.Cache.Hits, 1},
		{"cache misses", st.Cache.Misses, 1},
		{"cache evictions", st.Cache.Evictions, 1},
		{"completed jobs", st.Scheduler.Completed, 1},
		{"failed jobs (timeout and panic included)", st.Scheduler.Failed, 3},
		{"timed-out jobs", st.Scheduler.Timeouts, 1},
		{"panicked jobs", st.Scheduler.Panicked, 1},
		{"store hits", st.Store.Hits, 1},
		{"store writes", st.Store.Writes, 1},
		{"corrupt store entries", st.Store.Corrupt, 1},
		{"store errors", st.Store.Errors, 1},
		{"sweep deduped", st.SweepDeduped, 1},
	} {
		if c.got < c.min {
			t.Errorf("%s = %d, want >= %d", c.name, c.got, c.min)
		}
	}
}
