package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzEstimateKey drives the /estimate body→key function with arbitrary
// bytes: it must never panic, and the memo must return what resolving
// the body from scratch returns — the same key and progress flag, or the
// same error — both when it first sees a body and when it answers from
// memory. The daemon folds in a request policy, as the memo must be
// sound over one, and its memo is small so rotations happen. Nothing is
// simulated.
func FuzzEstimateKey(f *testing.F) {
	svc := New(Config{CacheSize: 8, Shards: 1, QueueDepth: 1, JobTimeout: time.Second, SimParallel: 1,
		MaxTrialsCap: 5000, DefaultTargetRel: 0.2})
	f.Cleanup(func() { svc.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		var want string
		req, wantErr := decodeEstimate(body)
		if wantErr == nil {
			want, wantErr = svc.key(req)
		}
		for pass := range 2 {
			key, progress, err := svc.memo.Key(body, svc.key)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("pass %d: error %v, resolving from scratch gives %v", pass, err, wantErr)
			}
			if key != want || err == nil && progress != req.Progress {
				t.Fatalf("pass %d: key %q progress %t, resolving from scratch gives %q %t", pass, key, progress, want, req.Progress)
			}
		}
	})
}

// FuzzEstimateRun runs every /estimate body that resolves to a key
// (FuzzEstimateKey's domain), as the daemon would resolve it, with the
// trials clamped to a handful — at most 4, and an adaptive cap of 8 —
// and 100 ms to run. The run must not panic and must return by its
// deadline, give or take the cancellation poll inside a trial and
// scheduling noise: one that never ends is cut from inside its trial.
// Hazard bodies with extreme shapes and scales reach the profile
// samplers this way.
func FuzzEstimateRun(f *testing.F) {
	for _, body := range []string{
		`{"trials":200,"horizon_years":50,"seed":7}`,
		`{"horizon_years":50,"target_rel_width":0.1,"max_trials":100000}`,
		`{"trials":100,"horizon_years":40,"fleet":[{"tier":"consumer"},{"tier":"tape"}]}`,
		`{"replicas":6,"trials":2}`,
		`{"trials":1000,"horizon_years":10,"bias":4}`,
		`{"trials":100,"horizon_years":50,"hazard":{"kind":"weibull","shape":1.5,"scale_hours":200000,"normalize_hours":438300}}`,
		`{"trials":100,"hazard":{"kind":"weibull","shape":100,"scale_hours":100}}`,
		`{"trials":100,"horizon_years":50,"hazard":{"kind":"weibull","shape":1e300,"scale_hours":1e-300}}`,
		`{"trials":100,"horizon_years":50,"hazard":{"kind":"weibull","shape":2.5,"scale_hours":1e300}}`,
		`{"trials":100,"horizon_years":20,"hazard":{"kind":"piecewise","bounds_hours":[8760,43800],"factors":[3,0,2]}}`,
	} {
		f.Add([]byte(body))
	}
	svc := New(Config{CacheSize: 8, Shards: 1, QueueDepth: 1, JobTimeout: time.Second, SimParallel: 1,
		MaxTrialsCap: 5000, DefaultTargetRel: 0.2})
	f.Cleanup(func() { svc.Shutdown(context.Background()) })
	const budget, slack = 100 * time.Millisecond, 3 * time.Second
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeEstimate(body)
		if err != nil {
			return
		}
		_, _, cfg, opt, err := svc.resolved(req)
		if err != nil {
			return
		}
		opt.Trials = min(opt.Trials, 4)
		if opt.MaxTrials == 0 || opt.MaxTrials > 8 {
			opt.MaxTrials = 8
		}
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatalf("a body with a key builds no runner: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		start := time.Now()
		r.EstimateStream(ctx, opt, nil)
		if elapsed := time.Since(start); elapsed > budget+slack {
			t.Fatalf("the run took %v against a %v deadline", elapsed, budget)
		}
	})
}

// FuzzSweepLine checks appendSweepLine against the json.Encoder it
// replaces: for arbitrary strings, counts and flags, and a Result that is
// json.Marshal output (the contract Sweep's Run keeps), the bytes must be
// identical, newline included.
func FuzzSweepLine(f *testing.F) {
	f.Add(3, "5f2a", "", "", false, 0, 0, 0, 0, 0, 0, int64(0), []byte(`{"mttdl_hours":1.5e6,"losses":2}`))
	f.Add(0, "", "", "", true, 192, 190, 2, 96, 96, 40, int64(17), []byte(nil))
	f.Add(-7, "k<&>", "bad \"alpha\"\n\t\b\f\r\x01\x7f", "w  \xff\xfe", false, -1, 0, 0, 0, 0, 0, int64(-3), []byte(`["<b>&amp;</b>"," ",null,true]`))
	f.Fuzz(func(t *testing.T, index int, key, errMsg, node string, summary bool,
		requested, ok, errs, hits, deduped, disk int, elapsed int64, result []byte) {
		line := SweepLine{Index: index, Key: key, Error: errMsg, Node: node, Summary: summary,
			Requested: requested, OK: ok, Errors: errs, CacheHits: hits, Deduped: deduped, DiskHits: disk, ElapsedMS: elapsed}
		var v any
		if json.Unmarshal(result, &v) == nil {
			var err error
			if line.Result, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(line); err != nil {
			t.Fatal(err)
		}
		if got := appendSweepLine(nil, &line); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendSweepLine wrote\n%s\njson.Encoder writes\n%s", got, want.Bytes())
		}
	})
}
