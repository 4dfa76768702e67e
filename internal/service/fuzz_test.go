package service

import (
	"context"
	"testing"
	"time"
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
