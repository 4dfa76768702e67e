package sim

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
)

// Adaptive runs must be parallelism-independent: the stopping decision
// happens only at batch boundaries, over batches merged in index order.
func TestAdaptiveParallelismIndependent(t *testing.T) {
	cfg := fastMirror(t)
	run := func(parallel int) Estimate {
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.Estimate(Options{
			Seed:           42,
			Parallel:       parallel,
			TargetRelWidth: 0.08,
			MaxTrials:      20000,
			BatchSize:      128,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	a := run(1)
	b := run(16)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("adaptive run depends on parallelism:\n%+v\nvs\n%+v", a, b)
	}
	if a.Trials >= 20000 {
		t.Fatalf("adaptive run never stopped early (%d trials)", a.Trials)
	}
	if a.Trials%128 != 0 {
		t.Errorf("adaptive run stopped at %d trials, not a batch boundary", a.Trials)
	}
	if rw := a.MTTDL.RelativeHalfWidth(); rw > 0.08 {
		t.Errorf("stopped with relative half-width %.3f > target 0.08", rw)
	}
}

// An adaptive run whose target is never reached must equal the
// fixed-trial run at MaxTrials bit for bit: the stopping rule decides
// only when to stop, never what the trials produce.
func TestAdaptiveExhaustedEqualsFixed(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := r.Estimate(Options{Seed: 3, TargetRelWidth: 1e-9, MaxTrials: 500})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := r.Estimate(Options{Seed: 3, Trials: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adaptive, fixed) {
		t.Fatalf("exhausted adaptive run differs from fixed run:\n%+v\nvs\n%+v", adaptive, fixed)
	}
	if adaptive.Trials != 500 {
		t.Fatalf("exhausted adaptive run did %d trials, want 500", adaptive.Trials)
	}
}

// The horizon-censored stopping criterion is the LossProb Wilson
// interval.
func TestAdaptiveLossProbCriterion(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := r.Estimate(Options{
		Seed:           1,
		Horizon:        20000,
		TargetRelWidth: 0.25,
		MaxTrials:      50000,
		BatchSize:      200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials >= 50000 {
		t.Fatalf("adaptive censored run never stopped early (%d trials)", est.Trials)
	}
	if rw := est.LossProb.RelativeHalfWidth(); rw > 0.25 {
		t.Errorf("stopped with LossProb relative half-width %.3f > target 0.25", rw)
	}
}

func TestAdaptiveMinTrialsRespected(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A huge target would stop at the first boundary; Trials floors it.
	est, err := r.Estimate(Options{
		Seed:           5,
		TargetRelWidth: 10,
		Trials:         1000,
		MaxTrials:      5000,
		BatchSize:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials < 1000 {
		t.Fatalf("adaptive run stopped at %d trials, below the %d minimum", est.Trials, 1000)
	}
}

// EstimateStream must emit monotonic snapshots and a final frame, and
// the estimate must match the sink-less run exactly (progress is
// observational).
func TestEstimateStreamProgress(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 1000, Seed: 9, BatchSize: 100, Parallel: 4}
	var frames []Progress
	est, err := r.EstimateStream(context.Background(), opt, func(p Progress) {
		frames = append(frames, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 10 {
		t.Fatalf("got %d frames, want 10 (one per batch, last one final)", len(frames))
	}
	for i, p := range frames {
		if want := (i + 1) * 100; p.Trials != want {
			t.Errorf("frame %d at %d trials, want %d", i, p.Trials, want)
		}
		if p.Budget != 1000 {
			t.Errorf("frame %d budget %d, want 1000", i, p.Budget)
		}
		if p.Final != (i == len(frames)-1) {
			t.Errorf("frame %d Final = %v", i, p.Final)
		}
	}
	plain, err := r.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est, plain) {
		t.Fatal("streamed estimate differs from plain estimate")
	}
	// The final frame agrees with the folded totals.
	last := frames[len(frames)-1]
	if last.Losses+last.Censored != est.Trials {
		t.Errorf("final frame %d+%d outcomes != %d trials", last.Losses, last.Censored, est.Trials)
	}
}

// Workers must observe cancellation between trials and return promptly,
// and a completed context-run must equal the plain run byte for byte.
func TestEstimateContextCancellation(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// A budget far beyond what 20ms allows: promptness means the abort
	// happened mid-run, not after the budget drained.
	_, err = r.EstimateStream(ctx, Options{Trials: 50_000_000, Seed: 1}, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled run took %v, want < 1s", elapsed)
	}

	// A run that completes under a live context is identical to Estimate.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	opt := Options{Trials: 400, Seed: 17, Parallel: 4}
	viaCtx, err := r.EstimateStream(ctx2, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := r.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCtx, plain) {
		t.Fatal("completed context run differs from Estimate")
	}
}

// Oversubscribed worker counts clamp to the available work instead of
// spawning goroutines that can never claim a trial.
func TestParallelOversubscriptionClamped(t *testing.T) {
	cfg := fastMirror(t)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 4, Seed: 31, Parallel: 64}
	over, err := r.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 1
	serial, err := r.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(over, serial) {
		t.Fatal("oversubscribed run differs from serial run")
	}
	if over.Trials != 4 {
		t.Fatalf("got %d trials, want 4", over.Trials)
	}
}

// A reused worker-local trial must reproduce a freshly-built trial
// exactly — the allocation-reuse path cannot leak state across trials.
func TestTrialReuseMatchesFresh(t *testing.T) {
	cfg := goldenLatent(t)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	specs := cfg.ReplicaSpecs()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused := allocTrial(&cfg, specs, nil)
	base := rng.New(77)
	var src rng.Source
	for _, idx := range []uint64{0, 1, 5, 9, 5, 0} {
		fresh := r.RunTrial(77, idx, 30000)
		base.DeriveInto(idx+trialStreamLabel, &src)
		reused.start(&src)
		got := reused.run(30000)
		if got != fresh {
			t.Fatalf("trial %d: reused %+v != fresh %+v", idx, got, fresh)
		}
	}
}

func TestAdaptiveOptionValidation(t *testing.T) {
	runner, err := NewRunner(fastMirror(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{TargetRelWidth: math.NaN(), MaxTrials: 100},
		{TargetRelWidth: -0.1, Trials: 100},
		{TargetRelWidth: math.Inf(1), MaxTrials: 100},
		{TargetRelWidth: 0.1, MaxTrials: 1},
		{TargetRelWidth: 0.1, Trials: 200, MaxTrials: 100},
		{TargetRelWidth: 0.1, Trials: -1, MaxTrials: 100},
	}
	for i, opt := range cases {
		if _, err := runner.Estimate(opt); err == nil {
			t.Errorf("case %d: invalid adaptive options accepted: %+v", i, opt)
		}
	}
}
