package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/telemetry"
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

// A trial that would never end is cancelled from inside: six paper
// replicas run to loss need every replica faulty at once, which the
// audits and repairs keep from happening in any affordable time, so
// only the engine's poll of the done channel can end the run.
func TestDeadlineEndsTrialThatNeverEnds(t *testing.T) {
	cfg, err := PaperConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replicas = 6
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		start := time.Now()
		_, err := r.EstimateStream(ctx, Options{Trials: 2, Seed: 1, Parallel: par}, nil)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Parallel %d: err %v, want context.DeadlineExceeded", par, err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("Parallel %d: cancelled run took %v", par, elapsed)
		}
	}
}

// An adaptive run throws away only work past its stop, and counts it.
// A single worker merges each batch before it claims the next, so it
// knows the stop before it could start a batch past it and discards
// nothing. With two more workers than cores, the admission window
// holds every worker within Parallel batches of the merged prefix, so
// at most (Parallel−1)·BatchSize trials are discarded, and the answer
// is still the Parallel 1 answer.
func TestAdaptiveDiscard(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(DisableMetrics)
	m := metricsPtr.Load()
	r, err := NewRunner(rareMirror(t))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	par := runtime.GOMAXPROCS(0) + 2
	for seed := uint64(1); seed <= 4; seed++ {
		opt := Options{Seed: seed, Horizon: 20000, Bias: AutoBias,
			TargetRelWidth: 0.05, MaxTrials: 1 << 16, BatchSize: batch, Parallel: 1}
		before := m.trialsDiscarded.Value()
		serial, err := r.Estimate(opt)
		if err != nil {
			t.Fatal(err)
		}
		if d := m.trialsDiscarded.Value() - before; d != 0 {
			t.Errorf("seed %d: Parallel 1 discarded %d trials, want 0", seed, d)
		}
		if serial.Trials >= opt.MaxTrials || serial.Trials < 8*batch {
			t.Fatalf("seed %d: stopped at %d trials; want a stop well inside the budget", seed, serial.Trials)
		}
		opt.Parallel = par
		before = m.trialsDiscarded.Value()
		parallel, err := r.Estimate(opt)
		if err != nil {
			t.Fatal(err)
		}
		d := m.trialsDiscarded.Value() - before
		t.Logf("seed %d: stopped at %d trials, %d discarded at Parallel %d", seed, serial.Trials, d, par)
		if d > uint64((par-1)*batch) {
			t.Errorf("seed %d: Parallel %d discarded %d trials, more than (Parallel−1)·BatchSize = %d", seed, par, d, (par-1)*batch)
		}
		if !reflect.DeepEqual(parallel, serial) {
			t.Errorf("seed %d: Parallel %d estimate differs from Parallel 1", seed, par)
		}
	}
}

// admit holds a worker back until its batch is inside the window past
// the merged prefix, and lets it go, unadmitted, when the run is
// cancelled or stops at or before its batch while it waits.
func TestAdmitWaitsForThePrefix(t *testing.T) {
	newState := func() *batchState {
		s := &batchState{window: 2}
		s.gate = sync.NewCond(&s.mu)
		s.stopAt.Store(100)
		return s
	}
	wait := func(s *batchState, b int, done chan struct{}) chan bool {
		got := make(chan bool, 1)
		go func() { got <- s.admit(b, done) }()
		select {
		case v := <-got:
			t.Fatalf("batch %d two past the window: admit returned %v without waiting", b, v)
		case <-time.After(20 * time.Millisecond):
		}
		return got
	}
	wake := func(s *batchState, edit func()) {
		s.mu.Lock()
		edit()
		s.gate.Broadcast()
		s.mu.Unlock()
	}

	s := newState()
	got := wait(s, 3, nil)
	wake(s, func() { s.folded = 2 })
	if !<-got {
		t.Error("the prefix reached the window, but the batch was not admitted")
	}
	s = newState()
	done := make(chan struct{})
	got = wait(s, 3, done)
	close(done)
	s.leave() // a worker that saw done leaves and wakes the rest
	if <-got {
		t.Error("a cancelled run admitted a waiting batch")
	}
	s = newState()
	got = wait(s, 3, nil)
	wake(s, func() { s.stopAt.Store(3) })
	if <-got {
		t.Error("a batch at the stop was admitted")
	}
}

// A panicking sink, which runs on whichever worker merges a batch,
// stops the run and panics on the calling goroutine, where the caller
// can recover it.
func TestSinkPanicReachesCaller(t *testing.T) {
	r, err := NewRunner(fastMirror(t))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	got := func() (p any) {
		defer func() { p = recover() }()
		r.EstimateStream(context.Background(), Options{Trials: 4000, Seed: 2, BatchSize: 50, Parallel: 4},
			func(Progress) {
				if calls++; calls == 3 {
					panic("sink failed")
				}
			})
		return nil
	}()
	if s, ok := got.(string); !ok || !strings.Contains(s, "sink failed") {
		t.Fatalf("recovered %v, want the sink's panic", got)
	}
	if calls != 3 {
		t.Errorf("sink called %d times, want 3: the run went on after the panic", calls)
	}
}
