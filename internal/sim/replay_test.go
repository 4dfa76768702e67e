package sim

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/scrub"
	"repro/internal/trace"
)

// recordConfig exercises every event source a trace can carry: both
// fault channels, periodic scrubbing, buggy repairs (planted latent
// faults), and a common-cause shock.
func recordConfig(t *testing.T) Config {
	t.Helper()
	rep, err := repair.Automated(50, 50, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replicas:    2,
		VisibleMean: 2000,
		LatentMean:  3000,
		Scrub:       scrub.Periodic{Interval: 200},
		Repair:      rep,
		Correlation: faults.Independent{},
		Shocks: []faults.Shock{{
			Name: "power", Mean: 8000, Targets: []int{0, 1},
			Kind: faults.Visible, HitProb: 0.7,
		}},
	}
}

func recordTrace(t *testing.T) (*trace.Trace, Estimate) {
	t.Helper()
	r, err := NewRunner(recordConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	tr, est, err := r.RecordTrace(Options{Trials: 300, Seed: 11, Horizon: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return tr, est
}

// sameOutcome compares the loss-trajectory-derived parts of two
// estimates bit for bit. Stats are excluded deliberately: replay
// re-simulates audits and detections, so event counts legitimately
// differ while every outcome is identical.
func sameOutcome(t *testing.T, label string, a, b Estimate) {
	t.Helper()
	if a.Trials != b.Trials || a.Censored != b.Censored {
		t.Errorf("%s: trials/censored %d/%d vs %d/%d", label, a.Trials, a.Censored, b.Trials, b.Censored)
	}
	if a.Matrix != b.Matrix {
		t.Errorf("%s: double-fault matrix differs:\n%+v\nvs\n%+v", label, a.Matrix, b.Matrix)
	}
	pairs := [][2]float64{
		{a.LossProb.Point, b.LossProb.Point}, {a.LossProb.Lo, b.LossProb.Lo}, {a.LossProb.Hi, b.LossProb.Hi},
		{a.MTTDL.Point, b.MTTDL.Point}, {a.MTTDL.Lo, b.MTTDL.Lo}, {a.MTTDL.Hi, b.MTTDL.Hi},
		{a.Survival.MaxTime(), b.Survival.MaxTime()},
		{a.Survival.RestrictedMean(20000), b.Survival.RestrictedMean(20000)},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Errorf("%s: outcome field %d differs: %v vs %v", label, i, p[0], p[1])
		}
	}
}

// TestPinnedReplayReproducesOutcomes is the replay contract: a pinned
// replay of a recorded run reproduces every loss outcome exactly — with
// a different seed, since recorded faults and pinned repairs fully
// determine the faulty-count trajectory.
func TestPinnedReplayReproducesOutcomes(t *testing.T) {
	tr, recorded := recordTrace(t)
	if recorded.Censored == 0 || recorded.Censored == recorded.Trials {
		t.Fatalf("degenerate recording (censored %d of %d)", recorded.Censored, recorded.Trials)
	}
	if len(tr.Events) == 0 {
		t.Fatalf("recorded trace is empty")
	}
	r, err := NewReplayRunner(recordConfig(t), tr, true)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := r.ReplayEstimate(Options{Seed: 999, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "pinned replay", recorded, replayed)
}

func TestReplayParallelBitIdentity(t *testing.T) {
	tr, _ := recordTrace(t)
	var got []Estimate
	for _, par := range []int{1, 8} {
		r, err := NewReplayRunner(recordConfig(t), tr, true)
		if err != nil {
			t.Fatal(err)
		}
		est, err := r.ReplayEstimate(Options{Seed: 1, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, est)
	}
	sameOutcome(t, "parallel replay", got[0], got[1])
	if got[0].Stats != got[1].Stats {
		t.Errorf("replay Stats differ across Parallel 1 vs 8:\n%+v\nvs\n%+v", got[0].Stats, got[1].Stats)
	}
}

// TestReplayNDJSONRoundTrip drives the full wire path: serialize the
// recorded trace, re-parse it, and check the replay is unchanged.
func TestReplayNDJSONRoundTrip(t *testing.T) {
	tr, recorded := recordTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Parse(&buf)
	if err != nil {
		t.Fatalf("re-parsing recorded trace: %v", err)
	}
	r, err := NewReplayRunner(recordConfig(t), parsed, true)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := r.ReplayEstimate(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "round-tripped replay", recorded, replayed)
}

// TestPolicyReplayCounterfactual replays the same fault history under a
// far stronger repair policy: repairs two orders of magnitude faster and
// scrubs four times as frequent. The counterfactual fleet must lose
// data in strictly fewer trials.
func TestPolicyReplayCounterfactual(t *testing.T) {
	tr, recorded := recordTrace(t)
	cfg := recordConfig(t)
	rep, err := repair.Automated(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Repair = rep
	cfg.Scrub = scrub.Periodic{Interval: 50}
	r, err := NewReplayRunner(cfg, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := r.ReplayEstimate(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recLosses := recorded.Trials - recorded.Censored
	ctrLosses := counter.Trials - counter.Censored
	if ctrLosses >= recLosses {
		t.Errorf("stronger policy lost %d trials vs recorded %d; counterfactual replay is not re-deciding repairs", ctrLosses, recLosses)
	}
}

func TestReplayValidation(t *testing.T) {
	tr, _ := recordTrace(t)
	cfg := recordConfig(t)

	if _, err := NewReplayRunner(cfg, nil, true); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil trace: err = %v", err)
	}

	three := cfg
	three.Replicas = 3
	if _, err := NewReplayRunner(three, tr, true); err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Errorf("fleet-size mismatch: err = %v", err)
	}

	r, err := NewReplayRunner(cfg, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Estimate(Options{Trials: 10, Seed: 1, Horizon: 5000}); err == nil || !strings.Contains(err.Error(), "trials") {
		t.Errorf("trial-count mismatch: err = %v", err)
	}
	if _, err := r.Estimate(Options{Trials: 300, Seed: 1, Horizon: 5}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("horizon mismatch: err = %v", err)
	}
	if _, err := r.Estimate(Options{Trials: 300, Seed: 1, Horizon: 5000, TargetRelWidth: 0.1}); err == nil || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("adaptive replay: err = %v", err)
	}
	if _, err := r.Estimate(Options{Trials: 300, Seed: 1, Horizon: 5000, Bias: 4}); err == nil || !strings.Contains(err.Error(), "biasing") {
		t.Errorf("biased replay: err = %v", err)
	}
	if _, _, err := r.RecordTrace(Options{Trials: 10, Seed: 1, Horizon: 100}); err == nil || !strings.Contains(err.Error(), "record") {
		t.Errorf("recording from a replay runner: err = %v", err)
	}

	plain, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ReplayEstimate(Options{Seed: 1}); err == nil || !strings.Contains(err.Error(), "replay runner") {
		t.Errorf("ReplayEstimate without a trace: err = %v", err)
	}
	if _, _, err := plain.RecordTrace(Options{Trials: 10, Seed: 1}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("recording without a horizon: err = %v", err)
	}
	if _, _, err := plain.RecordTrace(Options{Trials: 10, Seed: 1, Horizon: 100, Bias: 4}); err == nil || !strings.Contains(err.Error(), "biasing") {
		t.Errorf("recording under bias: err = %v", err)
	}
	if _, _, err := plain.RecordTrace(Options{Seed: 1, Horizon: 100, TargetRelWidth: 0.1}); err == nil || !strings.Contains(err.Error(), "fixed") {
		t.Errorf("adaptive recording: err = %v", err)
	}
}

// TestRecordTraceWithHazard checks the tentpole features compose: a
// profiled (time-varying) fleet records and replays exactly too.
func TestRecordTraceWithHazard(t *testing.T) {
	cfg := recordConfig(t)
	cfg.Shocks = nil
	cfg.Hazard = faults.WeibullHazard{Shape: 2, Scale: 8000}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, recorded, err := r.RecordTrace(Options{Trials: 200, Seed: 21, Horizon: 20000})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewReplayRunner(cfg, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := rr.ReplayEstimate(Options{Seed: 4, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "profiled replay", recorded, replayed)
}

// TestReplayRunnerHugeTrialClaimAllocatesNothing: a one-line trace whose
// header claims 10^9 trials builds a replay runner without allocating
// per claimed trial, and every trial replays as an empty history.
func TestReplayRunnerHugeTrialClaimAllocatesNothing(t *testing.T) {
	tr, err := trace.ParseString(`{"v":1,"kind":"ltsim-trace","replicas":2,"trials":1000000000,"horizon_hours":1000}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := recordConfig(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReplayRunner(cfg, tr, true)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("NewReplayRunner allocated %d bytes for a trace of no events", grew)
	}
	for _, i := range []int{0, 5e8, 1e9 - 1} {
		if evs := r.replay.TrialEvents(i); len(evs) != 0 {
			t.Errorf("trial %d replays %d events, want none", i, len(evs))
		}
	}
}
