package sim

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// ObsBenchArtifact is the schema of BENCH_observability.json: the
// instrumentation-overhead measurement CI publishes alongside the other
// bench artifacts. The headline number is the trial hot path with
// metrics enabled versus disabled — the PR's <= 3% overhead budget.
// Telemetry records on the reducer at batch boundaries, never in the
// per-trial loop, so the ratio should sit at 1.0 modulo noise.
type ObsBenchArtifact struct {
	Bench                  string  `json:"bench"`
	PlainNsPerTrial        int64   `json:"plain_ns_per_trial"`
	InstrumentedNsPerTrial int64   `json:"instrumented_ns_per_trial"`
	HotPathOverhead        float64 `json:"hot_path_overhead"`
	PlainEstimateNsPerOp   int64   `json:"plain_estimate_ns_per_op"`
	InstrEstimateNsPerOp   int64   `json:"instrumented_estimate_ns_per_op"`
	EstimateOverhead       float64 `json:"estimate_overhead"`
	GoMaxProcs             int     `json:"gomaxprocs"`
}

// measurePair times one workload with metrics disabled and enabled, by
// the method TestBenchArtifactTemporal uses: the two sides alternate in
// short blocks, every block replays the same fixed seed set, and each
// side keeps its fastest block. Drifting background load then lands on
// both sides alike, and with many blocks per side some of each run
// undisturbed. block runs one block and returns its wall time; the
// results are ns per unit, for units work items per block.
func measurePair(blocks, units int, block func() time.Duration) (plain, instrumented int64) {
	plain, instrumented = math.MaxInt64, math.MaxInt64
	reg := telemetry.NewRegistry()
	plainBlock := func() {
		DisableMetrics()
		plain = min(plain, block().Nanoseconds()/int64(units))
	}
	instrBlock := func() {
		EnableMetrics(reg)
		instrumented = min(instrumented, block().Nanoseconds()/int64(units))
	}
	for b := 0; b < blocks; b++ {
		// Swap which side goes first every round, so neither side
		// systematically inherits the other's cache and scheduler state.
		if b%2 == 0 {
			plainBlock()
			instrBlock()
		} else {
			instrBlock()
			plainBlock()
		}
	}
	DisableMetrics()
	return plain, instrumented
}

// estimateBlock times one full streaming estimation at a fixed seed,
// the path that actually contains the (batch-boundary) instrumentation.
// One worker keeps the fastest block reachable on a loaded machine: a
// two-worker run is only fast when both cores happen to be free, which
// one side of the pair can miss for a whole measurement.
func estimateBlock(t *testing.T) func() time.Duration {
	r, err := NewRunner(benchMirror())
	if err != nil {
		t.Fatal(err)
	}
	return func() time.Duration {
		start := time.Now()
		if _, err := r.Estimate(Options{Trials: 500, Seed: 1, Horizon: 20000, Parallel: 1}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
}

// TestBenchArtifactObservability measures instrumentation overhead and,
// when BENCH_OBS_OUT is set, writes BENCH_observability.json. Without
// the env var it still gates the acceptance criterion: enabling metrics
// must not slow the per-trial hot path by more than 3%.
func TestBenchArtifactObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark artifact is not a -short test")
	}
	out := os.Getenv("BENCH_OBS_OUT")
	t.Cleanup(DisableMetrics)
	// Hot-path blocks are 32 worker-reuse trials (~0.5 ms), estimate
	// blocks one 500-trial run (~4 ms).
	const blockTrials = 32
	hot := newTemporalArm(nil)
	plainHot, instrHot := measurePair(1600, blockTrials, func() time.Duration { return hot.block(blockTrials) })
	plainEst, instrEst := measurePair(400, 1, estimateBlock(t))

	hotOverhead := float64(instrHot) / float64(plainHot)
	estOverhead := float64(instrEst) / float64(plainEst)
	// The 3% acceptance gate holds only when the benchmark owns the
	// machine — the dedicated CI artifact step (BENCH_OBS_OUT set). Under
	// a plain `go test ./...` other packages' tests run concurrently and
	// load noise swamps a 3% signal, so gate loosely there: still enough
	// to catch instrumentation leaking into the per-trial loop (the hot
	// path contains zero telemetry code, so its true ratio is 1.0).
	hotGate, estGate := 1.25, 1.30
	if out != "" {
		hotGate, estGate = 1.03, 1.15
	}
	if hotOverhead > hotGate {
		t.Errorf("trial hot path overhead = %.3fx (%d -> %d ns/trial), want <= %.2fx",
			hotOverhead, plainHot, instrHot, hotGate)
	}
	// The estimate path contains the actual recording (one counter add
	// and histogram observe per ~BatchSize trials); its gate is looser —
	// it measures whole parallel runs, so run-to-run noise dwarfs the
	// instrumentation.
	if estOverhead > estGate {
		t.Errorf("estimate overhead = %.3fx (%d -> %d ns/op), want <= %.2fx", estOverhead, plainEst, instrEst, estGate)
	}

	art := ObsBenchArtifact{
		Bench:                  "sim_instrumentation_overhead",
		PlainNsPerTrial:        plainHot,
		InstrumentedNsPerTrial: instrHot,
		HotPathOverhead:        hotOverhead,
		PlainEstimateNsPerOp:   plainEst,
		InstrEstimateNsPerOp:   instrEst,
		EstimateOverhead:       estOverhead,
		GoMaxProcs:             runtime.GOMAXPROCS(0),
	}
	if out == "" {
		t.Logf("hot path %.3fx (%d -> %d ns/trial), estimate %.3fx — set BENCH_OBS_OUT to write the artifact",
			hotOverhead, plainHot, instrHot, estOverhead)
		return
	}
	bts, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(bts, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: hot path %.3fx, estimate %.3fx", out, hotOverhead, estOverhead)
}
