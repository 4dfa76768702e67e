package sim

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/scrub"
)

// benchMirror is the hot-path benchmark config: a deliberately fragile
// mirror whose run-to-loss trials stay short (~100 events), so the
// benchmark measures per-event engine and accumulator cost rather than
// one enormous trial.
func benchMirror() Config {
	rep, err := repair.Automated(10, 10, 0)
	if err != nil {
		panic(err)
	}
	return Config{
		Replicas:    2,
		VisibleMean: 1000,
		LatentMean:  math.Inf(1),
		Scrub:       scrub.None{},
		Repair:      rep,
		Correlation: faults.Independent{},
	}
}

// BenchmarkTrialHotPath measures the worker-local reuse path — one
// allocation-recycled trial re-seeded and re-run per iteration, exactly
// as EstimateStream's workers drive it. ns/op is hours-to-loss
// simulation cost per trial; allocs/op is the per-trial allocation count
// the reuse refactor exists to minimize.
func BenchmarkTrialHotPath(b *testing.B) {
	cfg := benchMirror()
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	t := allocTrial(&r.cfg, r.specs, nil)
	base := rng.New(1)
	var src rng.Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.DeriveInto(uint64(i)+trialStreamLabel, &src)
		t.start(&src)
		t.run(0)
	}
}

// BenchmarkEstimateCensored measures a full streaming estimation in the
// paper's interesting regime — high survival, horizon-censored — where
// the O(batch) memory claim matters most.
func BenchmarkEstimateCensored(b *testing.B) {
	cfg := benchMirror()
	cfg.VisibleMean = 1e6
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Estimate(Options{Trials: 2000, Seed: uint64(i) + 1, Horizon: 20000, Parallel: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// estimateAllocBytes returns the total bytes allocated by one streaming
// estimation of a rare-loss censored scenario at the given trial budget.
func estimateAllocBytes(t *testing.T, trials int) int64 {
	t.Helper()
	cfg := benchMirror()
	cfg.VisibleMean = 1e9 // effectively immortal: the rare-loss regime
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Estimate(Options{Trials: trials, Seed: 1, Horizon: 1000, Parallel: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	return res.AllocedBytesPerOp()
}

// TestBenchArtifactSim measures the trial hot path and the estimation
// memory profile and asserts the structural claims: trial reuse keeps
// per-trial allocations low, and quadrupling the trial budget does not
// come close to quadrupling allocated bytes. ltbench's
// sim.allocs_per_trial and sim.bytes_per_trial layers track the same
// figures.
func TestBenchArtifactSim(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark artifact is not a -short test")
	}
	hot := testing.Benchmark(BenchmarkTrialHotPath)
	small, large := 2000, 8000
	bytesSmall := estimateAllocBytes(t, small)
	bytesLarge := estimateAllocBytes(t, large)
	ratio := float64(bytesLarge) / float64(bytesSmall)

	// The historical implementation allocated an O(Trials) result slice
	// plus an O(Trials) observation slice, so 4x the budget meant ~4x
	// the bytes. Streaming reduction must hold the growth well under
	// that; 2x leaves headroom for noise.
	if ratio > 2 {
		t.Errorf("4x trial budget grew allocated bytes %.2fx (%d -> %d); estimation memory still scales with Trials",
			ratio, bytesSmall, bytesLarge)
	}
	// Worker-local reuse bounds per-trial allocations: the des engine
	// (its slot table and heap), replicas, processes, sources and arm
	// closures are all recycled. The seed implementation (fresh event
	// graph plus a closure per scheduled event, measured on this exact
	// config) allocated ~419 objects/trial; the reuse path measures 0
	// (TestTrialHotPathAllocsZero gates that exactly). Gate at 250 to
	// catch a regression back toward per-trial rebuilding without
	// flaking on environment noise.
	if hot.AllocsPerOp() > 250 {
		t.Errorf("hot path allocates %d objects/trial, want <= 250 (seed path was ~419)", hot.AllocsPerOp())
	}

	t.Logf("hot path %d ns/trial, %d allocs/trial; bytes %d @%d trials vs %d @%d trials (%.2fx)",
		hot.NsPerOp(), hot.AllocsPerOp(), bytesSmall, small, bytesLarge, large, ratio)
}

// censoredWeibullTrial allocates one worker trial of a sweep_store
// point: four replicas at α = 0.5 under the normalized Weibull 1.5
// profile, censored at 50 years, with the engine bounded there as
// EstimateStream's workers bound it.
func censoredWeibullTrial(tb testing.TB) (*trial, float64) {
	tb.Helper()
	cfg, opt := fingerprintWeibull(tb, 4)
	a, err := faults.NewAlphaCorrelation(0.5)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Correlation = a
	r, err := NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	t := allocTrial(&r.cfg, r.specs, nil)
	t.eng.SetHorizon(opt.Horizon)
	return t, opt.Horizon
}

// BenchmarkTrialCensoredWeibull measures the worker-local reuse path on
// a censored, profiled trial: inversion through the Weibull kernel and
// correlated re-arms whose draws mostly land past the horizon.
func BenchmarkTrialCensoredWeibull(b *testing.B) {
	t, horizon := censoredWeibullTrial(b)
	base := rng.New(1)
	var src rng.Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.DeriveInto(uint64(i)+trialStreamLabel, &src)
		t.start(&src)
		t.run(horizon)
	}
}
