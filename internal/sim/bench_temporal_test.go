package sim

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
)

// temporalArm is one hazard profile's worker-reuse hot path (as in
// BenchmarkTrialHotPath). Every block replays the same fixed seed set,
// so each block is the same deterministic workload; nsMin keeps the
// arm's fastest block.
type temporalArm struct {
	t     *trial
	base  *rng.Source
	src   rng.Source
	nsMin int64
}

func newTemporalArm(h faults.Hazard) *temporalArm {
	cfg := benchMirror()
	cfg.Hazard = h
	r, err := NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return &temporalArm{t: allocTrial(&r.cfg, r.specs, nil), base: rng.New(1), nsMin: math.MaxInt64}
}

// block runs trials 0..n-1 and returns its wall time.
func (a *temporalArm) block(n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		a.base.DeriveInto(uint64(i)+trialStreamLabel, &a.src)
		a.t.start(&a.src)
		a.t.run(0)
	}
	return time.Since(start)
}

// allocsPerTrial also warms the arm up: AllocsPerRun makes one untimed
// run before it counts.
func (a *temporalArm) allocsPerTrial(n int) int64 {
	return int64(testing.AllocsPerRun(2, func() { a.block(n) })) / int64(n)
}

// TestBenchArtifactTemporal gates the hazard plumbing's hot-path cost:
// an unprofiled trial must run within 1.10x of its pre-hazard speed
// proxy (the ConstantHazard{1} arm bounds the profiled sampler; the
// nil arm must not have picked up overhead from the profile plumbing
// itself, which it can only show against the constant arm), and neither
// profiled arm may allocate more than the nil path — the profiled
// sampler is allocation-free by construction. The constant arm is
// dynamically identical to the unprofiled process, so the ratio
// isolates the profiled path's own overhead; the Weibull arm times a
// real time-varying profile for context.
func TestBenchArtifactTemporal(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark artifact is not a -short test")
	}
	// Each round runs one short block (~2 ms) of the nil and const arms
	// back to back, swapping which goes first, and takes their ratio, so
	// drifting background load (CI neighbours, the rest of the package's
	// tests) lands on both sides of each ratio alike. The gate is the
	// median of the per-round ratios: one lucky block on either side
	// cannot move it, as it could a ratio of the two arms' minima.
	const (
		blockTrials = 128
		rounds      = 400
	)
	nilArm := newTemporalArm(nil)
	constArm := newTemporalArm(faults.ConstantHazard{Factor: 1})
	weibArm := newTemporalArm(faults.WeibullHazard{Shape: 2, Scale: 2000})
	allocsNil := nilArm.allocsPerTrial(blockTrials)
	allocsConst := constArm.allocsPerTrial(blockTrials)
	weibArm.allocsPerTrial(blockTrials)
	timed := func(a *temporalArm) int64 {
		ns := a.block(blockTrials).Nanoseconds() / blockTrials
		a.nsMin = min(a.nsMin, ns)
		return ns
	}
	ratios := make([]float64, rounds)
	for r := range ratios {
		var nsNil, nsConst int64
		if r%2 == 0 {
			nsNil, nsConst = timed(nilArm), timed(constArm)
		} else {
			nsConst, nsNil = timed(constArm), timed(nilArm)
		}
		ratios[r] = float64(nsConst) / float64(nsNil)
		timed(weibArm)
	}
	sort.Float64s(ratios)
	median := (ratios[rounds/2-1] + ratios[rounds/2]) / 2
	nsNil, nsConst, nsWeib := nilArm.nsMin, constArm.nsMin, weibArm.nsMin

	overhead := float64(nsConst) / float64(nsNil)
	if median > 1.10 {
		t.Errorf("ConstantHazard{1} trials cost a median %.3fx the nil-profile path per round (fastest blocks %d vs %d ns/trial); profiled-path overhead exceeds the 1.10x budget",
			median, nsConst, nsNil)
	}
	if allocsConst > allocsNil {
		t.Errorf("profiled hot path allocates %d objects/trial vs nil %d; the profiled sampler must be allocation-free",
			allocsConst, allocsNil)
	}

	t.Logf("nil %d ns/trial, const-profile %d ns/trial (%.3fx, median round %.3fx), weibull %d ns/trial",
		nsNil, nsConst, overhead, median, nsWeib)
}
