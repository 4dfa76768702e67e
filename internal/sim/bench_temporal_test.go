package sim

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
)

// TemporalBenchArtifact is the schema of BENCH_temporal.json: what the
// hazard-profile thinning machinery costs on the trial hot path. The
// constant arm runs ConstantHazard{1} — dynamically identical to the
// unprofiled process — so the nil/constant ratio isolates pure thinning
// overhead (the envelope walk and its interface calls; a tight envelope
// spends no acceptance draws) from any change in simulated dynamics;
// the Weibull arm reports a real time-varying profile for context.
type TemporalBenchArtifact struct {
	Bench             string  `json:"bench"`
	NsPerTrialNil     int64   `json:"ns_per_trial_nil"`
	NsPerTrialConst   int64   `json:"ns_per_trial_const"`
	NsPerTrialWeibull int64   `json:"ns_per_trial_weibull"`
	ConstOverhead     float64 `json:"const_overhead"`
	AllocsNil         int64   `json:"allocs_nil"`
	AllocsConst       int64   `json:"allocs_const"`
	GoMaxProcs        int     `json:"gomaxprocs"`
}

// temporalArm is one hazard profile's worker-reuse hot path (as in
// BenchmarkTrialHotPath). Every block replays the same fixed seed set,
// so each block is the same deterministic workload and the fastest block
// is the arm's noise-robust cost.
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
// proxy (the ConstantHazard{1} arm bounds the thinning machinery; the
// nil arm must not have picked up overhead from the profile plumbing
// itself, which it can only show against the constant arm), and neither
// profiled arm may allocate more than the nil path — thinning is
// allocation-free by construction. When BENCH_TEMPORAL_OUT is set the
// measurement is written as BENCH_temporal.json for CI to publish.
func TestBenchArtifactTemporal(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark artifact is not a -short test")
	}
	// The arms alternate in short blocks (~2 ms each) so drifting
	// background load (CI neighbours, the rest of the package's tests)
	// lands on both sides of the ratio alike; each arm keeps its fastest
	// block, and with hundreds of blocks per arm some of each run
	// undisturbed.
	const (
		blockTrials = 128
		blocks      = 400
	)
	nilArm := newTemporalArm(nil)
	constArm := newTemporalArm(faults.ConstantHazard{Factor: 1})
	weibArm := newTemporalArm(faults.WeibullHazard{Shape: 2, Scale: 2000})
	allocsNil := nilArm.allocsPerTrial(blockTrials)
	allocsConst := constArm.allocsPerTrial(blockTrials)
	weibArm.allocsPerTrial(blockTrials)
	arms := []*temporalArm{nilArm, constArm, weibArm}
	for b := 0; b < blocks; b++ {
		for _, a := range arms {
			if ns := a.block(blockTrials).Nanoseconds() / blockTrials; ns < a.nsMin {
				a.nsMin = ns
			}
		}
	}
	nsNil, nsConst, nsWeib := nilArm.nsMin, constArm.nsMin, weibArm.nsMin

	overhead := float64(nsConst) / float64(nsNil)
	if overhead > 1.10 {
		t.Errorf("ConstantHazard{1} trials cost %.3fx the nil-profile path (%d vs %d ns/trial); thinning overhead exceeds the 1.10x budget",
			overhead, nsConst, nsNil)
	}
	if allocsConst > allocsNil {
		t.Errorf("profiled hot path allocates %d objects/trial vs nil %d; thinning must be allocation-free",
			allocsConst, allocsNil)
	}

	art := TemporalBenchArtifact{
		Bench:             "sim_hazard_profile_hot_path",
		NsPerTrialNil:     nsNil,
		NsPerTrialConst:   nsConst,
		NsPerTrialWeibull: nsWeib,
		ConstOverhead:     overhead,
		AllocsNil:         allocsNil,
		AllocsConst:       allocsConst,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
	}
	out := os.Getenv("BENCH_TEMPORAL_OUT")
	if out == "" {
		t.Logf("nil %d ns/trial, const-profile %d ns/trial (%.3fx), weibull %d ns/trial — set BENCH_TEMPORAL_OUT to write the artifact",
			nsNil, nsConst, overhead, nsWeib)
		return
	}
	bts, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(bts, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: const overhead %.3fx, weibull %d ns/trial", out, overhead, nsWeib)
}
