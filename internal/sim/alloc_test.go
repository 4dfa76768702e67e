package sim

import (
	"strconv"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
)

// TestTrialHotPathAllocsZero gates the worker-reuse hot path of
// BenchmarkTrialHotPath on a stable count: once the trial's engine has
// grown its slot table and heap, re-seeding and re-running a trial on
// benchMirror allocates nothing.
func TestTrialHotPathAllocsZero(t *testing.T) {
	r, err := NewRunner(benchMirror())
	if err != nil {
		t.Fatal(err)
	}
	tr := allocTrial(&r.cfg, r.specs, nil)
	base := rng.New(1)
	var src rng.Source
	const trials = 256
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < trials; i++ {
			base.DeriveInto(uint64(i)+trialStreamLabel, &src)
			tr.start(&src)
			tr.run(0)
		}
	})
	if perTrial := allocs / trials; perTrial != 0 {
		t.Errorf("hot path allocates %v objects/trial, want 0", perTrial)
	}
}

// TestCensoredWeibullTrialAllocsZero is the same gate on a censored,
// profiled trial on a bounded engine: parking events past the horizon
// reuses the parked list as the heap reuses its array.
func TestCensoredWeibullTrialAllocsZero(t *testing.T) {
	tr, horizon := censoredWeibullTrial(t)
	base := rng.New(1)
	var src rng.Source
	const trials = 256
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < trials; i++ {
			base.DeriveInto(uint64(i)+trialStreamLabel, &src)
			tr.start(&src)
			tr.run(horizon)
		}
	})
	if perTrial := allocs / trials; perTrial != 0 {
		t.Errorf("censored Weibull trial allocates %v objects/trial, want 0", perTrial)
	}
}

// allocsPerTrial re-seeds and re-runs tr 256 times, censored at horizon
// (0 runs to loss), and returns the allocations per trial.
func allocsPerTrial(tr *trial, horizon float64) float64 {
	base := rng.New(1)
	var src rng.Source
	const trials = 256
	return testing.AllocsPerRun(3, func() {
		for i := 0; i < trials; i++ {
			base.DeriveInto(uint64(i)+trialStreamLabel, &src)
			tr.start(&src)
			tr.run(horizon)
		}
	}) / trials
}

// TestBiasedTrialAllocsZero is the same gate on the re-arm-heavy path:
// an auto-biased mirror with 1 h repairs censored at 1000 h, whose every
// faulty transition re-draws the healthy replica's arrival.
func TestBiasedTrialAllocsZero(t *testing.T) {
	const horizon = 1000.0
	r, err := NewRunner(rareMirror(t))
	if err != nil {
		t.Fatal(err)
	}
	tr := allocTrial(&r.cfg, r.specs, nil)
	tr.setBiasFactor(resolveBias(&r.cfg, horizon, AutoBias))
	tr.eng.SetHorizon(horizon)
	if perTrial := allocsPerTrial(tr, horizon); perTrial != 0 {
		t.Errorf("biased trial allocates %v objects/trial, want 0", perTrial)
	}
}

// TestShockTrialAllocsZero is the same gate on benchMirror with one
// common-cause shock that strikes each of its two targets with
// probability 0.5: the struck targets go into a buffer the trial reuses.
func TestShockTrialAllocsZero(t *testing.T) {
	cfg := benchMirror()
	cfg.Shocks = []faults.Shock{{Name: "psu", Mean: 5000, Targets: []int{0, 1}, Kind: faults.Visible, HitProb: 0.5}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := allocTrial(&r.cfg, r.specs, nil)
	if perTrial := allocsPerTrial(tr, 0); perTrial != 0 {
		t.Errorf("shock trial allocates %v objects/trial, want 0", perTrial)
	}
}

// fingerprintWeibull is a sweep-style point: the §5.4 mirror widened
// to replicas copies, with sweep_store's Weibull wear-out profile
// normalized over the 50-year horizon it is censored at.
func fingerprintWeibull(tb testing.TB, replicas int) (Config, Options) {
	tb.Helper()
	cfg, err := PaperConfig(3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := faults.NewWeibullHazard(1.5, 200000)
	if err != nil {
		tb.Fatal(err)
	}
	if cfg.Hazard, err = faults.Normalize(w, 438300); err != nil {
		tb.Fatal(err)
	}
	cfg.Replicas = replicas
	return cfg, Options{Trials: 1000, Seed: 21, Horizon: 50 * 8760}
}

// TestFingerprintAllocs gates the canonical encoder on allocation
// counts, which are stable from run to run: a uniform fleet encodes its
// one spec once into a stack buffer, so a 2-replica key costs the boxed
// spec and the hex string, and 8 replicas add only the buffer's growth
// past the stack.
func TestFingerprintAllocs(t *testing.T) {
	for _, c := range []struct {
		replicas int
		max      float64
	}{{2, 3}, {8, 5}} {
		cfg, opt := fingerprintWeibull(t, c.replicas)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Fingerprint(cfg, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d replicas: %v allocs/Fingerprint", c.replicas, allocs)
		if allocs > c.max {
			t.Errorf("Fingerprint at %d replicas allocates %v objects, want <= %v", c.replicas, allocs, c.max)
		}
	}
}

// BenchmarkFingerprint measures one sweep-style key at 2, 4 and 8
// replicas.
func BenchmarkFingerprint(b *testing.B) {
	for _, replicas := range []int{2, 4, 8} {
		cfg, opt := fingerprintWeibull(b, replicas)
		b.Run(strconv.Itoa(replicas), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fingerprint(cfg, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
