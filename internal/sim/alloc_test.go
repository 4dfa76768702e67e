package sim

import (
	"testing"

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
