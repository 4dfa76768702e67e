package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/scrub"
)

// recordAuditConfig is recordConfig with random (Poisson) audits and a
// user-access detection channel, so both lazily-resolved detection
// channels draw from the audit stream while a recording is attached.
func recordAuditConfig(t *testing.T) Config {
	t.Helper()
	cfg := recordConfig(t)
	var err error
	if cfg.Scrub, err = scrub.NewPoisson(40); err != nil {
		t.Fatal(err)
	}
	if cfg.AccessDetect, err = scrub.NewOnAccess(1.0/400, 0.5); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRecordTraceMatchesEstimate is the recording contract: a recorded
// run is the run Estimate reports at the same seed — every field, event
// counts included — and its trace does not depend on worker count.
func TestRecordTraceMatchesEstimate(t *testing.T) {
	r, err := NewRunner(recordAuditConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Trials: 300, Seed: 11, Horizon: 5000}
	want, err := r.Estimate(opt)
	if err != nil {
		t.Fatal(err)
	}
	var ndjson [][]byte
	for _, par := range []int{1, 8} {
		opt.Parallel = par
		tr, got, err := r.RecordTrace(opt)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "recorded vs estimated", got, want)
		if got.Stats != want.Stats {
			t.Errorf("Parallel %d: recorded Stats differ from Estimate's:\n%+v\nvs\n%+v", par, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parallel %d: recorded Estimate differs from Estimate at the same seed", par)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		ndjson = append(ndjson, buf.Bytes())
	}
	if !bytes.Equal(ndjson[0], ndjson[1]) {
		t.Errorf("recorded trace differs between Parallel 1 and 8 (%d vs %d bytes)", len(ndjson[0]), len(ndjson[1]))
	}
}
