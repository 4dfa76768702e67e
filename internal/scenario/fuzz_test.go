package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
)

// FuzzHazardSpec drives HazardSpec.Build with arbitrary kinds and
// parameters, NaN and ±Inf included (flags and Go callers can pass what
// JSON cannot). It must never panic and must reject the same spec with
// the same error every time. A spec it accepts must fingerprint, inside
// an EstimateRequest, to the same key twice and again after a JSON round
// trip, and its profile must draw a first fault — a time >= 0, or +Inf
// for never — from the process the request builds. An accepted
// piecewise or bathtub spec with normalize_hours must keep what
// normalization promises: its factor times stepMean of the built
// segments over that horizon is 1 within 1e-9. bounds and factors are
// comma-separated numbers; an empty string is a nil slice.
func FuzzHazardSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind string, factor, shape, scale, burnIn, burnInFactor, wearOnset, wearFactor, normalize float64, bounds, factors string) {
		parse := func(s string) ([]float64, bool) {
			if s == "" {
				return nil, true
			}
			parts := strings.Split(s, ",")
			if len(parts) > 64 {
				return nil, false
			}
			out := make([]float64, len(parts))
			for i, p := range parts {
				v, err := strconv.ParseFloat(p, 64)
				if err != nil {
					return nil, false
				}
				out[i] = v
			}
			return out, true
		}
		b, okB := parse(bounds)
		fs, okF := parse(factors)
		if !okB || !okF {
			return
		}
		spec := HazardSpec{Kind: kind, Factor: factor, Shape: shape, ScaleHours: scale,
			BurnInHours: burnIn, BurnInFactor: burnInFactor, WearOnsetHours: wearOnset, WearFactor: wearFactor,
			BoundsHours: b, Factors: fs, NormalizeHours: normalize}

		h, err := spec.Build()
		if _, again := spec.Build(); (err == nil) != (again == nil) || err != nil && err.Error() != again.Error() {
			t.Fatalf("Build is not repeatable: %v, then %v", err, again)
		}
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("Build accepted a profile that fails its own validation: %v", err)
		}

		if n, ok := h.(faults.ScaledHazard); ok {
			if pw, ok := n.Base.(faults.PiecewiseHazard); ok {
				if m := n.Factor * stepMean(pw.Bounds, pw.Factors, normalize); math.Abs(m-1) > 1e-9 {
					t.Fatalf("normalized over %v h, the mean multiplier is %v, want 1", normalize, m)
				}
			}
		}

		req := EstimateRequest{Trials: 100, HorizonYears: 50, Hazard: &spec}
		fp, err := req.Fingerprint()
		if err != nil {
			t.Fatalf("accepted spec does not fingerprint: %v", err)
		}
		if again, err := req.Fingerprint(); err != nil || again != fp {
			t.Fatalf("fingerprint unstable: %s, then %s (%v)", fp, again, err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		var back EstimateRequest
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		if got, err := back.Fingerprint(); err != nil || got != fp {
			t.Fatalf("JSON round trip %s moved the key: %s, then %s (%v)", body, fp, got, err)
		}

		cfg, _, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := faults.NewProcess(cfg.VisibleMean)
		if err != nil {
			t.Fatal(err)
		}
		p.SetProfile(cfg.Hazard)
		if at := p.SampleNextAt(0, rng.New(1)); !(at >= 0) {
			t.Fatalf("first draw %v, want >= 0 or +Inf", at)
		}
	})
}

// stepMean is the mean over [0, h] of the step function that is
// factors[i] on [bounds[i-1], bounds[i]), with bounds[-1] = 0 and the
// last factor running on forever: each segment's factor times the part
// of [0, h] it covers, summed and divided by h.
func stepMean(bounds, factors []float64, h float64) float64 {
	total, lo := 0.0, 0.0
	for i, f := range factors {
		hi := h
		if i < len(bounds) {
			hi = min(bounds[i], h)
		}
		if hi > lo {
			total += f * (hi - lo)
		}
		if hi == h {
			break
		}
		lo = hi
	}
	return total / h
}

// FuzzScenarioDocument drives Parse and Expand with arbitrary bytes, as
// the daemon's /sweep and /scenarios/expand bodies do. No input may
// panic. A document Parse accepts must expand to exactly numPoints
// points, and its JSON encoding must parse back to a document that
// encodes to the same bytes (encoded bytes, not DeepEqual, because an
// empty slice and an absent one decode differently but encode alike).
// The first few points must fingerprint to the same key twice, or fail
// with the same error twice.
func FuzzScenarioDocument(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		points, err := Expand(d)
		if err != nil {
			t.Fatalf("Parse accepted a document Expand rejects: %v", err)
		}
		if len(points) != d.numPoints() {
			t.Fatalf("Expand returned %d points, want numPoints %d", len(points), d.numPoints())
		}

		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted document does not encode: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("encoded document %s does not parse: %v", enc, err)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("JSON round trip changed the document: %s, then %s (%v)", enc, again, err)
		}

		for _, p := range points[:min(len(points), 4)] {
			fp, err := p.Fingerprint()
			again, err2 := p.Fingerprint()
			if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() || fp != again {
				t.Fatalf("point %d fingerprint is not repeatable: %q (%v), then %q (%v)", p.Index, fp, err, again, err2)
			}
		}
	})
}
