package stats

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// The buffer fit must be bit-identical to the slice fit on the same
// multiset — that equivalence is what lets the simulator's streaming
// reduce reproduce the historical batch aggregation exactly.
func TestObsBufferKaplanMeierMatchesSliceFit(t *testing.T) {
	src := rng.New(99)
	for scenario := 0; scenario < 20; scenario++ {
		var obs []Observation
		var buf ObsBuffer
		n := 3 + src.Intn(200)
		horizon := 50 + 100*src.Float64()
		for i := 0; i < n; i++ {
			tm := 100 * src.Float64()
			if tm < horizon && src.Bool(0.7) {
				obs = append(obs, Observation{Time: tm, Event: true})
				buf.AddEvent(tm)
			} else {
				obs = append(obs, Observation{Time: horizon, Event: false})
				buf.AddCensored(horizon)
			}
		}
		want, err := NewKaplanMeier(obs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := buf.KaplanMeier()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("scenario %d: buffer fit differs from slice fit:\n%+v\nvs\n%+v", scenario, want, got)
		}
	}
}

func TestObsBufferKaplanMeierTiedTimes(t *testing.T) {
	// Ties between events and censors at the same instant exercise the
	// same-group handling: censored observations at an event time stay in
	// that group's risk set.
	obs := []Observation{
		{Time: 5, Event: true}, {Time: 5, Event: false}, {Time: 5, Event: true},
		{Time: 2, Event: true}, {Time: 9, Event: false}, {Time: 9, Event: false},
		{Time: 7, Event: true},
	}
	var buf ObsBuffer
	for _, o := range obs {
		if o.Event {
			buf.AddEvent(o.Time)
		} else {
			buf.AddCensored(o.Time)
		}
	}
	want, err := NewKaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := buf.KaplanMeier()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("tied-time fit differs:\n%+v\nvs\n%+v", want, got)
	}
}

func TestObsBufferMerge(t *testing.T) {
	var whole, left, right ObsBuffer
	events := []float64{3, 1, 4, 1.5, 9, 2.6}
	for i, e := range events {
		whole.AddEvent(e)
		if i < 3 {
			left.AddEvent(e)
		} else {
			right.AddEvent(e)
		}
	}
	for i := 0; i < 5; i++ {
		whole.AddCensored(100)
		left.AddCensored(100)
	}
	for i := 0; i < 4; i++ {
		whole.AddCensored(50)
		right.AddCensored(50)
	}
	left.Merge(&right)
	if left.N() != whole.N() || left.EventsN() != whole.EventsN() || left.CensoredN() != whole.CensoredN() {
		t.Fatalf("merged counts (%d,%d,%d) != whole (%d,%d,%d)",
			left.N(), left.EventsN(), left.CensoredN(), whole.N(), whole.EventsN(), whole.CensoredN())
	}
	// Event order must be left's then right's — the contract the
	// simulator's ordered batch reduction relies on.
	if !reflect.DeepEqual(left.Events(), events) {
		t.Fatalf("merged event order %v != insertion order %v", left.Events(), events)
	}
	a, err := whole.KaplanMeier()
	if err != nil {
		t.Fatal(err)
	}
	b, err := left.KaplanMeier()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merged buffer fit differs from whole-buffer fit")
	}
}

func TestObsBufferValidation(t *testing.T) {
	var empty ObsBuffer
	if _, err := empty.KaplanMeier(); err == nil {
		t.Error("empty buffer fit accepted")
	}
	var bad ObsBuffer
	bad.AddEvent(-1)
	if _, err := bad.KaplanMeier(); err == nil {
		t.Error("negative event time accepted")
	}
	var nan ObsBuffer
	nan.AddCensored(math.NaN())
	if _, err := nan.KaplanMeier(); err == nil {
		t.Error("NaN censor time accepted")
	}
}

// A deferred curve reads the same as an eager one, whichever statistic
// is read first, ends up deeply equal to it once fitted, takes its
// buffer's observations, and rejects what the eager fit rejects.
func TestDeferredKaplanMeierMatchesFit(t *testing.T) {
	fill := func() *ObsBuffer {
		src := rng.New(7)
		var buf ObsBuffer
		for i := 0; i < 300; i++ {
			if tm := 100 * src.Float64(); src.Bool(0.6) {
				buf.AddEvent(tm)
			} else {
				buf.AddCensored(float64(50 + 25*src.Intn(3)))
			}
		}
		return &buf
	}
	want, err := fill().KaplanMeier()
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(km *KaplanMeier) float64{
		"Survival":       func(km *KaplanMeier) float64 { return km.Survival(40) },
		"RestrictedMean": func(km *KaplanMeier) float64 { return km.RestrictedMean(80) },
		"GreenwoodSE":    func(km *KaplanMeier) float64 { return km.GreenwoodSE(60) },
		"SurvivalCI":     func(km *KaplanMeier) float64 { return km.SurvivalCI(30, 0.9).Lo },
		"MedianSurvival": func(km *KaplanMeier) float64 { m, _ := km.MedianSurvival(); return m },
	}
	for name, read := range reads {
		got, err := fill().DeferredKaplanMeier()
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != want.N() || got.MaxTime() != want.MaxTime() {
			t.Fatalf("%s: unfitted N/MaxTime %d/%v, want %d/%v", name, got.N(), got.MaxTime(), want.N(), want.MaxTime())
		}
		if got.pending == nil {
			t.Fatalf("%s: N and MaxTime fitted the curve", name)
		}
		if g, w := read(got), read(want); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: deferred %v, eager %v", name, g, w)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fitted deferred curve differs from the eager fit", name)
		}
	}

	// The deferred curve takes the observations and leaves the buffer
	// empty and free to refill.
	buf := fill()
	got, err := buf.DeferredKaplanMeier()
	if err != nil {
		t.Fatal(err)
	}
	if buf.N() != 0 {
		t.Fatalf("buffer kept %d observations", buf.N())
	}
	buf.AddEvent(1)
	buf.AddCensored(50)
	if !reflect.DeepEqual(got.fitted(), want) {
		t.Error("deferred curve changed with its source buffer")
	}

	var bad ObsBuffer
	bad.AddEvent(1)
	bad.AddCensored(math.NaN())
	if _, err := bad.DeferredKaplanMeier(); err == nil {
		t.Error("deferred fit accepted a NaN time")
	}
	if bad.N() != 2 {
		t.Error("a failed deferred fit emptied its buffer")
	}
	var empty ObsBuffer
	if _, err := empty.DeferredKaplanMeier(); err == nil {
		t.Error("deferred fit accepted an empty buffer")
	}
}

func TestObsBufferReset(t *testing.T) {
	var b ObsBuffer
	b.AddEvent(1)
	b.AddCensored(2)
	b.Reset()
	if b.N() != 0 || b.EventsN() != 0 || b.CensoredN() != 0 {
		t.Fatalf("reset buffer not empty: %+v", b)
	}
}

func TestProportionMerge(t *testing.T) {
	var whole, a, b Proportion
	src := rng.New(5)
	for i := 0; i < 1000; i++ {
		hit := src.Bool(0.3)
		whole.Add(hit)
		if i%2 == 0 {
			a.Add(hit)
		} else {
			b.Add(hit)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() || a.Hits() != whole.Hits() {
		t.Fatalf("merged (%d,%d) != whole (%d,%d)", a.N(), a.Hits(), whole.N(), whole.Hits())
	}
	ivA, err := a.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	ivW, err := whole.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ivA != ivW {
		t.Fatalf("merged interval %+v != whole interval %+v", ivA, ivW)
	}
}
