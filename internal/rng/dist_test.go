package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMoments draws n values and returns their mean and variance.
func sampleMoments(t *testing.T, s Sampler, src *Source, n int) (mean, variance float64) {
	t.Helper()
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Sample(src)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%T produced non-finite sample %v", s, v)
		}
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestExponentialMoments(t *testing.T) {
	e, err := NewExponential(250)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := sampleMoments(t, e, New(1), 400000)
	if rel := math.Abs(mean-250) / 250; rel > 0.01 {
		t.Errorf("exponential sample mean %v, want 250 within 1%%", mean)
	}
	if rel := math.Abs(variance-250*250) / (250 * 250); rel > 0.03 {
		t.Errorf("exponential sample variance %v, want %v within 3%%", variance, 250.0*250)
	}
}

func TestExponentialMemoryless(t *testing.T) {
	// P(X > a+b | X > a) must equal P(X > b): compare survivor fractions.
	e, _ := NewExponential(1)
	src := New(2)
	const n = 300000
	var beyondA, beyondAB, beyondB int
	const a, b = 0.7, 0.9
	for i := 0; i < n; i++ {
		x := e.Sample(src)
		if x > a {
			beyondA++
			if x > a+b {
				beyondAB++
			}
		}
		if x > b {
			beyondB++
		}
	}
	cond := float64(beyondAB) / float64(beyondA)
	uncond := float64(beyondB) / float64(n)
	if math.Abs(cond-uncond) > 0.01 {
		t.Errorf("memorylessness violated: P(X>a+b|X>a)=%v vs P(X>b)=%v", cond, uncond)
	}
}

func TestExponentialInvalid(t *testing.T) {
	for _, mean := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(mean); err == nil {
			t.Errorf("NewExponential(%v) accepted an invalid mean", mean)
		}
	}
}

func TestLogNormalFromMeanCV(t *testing.T) {
	l, err := LogNormalFromMeanCV(48, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Mean()-48)/48 > 1e-12 {
		t.Fatalf("analytic mean = %v, want 48", l.Mean())
	}
	mean, variance := sampleMoments(t, l, New(7), 500000)
	if math.Abs(mean-48)/48 > 0.02 {
		t.Errorf("lognormal sample mean %v, want 48 within 2%%", mean)
	}
	wantSD := 48 * 1.5
	if sd := math.Sqrt(variance); math.Abs(sd-wantSD)/wantSD > 0.1 {
		t.Errorf("lognormal sample stddev %v, want %v within 10%%", sd, wantSD)
	}
}

func TestUniformMoments(t *testing.T) {
	u, err := NewUniform(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	src := New(17)
	for i := 0; i < 10000; i++ {
		v := u.Sample(src)
		if v < 10 || v >= 30 {
			t.Fatalf("Uniform(10,30) sample %v out of range", v)
		}
	}
	if u.Mean() != 20 {
		t.Errorf("Uniform(10,30) mean = %v, want 20", u.Mean())
	}
}

func TestDeterministicAndCombinators(t *testing.T) {
	src := New(19)
	d := Deterministic{Value: 42}
	if v := d.Sample(src); v != 42 {
		t.Errorf("Deterministic sample = %v, want 42", v)
	}
	sh := Shifted{Offset: 8, Base: d}
	if v := sh.Sample(src); v != 50 {
		t.Errorf("Shifted sample = %v, want 50", v)
	}
	if sh.Mean() != 50 {
		t.Errorf("Shifted mean = %v, want 50", sh.Mean())
	}
	sc := Scaled{Factor: 0.5, Base: sh}
	if v := sc.Sample(src); v != 25 {
		t.Errorf("Scaled sample = %v, want 25", v)
	}
	if sc.Mean() != 25 {
		t.Errorf("Scaled mean = %v, want 25", sc.Mean())
	}
}

func TestMixture(t *testing.T) {
	m, err := NewMixture(
		[]float64{3, 1},
		[]Sampler{Deterministic{Value: 0}, Deterministic{Value: 100}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := 25.0; math.Abs(m.Mean()-want) > 1e-9 {
		t.Fatalf("mixture mean = %v, want %v", m.Mean(), want)
	}
	src := New(23)
	const n = 100000
	hundreds := 0
	for i := 0; i < n; i++ {
		if m.Sample(src) == 100 {
			hundreds++
		}
	}
	if p := float64(hundreds) / n; math.Abs(p-0.25) > 0.01 {
		t.Errorf("mixture picked heavy component with freq %v, want 0.25 +- 0.01", p)
	}
}

func TestMixtureInvalid(t *testing.T) {
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture([]float64{1}, []Sampler{Deterministic{}, Deterministic{}}); err == nil {
		t.Error("mismatched weights/components accepted")
	}
	if _, err := NewMixture([]float64{-1, 2}, []Sampler{Deterministic{}, Deterministic{}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewMixture([]float64{0, 0}, []Sampler{Deterministic{}, Deterministic{}}); err == nil {
		t.Error("all-zero weights accepted")
	}
}

func TestEmpirical(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	e, err := NewEmpirical(obs)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 2.5 {
		t.Errorf("empirical mean = %v, want 2.5", e.Mean())
	}
	obs[0] = 999 // must not alias caller's slice
	src := New(29)
	for i := 0; i < 1000; i++ {
		v := e.Sample(src)
		if v < 1 || v > 4 {
			t.Fatalf("empirical sample %v outside observed set", v)
		}
	}
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empty empirical accepted")
	}
}

func TestSamplersNonNegativeProperty(t *testing.T) {
	// Every lifetime/duration distribution used by the simulator must
	// produce non-negative values for any seed.
	src := New(31)
	e, _ := NewExponential(5)
	l, _ := NewLogNormal(0, 1)
	samplers := []Sampler{e, l}
	f := func(seed uint64) bool {
		s := src.Derive(seed)
		for _, d := range samplers {
			if d.Sample(s) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
