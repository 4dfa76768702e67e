package rng

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sources with different seeds produced %d identical 64-bit draws in 1000", same)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(7)
	for i := 0; i < 100000; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v, want [0,1)", v)
		}
	}
}

func TestFloat64UniformMoments(t *testing.T) {
	src := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := src.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want 0.5 +- 0.005", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want 1/12 +- 0.005", variance)
	}
}

func TestDeriveIndependentOfParentDraws(t *testing.T) {
	a := New(99)
	b := New(99)
	// Burn draws on a only; derived children must still match.
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	ca := a.Derive(5)
	cb := b.Derive(5)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("Derive depends on parent draw position (diverged at draw %d)", i)
		}
	}
}

func TestDeriveDistinctLabels(t *testing.T) {
	parent := New(3)
	a := parent.Derive(1)
	b := parent.Derive(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams for distinct labels collided %d/1000 times", same)
	}
}

func TestDeriveStringMatchesStableHash(t *testing.T) {
	parent := New(8)
	a := parent.DeriveString("faults/visible")
	b := parent.DeriveString("faults/visible")
	if a.Uint64() != b.Uint64() {
		t.Error("DeriveString is not deterministic for equal labels")
	}
	c := parent.DeriveString("faults/latent")
	d := parent.DeriveString("faults/visible")
	d.Uint64() // advance past the value compared above
	if c.Uint64() == d.Uint64() {
		t.Error("DeriveString streams for different labels should differ")
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(5)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := src.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for digit, c := range counts {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n*0.1*0.9) {
			t.Errorf("Intn(10) digit %d count %d deviates more than 5 sigma from %d", digit, c, n/10)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	src := New(13)
	for i := 0; i < 100; i++ {
		if src.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !src.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	src := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v, want 0.3 +- 0.01", p)
	}
}

func TestNormalMoments(t *testing.T) {
	src := New(29)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := 10 + 3*src.normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want 10 +- 0.05", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Errorf("normal stddev = %v, want 3 +- 0.05", sd)
	}
}

func TestZeroStateGuard(t *testing.T) {
	var s Source
	s.reseed(0)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		t.Fatal("reseed(0) left an all-zero state")
	}
	// The stream must still be usable.
	if a, b := s.Uint64(), s.Uint64(); a == 0 && b == 0 {
		t.Error("stream from seed 0 is degenerate")
	}
}
