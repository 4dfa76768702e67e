package rng

import (
	"math"
	"slices"
	"testing"
)

// buildZiggurat builds the exponential ziggurat's tables by the
// published construction (Marsaglia and Tsang 2000, and the standard
// library's math/rand/exp.go, there with 32-bit positions): from
// x_255 = r, each x_{i−1} = −ln(v/x_i + e^(−x_i)).
func buildZiggurat() (k [256]uint64, w, f [256]float64) {
	const m = 1 << 53
	x := zigR
	q := zigV / math.Exp(-x)
	k[0] = uint64(x / q * m)
	w[0] = q / m
	w[255] = x / m
	f[0] = 1
	f[255] = math.Exp(-x)
	for i := 254; i >= 1; i-- {
		prev := x
		x = -math.Log(zigV/x + math.Exp(-x))
		k[i+1] = uint64(x / prev * m)
		f[i] = math.Exp(-x)
		w[i] = x / m
	}
	return k, w, f
}

// TestZigguratTables rebuilds the tables and compares them with the
// committed literals: to a few units in the last place, so that a
// platform whose math.Exp or math.Log rounds differently still
// recognizes them. The top layer must close: its area x_1·(1 − e^(−x_1))
// is v.
func TestZigguratTables(t *testing.T) {
	k, w, f := buildZiggurat()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-13*math.Abs(b) }
	for i := range k {
		if d := int64(k[i] - zigK[i]); d < -4 || d > 4 {
			t.Errorf("zigK[%d] = %#x, the construction gives %#x", i, zigK[i], k[i])
		}
		if !near(zigW[i], w[i]) {
			t.Errorf("zigW[%d] = %x, the construction gives %x", i, zigW[i], w[i])
		}
		if !near(zigF[i], f[i]) {
			t.Errorf("zigF[%d] = %x, the construction gives %x", i, zigF[i], f[i])
		}
	}
	x1 := zigW[1] * (1 << 53)
	if area := x1 * -math.Expm1(-x1); math.Abs(area-zigV) > 1e-9*zigV {
		t.Errorf("top layer area %v, want v = %v", area, zigV)
	}
}

// ksExp returns the one-sample Kolmogorov–Smirnov statistic of x
// against Exp(1). It sorts x.
func ksExp(x []float64) float64 {
	slices.Sort(x)
	n := float64(len(x))
	d := 0.0
	for i, v := range x {
		c := -math.Expm1(-v)
		d = max(d, float64(i+1)/n-c, c-float64(i)/n)
	}
	return d
}

// ksCritical is the asymptotic Kolmogorov–Smirnov critical coefficient
// √(−ln(α/2)/2) at α = 1e-4: a correct sampler fails one comparison
// against it with probability about 1e-4.
const ksCritical = 2.2255

// TestExpKS draws 200,000 values at each of three fixed seeds; each
// sample must pass the Kolmogorov–Smirnov rule against Exp(1).
func TestExpKS(t *testing.T) {
	const n = 200000
	x := make([]float64, n)
	for _, seed := range []uint64{1, 2, 3} {
		src := New(seed)
		for i := range x {
			x[i] = src.Exp()
		}
		if d := ksExp(x); d*math.Sqrt(n) > ksCritical {
			t.Errorf("seed %d: KS statistic %v exceeds %v", seed, d, ksCritical/math.Sqrt(n))
		}
	}
}

// TestExpPathShares classifies the first word of each of 4,000,000
// draws, read from a copy of the source, by the path it sends the draw
// down, and checks each path's share. A draw enters the tail when its
// first word lands in the base layer past r: probability
// (1 − r/x_0)/256 = e^(−r)/(256·v). It enters a wedge when the word
// lands in layer i ≥ 1 past x_{i−1}: probability Σ(1 − x_{i−1}/x_i)/256,
// from the rebuilt tables. Every tail draw must exceed r, and the
// values past r, less r, must pass the Kolmogorov–Smirnov rule against
// Exp(1); their share among all draws must be e^(−r). Each share is
// compared within 4 binomial standard errors, a false failure rate of
// about 6e-5 per comparison.
func TestExpPathShares(t *testing.T) {
	const n = 4000000
	_, w, _ := buildZiggurat()
	pTail := math.Exp(-zigR) / (256 * zigV)
	pWedge := 0.0
	for i := 2; i < 256; i++ {
		pWedge += 1 - w[i-1]/w[i]
	}
	pWedge = (pWedge + 1) / 256 // layer 1: x_0 = 0, always a wedge
	src := New(11)
	var tails, wedges, past int
	var beyond []float64
	for i := 0; i < n; i++ {
		first := *src
		u := first.Uint64()
		layer, j := u&0xff, u>>11
		x := src.Exp()
		switch {
		case j < zigK[layer]:
		case layer == 0:
			tails++
			if !(x > zigR) {
				t.Fatalf("a tail draw returned %v, not past r = %v", x, zigR)
			}
		default:
			wedges++
		}
		if x > zigR {
			past++
			beyond = append(beyond, x-zigR)
		}
	}
	within := func(name string, count int, p float64) {
		t.Helper()
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		if math.Abs(float64(count)-mean) > 4*sd {
			t.Errorf("%s: %d of %d draws, want %.1f ± %.1f", name, count, n, mean, 4*sd)
		}
		t.Logf("%s: %d of %d draws, expected %.1f", name, count, n, mean)
	}
	within("first word in the tail", tails, pTail)
	within("first word in a wedge", wedges, pWedge)
	within("draws past r", past, math.Exp(-zigR))
	if d := ksExp(beyond); d*math.Sqrt(float64(len(beyond))) > ksCritical {
		t.Errorf("draws past r, less r: KS statistic %v over %d exceeds %v", d, len(beyond), ksCritical/math.Sqrt(float64(len(beyond))))
	}
}

// TestExpAllocsZero: a draw allocates nothing.
func TestExpAllocsZero(t *testing.T) {
	src := New(5)
	if a := testing.AllocsPerRun(1000, func() { src.Exp() }); a != 0 {
		t.Errorf("Exp allocates %v objects per draw, want 0", a)
	}
}

var sink float64

// BenchmarkExp measures one ziggurat draw; BenchmarkLogUniform the
// −ln u draw it replaced.
func BenchmarkExp(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		sink += src.Exp()
	}
}

func BenchmarkLogUniform(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		sink += -math.Log(src.Float64Open())
	}
}
