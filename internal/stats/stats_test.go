package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// normal draws from N(mean, stddev) by the Marsaglia polar method,
// discarding the spare deviate.
func normal(src *rng.Source, mean, stddev float64) float64 {
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		if q := u*u + v*v; q > 0 && q < 1 {
			return mean + stddev*(u*math.Sqrt(-2*math.Log(q)/q))
		}
	}
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 {
		t.Errorf("empty N = %d", r.N())
	}
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Variance()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Error("empty accumulator should report NaN moments")
	}
	if _, err := r.MeanCI(0.95); err == nil {
		t.Error("MeanCI on empty accumulator should fail")
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	r.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if want := 32.0 / 7; !almostEqual(r.Variance(), want, 1e-12) {
		t.Errorf("variance = %v, want %v", r.Variance(), want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	src := rng.New(1)
	f := func(split uint8) bool {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = normal(src, 3, 7)
		}
		k := int(split) % len(xs)
		var whole, a, b Running
		whole.AddAll(xs)
		a.AddAll(xs[:k])
		b.AddAll(xs[k:])
		a.Merge(b)
		return a.N() == whole.N() &&
			almostEqual(a.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(a.Variance(), whole.Variance(), 1e-9) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmptySides(t *testing.T) {
	var a, b Running
	b.Add(5)
	a.Merge(b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Errorf("merge into empty: N=%d mean=%v", a.N(), a.Mean())
	}
	var c Running
	a.Merge(c)
	if a.N() != 1 || a.Mean() != 5 {
		t.Errorf("merge of empty changed state: N=%d mean=%v", a.N(), a.Mean())
	}
}

func TestMeanCICoverage(t *testing.T) {
	// 95% CI should contain the true mean ~95% of the time.
	src := rng.New(42)
	const experiments = 2000
	const n = 30
	covered := 0
	for e := 0; e < experiments; e++ {
		var r Running
		for i := 0; i < n; i++ {
			r.Add(normal(src, 10, 2))
		}
		iv, err := r.MeanCI(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(10) {
			covered++
		}
	}
	rate := float64(covered) / experiments
	if rate < 0.93 || rate > 0.97 {
		t.Errorf("95%% CI empirical coverage = %v, want in [0.93, 0.97]", rate)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Point: 10, Lo: 8, Hi: 14, Level: 0.95}
	if iv.HalfWidth() != 3 {
		t.Errorf("half width = %v, want 3", iv.HalfWidth())
	}
	if iv.RelativeHalfWidth() != 0.3 {
		t.Errorf("relative half width = %v, want 0.3", iv.RelativeHalfWidth())
	}
	zero := Interval{Point: 0, Lo: -1, Hi: 1}
	if !math.IsInf(zero.RelativeHalfWidth(), 1) {
		t.Error("relative half width at zero point should be +Inf")
	}
	if !iv.Contains(8) || !iv.Contains(14) || iv.Contains(7.999) {
		t.Error("Contains boundary behaviour wrong")
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if !math.IsNaN(p.Estimate()) {
		t.Error("empty proportion should be NaN")
	}
	if _, err := p.CI(0.95); err == nil {
		t.Error("CI on empty proportion should fail")
	}
	for i := 0; i < 100; i++ {
		p.Add(i < 25)
	}
	if p.Estimate() != 0.25 {
		t.Errorf("estimate = %v, want 0.25", p.Estimate())
	}
	iv, err := p.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(0.25) {
		t.Errorf("Wilson CI %+v should contain the point estimate", iv)
	}
	if iv.Lo < 0 || iv.Hi > 1 {
		t.Errorf("Wilson CI %+v outside [0,1]", iv)
	}
}

func TestProportionWilsonNeverDegenerate(t *testing.T) {
	// Wald intervals collapse to width 0 at phat=0; Wilson must not.
	var p Proportion
	for i := 0; i < 50; i++ {
		p.Add(false)
	}
	iv, err := p.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Hi <= 0 {
		t.Errorf("Wilson upper bound %v at zero successes should be positive", iv.Hi)
	}
}

func TestZCritical(t *testing.T) {
	cases := []struct{ level, want float64 }{
		{0.90, 1.6449}, {0.95, 1.9600}, {0.99, 2.5758},
	}
	for _, c := range cases {
		if got := zCritical(c.level); math.Abs(got-c.want) > 2e-4 {
			t.Errorf("zCritical(%v) = %v, want %v", c.level, got, c.want)
		}
	}
	if zCritical(0) != 0 {
		t.Error("zCritical(0) should be 0")
	}
	if !math.IsInf(zCritical(1), 1) {
		t.Error("zCritical(1) should be +Inf")
	}
}

func TestTCriticalTableValues(t *testing.T) {
	cases := []struct {
		level float64
		df    int
		want  float64
	}{
		{0.95, 1, 12.706},
		{0.95, 10, 2.228},
		{0.95, 30, 2.042},
		{0.99, 5, 4.032},
		{0.90, 20, 1.725},
	}
	for _, c := range cases {
		if got := tCritical(c.level, c.df); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tCritical(%v, %d) = %v, want %v", c.level, c.df, got, c.want)
		}
	}
}

func TestTCriticalLargeDFApproachesZ(t *testing.T) {
	z := zCritical(0.95)
	got := tCritical(0.95, 10000)
	if math.Abs(got-z) > 0.01 {
		t.Errorf("tCritical(0.95, 10000) = %v, want ~%v", got, z)
	}
	// Monotone in df: more data, tighter critical value.
	prev := tCritical(0.95, 1)
	for df := 2; df <= 200; df++ {
		cur := tCritical(0.95, df)
		if cur > prev+1e-9 {
			t.Fatalf("tCritical not non-increasing at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
}

func TestTCriticalUncommonLevel(t *testing.T) {
	// 0.975 two-sided is not in the table; result must lie between the
	// 0.95 and 0.99 values.
	df := 10
	got := tCritical(0.975, df)
	if got <= tCritical(0.95, df) || got >= tCritical(0.99, df) {
		t.Errorf("tCritical(0.975, %d) = %v not between neighbours", df, got)
	}
}
