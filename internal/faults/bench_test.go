package faults

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkSampleNextAt draws successive fault times at the paper's
// 1.4e6 h visible-fault mean, restarting the clock at 50 years, with no
// profile, a constant one, a piecewise bathtub and Weibull wear-out
// normalized over the 50 years: one op is one draw. Shape 2.5 raises to
// an exponent with no special case, so it shows what general math.Pow
// costs on the kernel path.
func BenchmarkSampleNextAt(b *testing.B) {
	const mean, horizon = 1.4e6, 438300
	weibull := func(shape float64) Hazard {
		h, err := Normalize(WeibullHazard{Shape: shape, Scale: 200000}, horizon)
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	for _, c := range []struct {
		name string
		h    Hazard
	}{
		{"nil", nil},
		{"constant", ConstantHazard{Factor: 1}},
		{"bathtub", PiecewiseHazard{Bounds: []float64{8766, 262980}, Factors: []float64{3, 1, 4}}},
		{"weibull-1.5", weibull(1.5)},
		{"weibull-2", weibull(2)},
		{"weibull-2.5", weibull(2.5)},
		{"weibull-3", weibull(3)},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewProcess(mean)
			if err != nil {
				b.Fatal(err)
			}
			p.SetProfile(c.h)
			src := rng.New(1)
			now := 0.0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if now += p.SampleNextAt(now, src); now > horizon {
					now = 0
				}
			}
		})
	}
}
