package aging_test

import (
	"fmt"

	"repro/internal/aging"
	"repro/internal/faults"
)

// ExampleBathtub builds the paper's §6.5 lifetime curve — one year of
// infant mortality at 4× the nominal fault rate, five years of useful
// life, then wear-out at 8× — and shows the two things a profile
// carries: the multiplier of each segment of a replica's life, and the
// mean multiplier over a ten-year horizon, read back from the factor
// that normalizes the profile so that horizon sees the same expected
// fault count as the constant-rate process (the equal-mean-rate
// comparison experiment E17 runs).
func ExampleBathtub() {
	const year = 8760.0
	h, err := aging.Bathtub(year, 4, 5*year, 8)
	if err != nil {
		panic(err)
	}
	// Segments: [0, 1 y), [1 y, 5 y) and [5 y, ∞).
	fmt.Printf("multiplier at 6 months: %.0f\n", h.Factors[0])
	fmt.Printf("multiplier at 3 years:  %.0f\n", h.Factors[1])
	fmt.Printf("multiplier at 8 years:  %.0f\n", h.Factors[2])

	norm, err := faults.Normalize(h, 10*year)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean multiplier over 10 years: %.2f\n", 1/norm.Factor)
	// Output:
	// multiplier at 6 months: 4
	// multiplier at 3 years:  1
	// multiplier at 8 years:  8
	// mean multiplier over 10 years: 4.80
}
