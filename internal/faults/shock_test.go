package faults

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func validShock() Shock {
	return Shock{
		Name:    "power/rack-1",
		Mean:    1000,
		Targets: []int{0, 1, 2},
		Kind:    Visible,
		HitProb: 1,
	}
}

func TestShockValidate(t *testing.T) {
	if err := validShock().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Shock)
	}{
		{"zero mean", func(s *Shock) { s.Mean = 0 }},
		{"nan mean", func(s *Shock) { s.Mean = math.NaN() }},
		{"no targets", func(s *Shock) { s.Targets = nil }},
		{"negative target", func(s *Shock) { s.Targets = []int{0, -1} }},
		{"duplicate target", func(s *Shock) { s.Targets = []int{1, 1} }},
		{"bad hit prob", func(s *Shock) { s.HitProb = 1.5 }},
		{"bad kind", func(s *Shock) { s.Kind = Type(7) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validShock()
			c.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

func TestShockStrikeAllTargets(t *testing.T) {
	s := validShock()
	src := rng.New(1)
	hit := s.StrikeInto(src, nil)
	if len(hit) != 3 {
		t.Fatalf("HitProb=1 strike hit %v, want all 3 targets", hit)
	}
	// Must be a copy, not the internal slice.
	hit[0] = 99
	if s.Targets[0] == 99 {
		t.Error("StrikeInto aliased the Targets slice")
	}
}

func TestShockStrikePartial(t *testing.T) {
	s := validShock()
	s.HitProb = 0.3
	src := rng.New(2)
	const n = 100000
	total := 0
	var buf []int
	for i := 0; i < n; i++ {
		buf = s.StrikeInto(src, buf)
		total += len(buf)
	}
	got := float64(total) / n
	want := 0.3 * 3
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("mean targets hit = %v, want %v within 2%%", got, want)
	}
}

func TestShockSampleNextMean(t *testing.T) {
	s := validShock()
	src := rng.New(3)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.SampleNext(src)
	}
	if got := sum / n; math.Abs(got-1000)/1000 > 0.02 {
		t.Errorf("inter-shock mean %v, want 1000 within 2%%", got)
	}
}

func TestPerReplicaRate(t *testing.T) {
	s := validShock()
	s.HitProb = 0.5
	if got, want := s.PerReplicaRate(), 0.5/1000; math.Abs(got-want) > 1e-15 {
		t.Errorf("per-replica rate = %v, want %v", got, want)
	}
}

func TestMarginalRate(t *testing.T) {
	shocks := []Shock{
		{Name: "a", Mean: 100, Targets: []int{0, 1}, Kind: Visible, HitProb: 1},
		{Name: "b", Mean: 200, Targets: []int{1, 2}, Kind: Latent, HitProb: 0.5},
		{Name: "c", Mean: 50, Targets: []int{2}, Kind: Visible, HitProb: 1},
	}
	cases := []struct {
		replica int
		want    float64
	}{
		{0, 1.0 / 100},
		{1, 1.0/100 + 0.5/200},
		{2, 0.5/200 + 1.0/50},
		{3, 0},
	}
	for _, c := range cases {
		if got := MarginalRate(shocks, c.replica); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("MarginalRate(replica %d) = %v, want %v", c.replica, got, c.want)
		}
	}
}

// The correlation-vs-independence experiment requires that a colocated
// topology (one shock hitting all replicas) and a distributed topology
// (one shock per replica) expose each replica to the same marginal rate —
// only the joint behaviour differs.
func TestEqualMarginalRatesAcrossTopologies(t *testing.T) {
	colocated := []Shock{{Name: "dc", Mean: 100, Targets: []int{0, 1, 2}, Kind: Visible, HitProb: 1}}
	distributed := []Shock{
		{Name: "dc0", Mean: 100, Targets: []int{0}, Kind: Visible, HitProb: 1},
		{Name: "dc1", Mean: 100, Targets: []int{1}, Kind: Visible, HitProb: 1},
		{Name: "dc2", Mean: 100, Targets: []int{2}, Kind: Visible, HitProb: 1},
	}
	for r := 0; r < 3; r++ {
		a := MarginalRate(colocated, r)
		b := MarginalRate(distributed, r)
		if math.Abs(a-b) > 1e-15 {
			t.Errorf("replica %d marginal rates differ: colocated %v vs distributed %v", r, a, b)
		}
	}
}
