package threat

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/replica"
)

func TestAllThreatsDescribed(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("catalogue has %d threats, the paper's §3 lists 10", len(all))
	}
	seen := map[string]bool{}
	for _, th := range all {
		info := th.Info()
		if info.Name == "" || info.Example == "" || info.Mitigation == "" {
			t.Errorf("threat %d incompletely described: %+v", th, info)
		}
		if seen[info.Name] {
			t.Errorf("duplicate threat name %q", info.Name)
		}
		seen[info.Name] = true
		if th.String() != info.Name {
			t.Errorf("String() = %q, want %q", th.String(), info.Name)
		}
	}
}

func TestInfoPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Info on invalid threat did not panic")
		}
	}()
	Threat(99).Info()
}

// §4.1's observation: most of the threat catalogue manifests as latent
// faults — that is why detection time dominates the model.
func TestMajorityOfThreatsAreLatent(t *testing.T) {
	latent := 0
	for _, th := range All() {
		if th.IsLatent() {
			latent++
		}
	}
	if latent < 6 {
		t.Errorf("%d/10 threats latent; the paper's §4.1 catalogue implies a solid majority", latent)
	}
	// Spot checks against the text.
	if !MediaFault.IsLatent() {
		t.Error("media faults (bit rot) are the canonical latent fault")
	}
	if LargeScaleDisaster.IsLatent() {
		t.Error("large-scale disasters are immediately visible")
	}
}

func TestCorrelatedThreats(t *testing.T) {
	geo := CorrelatedThreats(replica.Geography)
	if len(geo) != 1 || geo[0] != LargeScaleDisaster {
		t.Errorf("geography-correlated threats = %v, want [large-scale disaster]", geo)
	}
	admin := CorrelatedThreats(replica.Administration)
	found := map[Threat]bool{}
	for _, th := range admin {
		found[th] = true
	}
	if !found[HumanError] || !found[Attack] {
		t.Errorf("administration-correlated threats = %v, want human error and attack", admin)
	}
}

func TestScenarioShocksColocatedVsIndependent(t *testing.T) {
	means := map[Threat]float64{
		LargeScaleDisaster: 8760 * 100,
		HumanError:         8760 * 3,
	}
	colo, err := ScenarioShocks(replica.Colocated(3), means)
	if err != nil {
		t.Fatal(err)
	}
	// Colocated: one shock per dimension (geography, administration),
	// each hitting all 3 replicas.
	if len(colo) != 2 {
		t.Fatalf("colocated shocks = %d, want 2", len(colo))
	}
	for _, s := range colo {
		if len(s.Targets) != 3 {
			t.Errorf("colocated shock %q hits %d replicas, want 3", s.Name, len(s.Targets))
		}
	}
	indep, err := ScenarioShocks(replica.FullyIndependent(3), means)
	if err != nil {
		t.Fatal(err)
	}
	if len(indep) != 6 {
		t.Fatalf("independent shocks = %d, want 6 (2 dims x 3 singletons)", len(indep))
	}
	// Marginal rates must match across topologies.
	for r := 0; r < 3; r++ {
		a := faults.MarginalRate(colo, r)
		b := faults.MarginalRate(indep, r)
		if a != b {
			t.Errorf("replica %d marginal rate differs: %v vs %v", r, a, b)
		}
	}
}

func TestScenarioShocksCombinesThreatsOnOneDimension(t *testing.T) {
	// Human error and attack both correlate over administration; their
	// rates must combine, and the latent class must win.
	means := map[Threat]float64{
		HumanError: 1000,
		Attack:     1000,
	}
	shocks, err := ScenarioShocks(replica.Colocated(2), means)
	if err != nil {
		t.Fatal(err)
	}
	var adminShock *faults.Shock
	for i := range shocks {
		if len(shocks[i].Targets) == 2 && shocks[i].Kind == faults.Latent && shocks[i].Mean == 500 {
			adminShock = &shocks[i]
		}
	}
	if adminShock == nil {
		t.Errorf("no combined admin shock with mean 500 found in %+v", shocks)
	}
}

// TestScenarioShocksFoldOrder: three threats on one dimension fold in
// ascending Threat order on every call. The competing-exponential fold
// 1/(1/m+1/x) is not associative in floating point, so a map-order fold
// gives one input two different shock means across calls.
func TestScenarioShocksFoldOrder(t *testing.T) {
	means := map[Threat]float64{LossOfContext: 20000, OrganizationalFault: 30000, EconomicFault: 70000}
	want := 1 / (1/(1/(1/means[LossOfContext]+1/means[OrganizationalFault])) + 1/means[EconomicFault])
	for i := 0; i < 64; i++ {
		shocks, err := ScenarioShocks(replica.Colocated(2), means)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range shocks {
			if strings.HasPrefix(s.Name, "organization") {
				found = true
				if s.Mean != want {
					t.Fatalf("call %d: organization shock mean = %v, want the catalogue-order fold %v", i, s.Mean, want)
				}
			}
		}
		if !found {
			t.Fatalf("no organization shock in %+v", shocks)
		}
	}
}
