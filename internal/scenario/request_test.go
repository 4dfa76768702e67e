package scenario

import (
	"strings"
	"testing"
)

func TestBuildPreservesExplicitSeedZero(t *testing.T) {
	zero := uint64(0)
	_, opt, err := EstimateRequest{Trials: 10, Seed: &zero}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Seed != 0 {
		t.Errorf("explicit seed 0 became %d", opt.Seed)
	}
	_, opt, err = EstimateRequest{Trials: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Seed != 1 {
		t.Errorf("omitted seed = %d, want default 1", opt.Seed)
	}
}

func TestFleetEntryNegativeScrubsDisablesTierAudits(t *testing.T) {
	s, err := FleetEntry{Tier: "consumer", ScrubsPerYear: -1}.spec(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.ScrubsPerYear != 0 {
		t.Errorf("negative override left scrubs/year at %v, want 0 (never audited)", s.ScrubsPerYear)
	}
	// Zero keeps the tier's frequency.
	s, err = FleetEntry{Tier: "consumer"}.spec(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.ScrubsPerYear != 3 {
		t.Errorf("omitted scrubs/year = %v, want the tier default 3", s.ScrubsPerYear)
	}
}

func TestBuildRejectsDisabledRepairs(t *testing.T) {
	for _, req := range []EstimateRequest{
		{Trials: 10, RepairVisibleHours: -1},
		{Trials: 10, RepairLatentHours: -1},
	} {
		_, _, err := req.Build()
		if err == nil {
			t.Errorf("Build accepted a negative repair time: %+v", req)
			continue
		}
		if !strings.Contains(err.Error(), "repair") {
			t.Errorf("error %q does not name the repair field", err)
		}
	}
}

func TestBuildRejectsReplicaCountsOverLimit(t *testing.T) {
	for _, req := range []EstimateRequest{
		{Trials: 10, Replicas: MaxReplicas + 1},
		{Trials: 10, Replicas: 1 << 40},
		{Trials: 10, Fleet: make([]FleetEntry, MaxReplicas+1)},
	} {
		_, _, err := req.Build()
		if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("Build(%d replicas, %d fleet entries) = %v, want the replica limit", req.Replicas, len(req.Fleet), err)
		}
	}
	if _, _, err := (EstimateRequest{Trials: 10, Replicas: MaxReplicas}).Build(); err != nil {
		t.Errorf("Build rejected %d replicas, the limit itself: %v", MaxReplicas, err)
	}
}
