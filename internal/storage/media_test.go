package storage

import (
	"math"
	"testing"
)

func TestMediaKindString(t *testing.T) {
	if Online.String() != "online" || Offline.String() != "offline" {
		t.Error("media kind strings wrong")
	}
	if MediaKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestDiskMedia(t *testing.T) {
	d := Cheetah146()
	m := DiskMedia(d, 1e-6)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Kind != Online {
		t.Error("disk media should be online")
	}
	if m.AuditHours != d.FullScanHours() {
		t.Errorf("audit hours = %v, want full scan %v", m.AuditHours, d.FullScanHours())
	}
	if m.HandlingFaultProb != 0 {
		t.Error("online media should have no handling faults")
	}
	if m.RepairHours != d.FullScanHours() {
		t.Errorf("repair hours = %v, want %v", m.RepairHours, d.FullScanHours())
	}
}

func TestTapeShelf(t *testing.T) {
	m := TapeShelf(400, 80, 24, 0.001, 0.0005, 35)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Kind != Offline {
		t.Error("tape should be offline")
	}
	readHours := 400e9 / 80e6 / 3600
	if math.Abs(m.AuditHours-(24+readHours)) > 1e-9 {
		t.Errorf("audit hours = %v, want retrieve 24 + read %v", m.AuditHours, readHours)
	}
	if m.AuditCost != 35 {
		t.Errorf("audit cost = %v, want 35", m.AuditCost)
	}
}

// §6.2's comparison: auditing offline media is both slower and more
// dangerous than auditing online replicas.
func TestTapeAuditWorseThanDisk(t *testing.T) {
	disk := DiskMedia(Barracuda200(), 1e-6)
	tape := TapeShelf(400, 80, 24, 0.001, 0.0005, 35)
	if tape.AuditHours <= disk.AuditHours {
		t.Error("tape audit should take longer than disk audit")
	}
	if tape.AuditCost <= disk.AuditCost {
		t.Error("tape audit should cost more than disk audit")
	}
	if tape.AuditFaultProb() <= disk.AuditFaultProb() {
		t.Error("tape audit should carry more fault risk than disk audit")
	}
}

func TestAuditFaultProbCombination(t *testing.T) {
	m := Media{Name: "x", Kind: Offline, HandlingFaultProb: 0.1, ReadWearFaultProb: 0.2}
	want := 1 - 0.9*0.8
	if got := m.AuditFaultProb(); math.Abs(got-want) > 1e-12 {
		t.Errorf("combined audit fault probability = %v, want %v", got, want)
	}
	// Zero channels combine to zero.
	clean := Media{Name: "y", Kind: Online}
	if clean.AuditFaultProb() != 0 {
		t.Error("fault-free media should have zero audit risk")
	}
}

func TestMediaValidateRejections(t *testing.T) {
	good := TapeShelf(400, 80, 24, 0.001, 0.0005, 35)
	cases := []struct {
		name   string
		mutate func(*Media)
	}{
		{"bad kind", func(m *Media) { m.Kind = MediaKind(5) }},
		{"negative audit hours", func(m *Media) { m.AuditHours = -1 }},
		{"negative cost", func(m *Media) { m.AuditCost = -0.01 }},
		{"handling prob above 1", func(m *Media) { m.HandlingFaultProb = 1.1 }},
		{"NaN wear", func(m *Media) { m.ReadWearFaultProb = math.NaN() }},
		{"negative repair", func(m *Media) { m.RepairHours = -2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := good
			c.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

// TestValidateMessagesDeterministic: a description with two bad fields
// reports the first-declared one, identically on every call.
func TestValidateMessagesDeterministic(t *testing.T) {
	drive := Cheetah146()
	drive.SustainedMBps = -1
	drive.PricePerGB = math.NaN()
	media := DiskMedia(Cheetah146(), 0)
	media.AuditCost = -1
	media.RepairHours = -2
	for _, c := range []struct {
		name     string
		validate func() error
		want     string
	}{
		{"drive", drive.Validate, `storage: invalid parameter: drive "Seagate Cheetah 15K.4" sustained rate = -1, must be positive`},
		{"media", media.Validate, `storage: invalid parameter: media "Seagate Cheetah 15K.4" audit cost = -1, must be non-negative`},
	} {
		for i := 0; i < 100; i++ {
			if err := c.validate(); err == nil || err.Error() != c.want {
				t.Fatalf("%s call %d: err = %v, want %q", c.name, i, err, c.want)
			}
		}
	}
}
