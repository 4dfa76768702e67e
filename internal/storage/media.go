package storage

import (
	"fmt"
	"math"
)

// MediaKind distinguishes the §6.2 audit-economics classes.
type MediaKind int

const (
	// Online media (disk) can be audited in place at media rate, with no
	// human handling.
	Online MediaKind = iota
	// Offline media (tape, optical) must be retrieved, mounted, read,
	// dismounted, and returned; every step costs money and risks
	// handling faults, and the read itself degrades the medium.
	Offline
)

// String returns the media-kind name.
func (k MediaKind) String() string {
	switch k {
	case Online:
		return "online"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("storage.MediaKind(%d)", int(k))
	}
}

// Media describes one replica's storage medium for audit and repair
// economics (§6.2–§6.4).
type Media struct {
	// Name identifies the medium ("consumer disk", "LTO tape shelf").
	Name string
	// Kind is Online or Offline.
	Kind MediaKind
	// AuditHours is the wall-clock time to audit one replica once:
	// a full scan for disk; retrieve+mount+read+return for tape.
	AuditHours float64
	// AuditCost is the dollar cost of one audit pass (staff time,
	// transport, reader wear). Near zero for online media.
	AuditCost float64
	// HandlingFaultProb is the probability that one audit or repair
	// handling cycle itself inflicts a fault on the medium (§6.2: "the
	// error-prone human handling of media", AMIA tape guidance). Zero
	// for online media under normal duty.
	HandlingFaultProb float64
	// ReadWearFaultProb is the probability that the read pass degrades
	// the medium enough to plant a latent fault ("the media degradation
	// caused by the reading process").
	ReadWearFaultProb float64
	// RepairHours is the time to restore a replica on this medium from
	// a good copy once the fault is known.
	RepairHours float64
}

// Validate reports whether the media description is well-formed.
func (m Media) Validate() error {
	if m.Kind != Online && m.Kind != Offline {
		return fmt.Errorf("%w: media %q kind %d unknown", ErrInvalid, m.Name, int(m.Kind))
	}
	// Fields are checked in declaration order (a slice, not a map), so a
	// description with several bad fields always reports the same one.
	for _, f := range []struct {
		name string
		v    float64
		prob bool // a probability: bounded by 1 as well as by 0
	}{
		{"audit hours", m.AuditHours, false},
		{"audit cost", m.AuditCost, false},
		{"handling fault probability", m.HandlingFaultProb, true},
		{"read wear fault probability", m.ReadWearFaultProb, true},
		{"repair hours", m.RepairHours, false},
	} {
		switch {
		case f.prob && (math.IsNaN(f.v) || f.v < 0 || f.v > 1):
			return fmt.Errorf("%w: media %q %s = %v, must be in [0,1]", ErrInvalid, m.Name, f.name, f.v)
		case math.IsNaN(f.v) || f.v < 0:
			return fmt.Errorf("%w: media %q %s = %v, must be non-negative", ErrInvalid, m.Name, f.name, f.v)
		}
	}
	return nil
}

// AuditFaultProb returns the probability that a single audit pass itself
// inflicts a fault — the §6.6 side-channel that makes over-frequent
// auditing counterproductive, dominated by handling for offline media and
// by read wear for both.
func (m Media) AuditFaultProb() float64 {
	// Independent channels: 1 - (1-h)(1-w).
	return 1 - (1-m.HandlingFaultProb)*(1-m.ReadWearFaultProb)
}

// DiskMedia returns an online medium built from a drive spec: audits run
// at the sustained media rate, repairs are a full-drive copy, and no
// handling is involved. readWear is the per-pass wear fault probability
// (0 for a duty cycle within spec).
func DiskMedia(d DriveSpec, readWear float64) Media {
	return Media{
		Name:              d.Name,
		Kind:              Online,
		AuditHours:        d.FullScanHours(),
		AuditCost:         0.01 * d.Price() / 1000, // negligible: power + amortized wear
		HandlingFaultProb: 0,
		ReadWearFaultProb: readWear,
		RepairHours:       d.FullScanHours(),
	}
}

// TapeShelf returns an offline tape medium with §6.2's cost structure:
// hours of retrieval and mounting around the read, a per-cycle handling
// fault probability (lost, dropped, misfiled, reader-damaged tapes), and
// read-pass wear.
func TapeShelf(capacityGB, readMBps, retrieveHours, handlingProb, wearProb, costPerCycle float64) Media {
	readHours := capacityGB * 1e9 / (readMBps * 1e6) / 3600
	return Media{
		Name:              "offline tape shelf",
		Kind:              Offline,
		AuditHours:        retrieveHours + readHours,
		AuditCost:         costPerCycle,
		HandlingFaultProb: handlingProb,
		ReadWearFaultProb: wearProb,
		RepairHours:       retrieveHours + readHours, // re-write plus the same handling
	}
}
