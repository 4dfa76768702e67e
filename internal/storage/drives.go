// Package storage models the storage substrate of §6.1–§6.2: concrete
// drive specifications (the paper's Seagate Barracuda and Cheetah),
// irrecoverable-bit-error arithmetic, and the online/offline media
// distinction that drives the disk-versus-tape auditing argument.
package storage

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
)

// ErrInvalid reports a storage parameter outside its domain.
var ErrInvalid = errors.New("storage: invalid parameter")

// Class distinguishes the two §6.1 market segments.
type Class int

const (
	// Consumer drives: cheap, fairly fast, fairly reliable.
	Consumer Class = iota
	// Enterprise drives: vastly more expensive, much faster, only a
	// little more reliable.
	Enterprise
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Consumer:
		return "consumer"
	case Enterprise:
		return "enterprise"
	default:
		return fmt.Sprintf("storage.Class(%d)", int(c))
	}
}

// DriveSpec captures the datasheet numbers §6.1 works from.
type DriveSpec struct {
	// Name is the marketing name.
	Name string
	// Class is the market segment.
	Class Class
	// CapacityGB is the formatted capacity in decimal gigabytes.
	CapacityGB float64
	// SustainedMBps is the sustained media transfer rate in MB/s — the
	// rate that bounds scrub and rebuild throughput. (Interface burst
	// rates are higher and irrelevant to reliability arithmetic.)
	SustainedMBps float64
	// InterfaceMBps is the quoted interface bandwidth in MB/s; the paper
	// uses the Cheetah's 300 MB/s figure for its 20-minute repair
	// estimate.
	InterfaceMBps float64
	// UBER is the quoted irrecoverable bit error rate per bit read
	// (10^-14 consumer, 10^-15 enterprise in §6.1).
	UBER float64
	// ServiceLifeFaultProb is the probability of a visible in-service
	// fault over ServiceLifeYears (7% Barracuda, 3% Cheetah in §6.1).
	ServiceLifeFaultProb float64
	// ServiceLifeYears is the service life the fault probability refers
	// to (5 years for both §6.1 drives).
	ServiceLifeYears float64
	// PricePerGB is the quoted price in dollars per decimal GB
	// (TigerDirect, June 2005: $0.57 consumer, $8.20 enterprise).
	PricePerGB float64
}

// Validate reports whether the spec is internally consistent.
func (d DriveSpec) Validate() error {
	pos := func(name string, v float64) error {
		if math.IsNaN(v) || v <= 0 {
			return fmt.Errorf("%w: drive %q %s = %v, must be positive", ErrInvalid, d.Name, name, v)
		}
		return nil
	}
	prob := func(name string, v float64, excludeOne bool) error {
		if math.IsNaN(v) || v < 0 || v > 1 || (excludeOne && v == 1) {
			interval := "[0,1]"
			if excludeOne {
				interval = "[0,1)"
			}
			return fmt.Errorf("%w: drive %q %s = %v, must be in %s", ErrInvalid, d.Name, name, v, interval)
		}
		return nil
	}
	// Fields are checked in declaration order (a slice, not a map), so a
	// spec with several bad fields always reports the same one.
	for _, err := range []error{
		pos("capacity", d.CapacityGB),
		pos("sustained rate", d.SustainedMBps),
		pos("interface rate", d.InterfaceMBps),
		prob("UBER", d.UBER, false),
		prob("service-life fault probability", d.ServiceLifeFaultProb, true),
		pos("service life", d.ServiceLifeYears),
		pos("price per GB", d.PricePerGB),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// MTTFHours derives the visible-fault mean time from the service-life
// fault probability under the memoryless assumption (eq 1 inverted):
// MTTF = -T / ln(1 - P). For the Cheetah's 3%/5yr this yields 1.44e6 h,
// matching the paper's MV = 1.4e6 h within rounding — a consistency check
// between §5.4 and §6.1.
func (d DriveSpec) MTTFHours() float64 {
	life := model.YearsToHours(d.ServiceLifeYears)
	return -life / math.Log(1-d.ServiceLifeFaultProb)
}

// CapacityBytes returns the capacity in bytes (decimal GB).
func (d DriveSpec) CapacityBytes() float64 { return d.CapacityGB * 1e9 }

// CapacityBits returns the capacity in bits.
func (d DriveSpec) CapacityBits() float64 { return d.CapacityBytes() * 8 }

// Price returns the drive's price in dollars.
func (d DriveSpec) Price() float64 { return d.PricePerGB * d.CapacityGB }

// FullScanHours returns the time to read the whole drive at the sustained
// media rate: the cost of one scrub pass or one rebuild copy.
func (d DriveSpec) FullScanHours() float64 {
	seconds := d.CapacityBytes() / (d.SustainedMBps * 1e6)
	return seconds / 3600
}

// LifetimeBitErrors returns the expected number of irrecoverable bit
// errors over the drive's service life when it is active (transferring at
// the given rate) for activeFraction of the time — the §6.1 "99% idle"
// calculation. rateMBps of zero uses the sustained rate.
func (d DriveSpec) LifetimeBitErrors(activeFraction, rateMBps float64) float64 {
	if activeFraction < 0 {
		activeFraction = 0
	}
	if activeFraction > 1 {
		activeFraction = 1
	}
	if rateMBps <= 0 {
		rateMBps = d.SustainedMBps
	}
	lifeHours := model.YearsToHours(d.ServiceLifeYears)
	activeSeconds := lifeHours * 3600 * activeFraction
	bitsRead := activeSeconds * rateMBps * 1e6 * 8
	return bitsRead * d.UBER
}

// ScanBitErrorProbability returns the probability that one full-drive
// read hits at least one irrecoverable bit error: 1 - exp(-bits·UBER).
// This is the per-scrub-pass latent-fault discovery risk and the rebuild
// hazard the Chen baseline prices in.
func (d DriveSpec) ScanBitErrorProbability() float64 {
	return 1 - math.Exp(-d.CapacityBits()*d.UBER)
}

// Barracuda200 returns the §6.1 consumer drive: Seagate Barracuda
// ST3200822A, 200 GB, 7% five-year visible fault probability, UBER 1e-14,
// $0.57/GB. The 65 MB/s sustained rate is the published media rate for
// the 7200.7 family and reproduces the paper's "about 8" lifetime bit
// errors at 1% duty (see EXPERIMENTS.md E7 for the arithmetic).
func Barracuda200() DriveSpec {
	return DriveSpec{
		Name:                 "Seagate Barracuda ST3200822A",
		Class:                Consumer,
		CapacityGB:           200,
		SustainedMBps:        65,
		InterfaceMBps:        100, // ATA/100
		UBER:                 1e-14,
		ServiceLifeFaultProb: 0.07,
		ServiceLifeYears:     5,
		PricePerGB:           0.57,
	}
}

// Cheetah146 returns the §6.1/§5.4 enterprise drive: Seagate Cheetah
// 15K.4, 146 GB, 3% five-year visible fault probability, UBER 1e-15,
// $8.20/GB, 300 MB/s quoted bandwidth (the figure the paper uses for its
// 20-minute MRV estimate).
func Cheetah146() DriveSpec {
	return DriveSpec{
		Name:                 "Seagate Cheetah 15K.4",
		Class:                Enterprise,
		CapacityGB:           146,
		SustainedMBps:        85, // published sustained media rate
		InterfaceMBps:        300,
		UBER:                 1e-15,
		ServiceLifeFaultProb: 0.03,
		ServiceLifeYears:     5,
		PricePerGB:           8.20,
	}
}

// PriceRatio returns how many times more expensive per byte b is than a
// (§6.1's "about 14 times as much per byte").
func PriceRatio(a, b DriveSpec) float64 {
	return b.PricePerGB / a.PricePerGB
}
