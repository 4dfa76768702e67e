package storage

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/scrub"
	"repro/internal/sim"
)

// Spec names one replica's storage substrate for heterogeneous-fleet
// simulation: the reliability and maintenance numbers a concrete drive
// or medium implies, ready to bridge into a sim.ReplicaSpec. It is the
// §6.1–§6.2 vocabulary ("a consumer disk scrubbed monthly", "a tape on
// a shelf audited yearly") turned into simulator inputs.
type Spec struct {
	// Label names the tier ("consumer-disk", "enterprise-disk",
	// "tape-shelf"); it becomes the replica's site/tier label.
	Label string
	// VisibleMean is the mean time to a visible fault in hours (+Inf
	// disables the channel).
	VisibleMean float64
	// LatentMean is the mean time to a latent fault in hours (+Inf
	// disables the channel).
	LatentMean float64
	// ScrubsPerYear is the periodic audit frequency (0 = never audited).
	ScrubsPerYear float64
	// ScrubOffset staggers the audit schedule by this many hours, so
	// fleet members need not audit in lockstep.
	ScrubOffset float64
	// RepairHours is the time to restore this replica from a good copy
	// once a fault is known (both fault classes; a full-media copy).
	RepairHours float64
	// AccessRatePerHour and AccessCoverage, when both positive, add the
	// §4.1 user-access detection channel.
	AccessRatePerHour float64
	AccessCoverage    float64
	// Hazard, when non-nil, makes both fault channels non-stationary:
	// the profile multiplies their rates over the replica's age (burn-in,
	// wear-out — see faults.Hazard and aging.Bathtub). Named tiers carry
	// no profile; it is set by callers modelling a specific fleet.
	Hazard faults.Hazard
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	// Fields are checked in a fixed order (a slice, not a map), so a spec
	// with several bad fields always reports the same one.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"visible mean", s.VisibleMean},
		{"latent mean", s.LatentMean},
		{"repair hours", s.RepairHours},
	} {
		if math.IsNaN(f.v) || f.v <= 0 {
			return fmt.Errorf("%w: spec %q %s = %v, must be positive", ErrInvalid, s.Label, f.name, f.v)
		}
	}
	if math.IsInf(s.RepairHours, 1) {
		return fmt.Errorf("%w: spec %q repair hours must be finite", ErrInvalid, s.Label)
	}
	if s.ScrubsPerYear < 0 || math.IsNaN(s.ScrubsPerYear) {
		return fmt.Errorf("%w: spec %q scrubs/year = %v, must be >= 0", ErrInvalid, s.Label, s.ScrubsPerYear)
	}
	if math.IsNaN(s.ScrubOffset) || math.IsInf(s.ScrubOffset, 0) {
		return fmt.Errorf("%w: spec %q scrub offset = %v, must be finite", ErrInvalid, s.Label, s.ScrubOffset)
	}
	// The access channel is all-or-nothing: a half-set pair would be
	// silently dropped by the bridge, which reads as a config typo.
	if (s.AccessRatePerHour > 0) != (s.AccessCoverage > 0) {
		return fmt.Errorf("%w: spec %q access rate %v and coverage %v must be set together", ErrInvalid, s.Label, s.AccessRatePerHour, s.AccessCoverage)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"access rate", s.AccessRatePerHour},
		{"access coverage", s.AccessCoverage},
	} {
		if math.IsNaN(f.v) || f.v < 0 {
			return fmt.Errorf("%w: spec %q %s = %v, must be non-negative", ErrInvalid, s.Label, f.name, f.v)
		}
	}
	if s.AccessCoverage > 1 {
		return fmt.Errorf("%w: spec %q access coverage = %v, must be in [0,1]", ErrInvalid, s.Label, s.AccessCoverage)
	}
	if s.Hazard != nil {
		if err := s.Hazard.Validate(); err != nil {
			return fmt.Errorf("%w: spec %q hazard: %v", ErrInvalid, s.Label, err)
		}
	}
	return nil
}

// ReplicaSpec bridges the storage spec into the simulator's per-replica
// configuration: periodic audits at ScrubsPerYear, automated repair at
// RepairHours for both fault classes, and the optional access channel.
func (s Spec) ReplicaSpec() (sim.ReplicaSpec, error) {
	if err := s.Validate(); err != nil {
		return sim.ReplicaSpec{}, err
	}
	var strat scrub.Strategy = scrub.None{}
	if s.ScrubsPerYear > 0 {
		p, err := scrub.NewPeriodic(s.ScrubsPerYear, s.ScrubOffset)
		if err != nil {
			return sim.ReplicaSpec{}, fmt.Errorf("storage: spec %q: %w", s.Label, err)
		}
		strat = p
	}
	rep, err := repair.Automated(s.RepairHours, s.RepairHours, 0)
	if err != nil {
		return sim.ReplicaSpec{}, fmt.Errorf("storage: spec %q: %w", s.Label, err)
	}
	var access scrub.Strategy
	if s.AccessRatePerHour > 0 && s.AccessCoverage > 0 {
		a, err := scrub.NewOnAccess(s.AccessRatePerHour, s.AccessCoverage)
		if err != nil {
			return sim.ReplicaSpec{}, fmt.Errorf("storage: spec %q: %w", s.Label, err)
		}
		access = a
	}
	return sim.ReplicaSpec{
		Label:        s.Label,
		VisibleMean:  s.VisibleMean,
		LatentMean:   s.LatentMean,
		Scrub:        strat,
		AccessDetect: access,
		Repair:       rep,
		Hazard:       s.Hazard,
	}, nil
}

// DiskSpec derives a Spec from a §6.1 drive datasheet: visible mean
// from the service-life fault probability (MTTFHours), latent mean from
// the Schwarz latent-to-visible ratio the paper's own worked example
// uses, and repair at full-media copy speed.
func DiskSpec(d DriveSpec, scrubsPerYear float64) Spec {
	return Spec{
		Label:         d.Class.String() + "-disk",
		VisibleMean:   d.MTTFHours(),
		LatentMean:    d.MTTFHours() / model.SchwarzLatentFactor,
		ScrubsPerYear: scrubsPerYear,
		RepairHours:   d.FullScanHours(),
	}
}

// OfflineSpec derives a Spec from an offline medium: audits and repairs
// take the medium's handling-inclusive hours, and the caller supplies
// the fault means (offline media fail for shelf-life reasons a disk
// datasheet cannot predict).
func OfflineSpec(m Media, visibleMean, latentMean, auditsPerYear float64) Spec {
	return Spec{
		Label:         m.Name,
		VisibleMean:   visibleMean,
		LatentMean:    latentMean,
		ScrubsPerYear: auditsPerYear,
		RepairHours:   m.RepairHours,
	}
}

// TierSpec resolves a named storage tier into a Spec at the given audit
// frequency: the shared vocabulary behind `ltsim -replica consumer` and
// the daemon's {"tier": "consumer"} fleet entries, defined once so CLI
// and service agree on what a tier means (and hence on cache keys).
//
//	consumer    the §6.1 Barracuda-class drive
//	enterprise  the §6.1 Cheetah-class drive
//	tape        an offline shelf: 3× consumer fault means (shelved media
//	            dodge in-service wear), handling-scale repairs, audited
//	            once a year regardless of scrubsPerYear
//
// ok is false for an unknown name; TierNames lists the valid ones.
func TierSpec(name string, scrubsPerYear float64) (Spec, bool) {
	switch name {
	case "consumer":
		return DiskSpec(Barracuda200(), scrubsPerYear), true
	case "enterprise":
		return DiskSpec(Cheetah146(), scrubsPerYear), true
	case "tape":
		d := Barracuda200()
		shelf := TapeShelf(200, 80, 24, 0.001, 0.001, 15)
		return OfflineSpec(shelf, 3*d.MTTFHours(), 3*d.MTTFHours()/model.SchwarzLatentFactor, 1), true
	}
	return Spec{}, false
}

// TierNames returns the names TierSpec accepts, for error messages.
func TierNames() []string { return []string{"consumer", "enterprise", "tape"} }

// FleetConfig assembles a heterogeneous-fleet simulator configuration
// from named storage specs: one replica per spec, independent replicas
// by default (set Correlation afterwards for the §5.3 α models).
func FleetConfig(specs ...Spec) (sim.Config, error) {
	if len(specs) == 0 {
		return sim.Config{}, fmt.Errorf("%w: fleet needs at least one spec", ErrInvalid)
	}
	rs := make([]sim.ReplicaSpec, len(specs))
	for i, s := range specs {
		r, err := s.ReplicaSpec()
		if err != nil {
			return sim.Config{}, fmt.Errorf("storage: fleet replica %d: %w", i, err)
		}
		rs[i] = r
	}
	return sim.Config{Specs: rs, Correlation: faults.Independent{}}, nil
}
