// Package workload models archival access patterns (§2, §6.2): large
// object populations where any single object is read vanishingly rarely —
// the regime where user access cannot be relied on to surface latent
// faults, motivating proactive audit.
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// ErrInvalid reports a workload parameter outside its domain.
var ErrInvalid = errors.New("workload: invalid parameter")

// Archive describes an archival collection and its aggregate traffic.
type Archive struct {
	// Objects is the number of stored objects.
	Objects int64
	// ObjectMB is the mean object size in megabytes.
	ObjectMB float64
	// AccessesPerHour is the aggregate user access rate across the whole
	// collection. Archives serve "users with data items at a high rate,
	// but the average data item is accessed infrequently" (§4.1).
	AccessesPerHour float64
}

// Validate reports whether the archive description is well-formed.
func (a Archive) Validate() error {
	if a.Objects <= 0 {
		return fmt.Errorf("%w: object count %d must be positive", ErrInvalid, a.Objects)
	}
	if a.ObjectMB <= 0 || math.IsNaN(a.ObjectMB) {
		return fmt.Errorf("%w: object size %v MB must be positive", ErrInvalid, a.ObjectMB)
	}
	if a.AccessesPerHour < 0 || math.IsNaN(a.AccessesPerHour) {
		return fmt.Errorf("%w: access rate %v must be non-negative", ErrInvalid, a.AccessesPerHour)
	}
	return nil
}

// TotalGB returns the collection size in decimal gigabytes.
func (a Archive) TotalGB() float64 {
	return float64(a.Objects) * a.ObjectMB / 1000
}

// PerObjectAccessRate returns the hourly access rate of one average
// object: aggregate rate spread over the population.
func (a Archive) PerObjectAccessRate() float64 {
	return a.AccessesPerHour / float64(a.Objects)
}

// MeanHoursBetweenObjectAccesses returns how long an average object waits
// between reads — the effective detection lag if access were the only
// audit (§6.2: "during the long time between accesses latent faults will
// build up"). +Inf with no traffic.
func (a Archive) MeanHoursBetweenObjectAccesses() float64 {
	r := a.PerObjectAccessRate()
	if r <= 0 {
		return math.Inf(1)
	}
	return 1 / r
}

// AccessDetectionCoverage returns the fraction of a replica's content a
// single access exercises: one object out of the population. Used as the
// OnAccess scrub strategy's coverage.
func (a Archive) AccessDetectionCoverage() float64 {
	return 1 / float64(a.Objects)
}

// AccessProcess is a Poisson stream of user accesses to an archive
// replica, usable both as traffic for opportunistic scrubbing and as the
// §4.1 access-triggered detection channel.
type AccessProcess struct {
	archive Archive
	src     *rng.Source
	now     float64
}

// NewAccessProcess returns an access stream for the archive drawing
// randomness from src.
func NewAccessProcess(a Archive, src *rng.Source) (*AccessProcess, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if a.AccessesPerHour == 0 {
		return nil, fmt.Errorf("%w: access process needs a positive access rate", ErrInvalid)
	}
	return &AccessProcess{archive: a, src: src}, nil
}

// Next returns the time of the next access and the index of the object it
// touches (uniform over the population).
func (p *AccessProcess) Next() (at float64, object int64) {
	p.now += p.src.Exp() / p.archive.AccessesPerHour
	obj := int64(p.src.Float64() * float64(p.archive.Objects))
	if obj >= p.archive.Objects { // guard the open-interval edge
		obj = p.archive.Objects - 1
	}
	return p.now, obj
}

// Now returns the time of the most recent access (0 before the first).
func (p *AccessProcess) Now() float64 { return p.now }

// PhotoService returns an archive sized like the §2 consumer-photo
// motivation: 10^9 photos of 2 MB each with 100k reads/hour aggregate —
// heavy site traffic, yet each photo is read about once a year.
func PhotoService() Archive {
	return Archive{Objects: 1e9, ObjectMB: 2, AccessesPerHour: 1e5}
}

// InstitutionalArchive returns an archive sized like a library web
// archive: 10^8 documents of 0.5 MB with 1k reads/hour.
func InstitutionalArchive() Archive {
	return Archive{Objects: 1e8, ObjectMB: 0.5, AccessesPerHour: 1e3}
}
