// Package store is the persistent result-store layer under the ltsimd
// service's in-memory LRU: a content-addressed byte store keyed by the
// same canonical fingerprints the cache uses, so a daemon restarted on a
// warm directory replays bit-identical answers instead of re-simulating
// them.
//
// DiskStore keeps one file per key in a sharded directory tree with
// atomic temp+rename writes, CRC-checked reads, a startup scan, and
// size-bounded garbage collection ordered by LRU mtime. Corrupt entries
// (truncated, garbage, CRC mismatch) are never served: they read as a
// miss, are quarantined under <dir>/corrupt/, and are counted — the layer
// above re-simulates, which the simulator's determinism guarantees
// reproduces the original bytes.
package store

// Stats is a point-in-time snapshot of a store's counters, shaped for
// the service's /stats payload.
type Stats struct {
	// Entries and Bytes describe the current footprint; CapacityBytes is
	// the GC bound (0 = unbounded).
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	// Hits and Misses count Get outcomes; Writes counts successful Puts.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Writes uint64 `json:"writes"`
	// Corrupt counts entries quarantined on read (truncated, garbage, or
	// CRC mismatch — each one served as a miss, never as bad bytes).
	Corrupt uint64 `json:"corrupt"`
	// GCEvictions counts entries deleted by the size-bounded GC.
	GCEvictions uint64 `json:"gc_evictions"`
	// Errors counts I/O failures that degraded a Put or Get (the store
	// stays available: a failed write is skipped, a failed read misses).
	Errors uint64 `json:"errors"`
}
