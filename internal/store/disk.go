package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// File format: a fixed 8-byte header followed by the payload bytes.
//
//	bytes 0..3  magic "LTS1"
//	bytes 4..7  little-endian IEEE CRC32 of the payload
//
// Anything that fails these checks — short file, wrong magic, CRC
// mismatch — is treated as absent and quarantined, never served.
const (
	diskMagic  = "LTS1"
	diskHeader = 8
)

// corruptDir is the quarantine subdirectory under the store root.
const corruptDir = "corrupt"

// DiskStore is the shipped Store backend: one file per key in a
// sharded content-addressed directory. Keys that are already canonical
// fingerprints (64 hex chars) name their file directly; any other key is
// content-addressed through SHA-256 first, so arbitrary cache keys (the
// experiment-result keys, say) store safely too.
type DiskStore struct {
	dir      string
	maxBytes int64

	mu         sync.Mutex
	items      map[string]*list.Element // pathKey -> element
	order      *list.List               // front = most recently used
	totalBytes int64
	corruptSeq uint64
	closed     bool

	stats Stats
}

type diskEntry struct {
	pathKey string
	size    int64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir,
// bounded to maxBytes of payload files (0 = unbounded). It scans the
// directory so a warm dir from a previous process serves immediately,
// removes leftover temp files from interrupted writes, and runs GC if
// the scan comes up over budget. The LRU order across restarts is the
// files' mtimes — reads refresh them, so recency survives the process.
func OpenDisk(dir string, maxBytes int64) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: cache dir must not be empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, corruptDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &DiskStore{
		dir:      dir,
		maxBytes: maxBytes,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

// scan walks the shard directories and rebuilds the index, oldest mtime
// first so the in-memory LRU matches the on-disk one.
func (s *DiskStore) scan() error {
	type found struct {
		pathKey string
		size    int64
		mtime   time.Time
	}
	var all []found
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == corruptDir {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(s.dir, sh.Name(), f.Name())
			// Interrupted writes leave temp files; they were never
			// visible as entries, so sweep them on startup.
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				os.Remove(path)
				continue
			}
			if !isPathKey(f.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			all = append(all, found{pathKey: f.Name(), size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	for _, f := range all {
		// Ascending mtime + PushFront leaves the newest at the front.
		s.items[f.pathKey] = s.order.PushFront(&diskEntry{pathKey: f.pathKey, size: f.size})
		s.totalBytes += f.size
	}
	return nil
}

const tmpPrefix = ".tmp-"

// isPathKey reports whether name is a 64-char lowercase-hex filename —
// the only shape Put ever writes.
func isPathKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// pathKeyFor maps an arbitrary store key onto its filename: canonical
// fingerprints (already 64-hex) pass through, anything else is hashed.
func pathKeyFor(key string) string {
	if isPathKey(key) {
		return key
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Path returns the file an entry for key lives at (whether or not it
// exists) — exported so tests and operational tooling can inspect or
// deliberately corrupt specific entries.
func (s *DiskStore) Path(key string) string {
	pk := pathKeyFor(key)
	return filepath.Join(s.dir, pk[:2], pk)
}

// CorruptDir returns the quarantine directory.
func (s *DiskStore) CorruptDir() string { return filepath.Join(s.dir, corruptDir) }

// Instrument registers the store metric families as callbacks over the
// store's own counters, so /metrics and /stats read the same numbers.
// Call once, before traffic.
func (s *DiskStore) Instrument(reg *telemetry.Registry) {
	counter := func(name, help string, v func(Stats) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return v(s.Stats()) })
	}
	counter("ltsimd_store_hits_total", "Disk-store lookups that replayed stored bytes.",
		func(st Stats) uint64 { return st.Hits })
	counter("ltsimd_store_misses_total", "Disk-store lookups that found nothing.",
		func(st Stats) uint64 { return st.Misses })
	counter("ltsimd_store_writes_total", "Entries written to the disk store.",
		func(st Stats) uint64 { return st.Writes })
	counter("ltsimd_store_corrupt_total", "Entries quarantined on read: truncated, garbage, or CRC-mismatched files served as misses.",
		func(st Stats) uint64 { return st.Corrupt })
	counter("ltsimd_store_gc_evictions_total", "Entries deleted by the size-bounded GC.",
		func(st Stats) uint64 { return st.GCEvictions })
	counter("ltsimd_store_errors_total", "I/O failures that degraded a store read or write.",
		func(st Stats) uint64 { return st.Errors })
	reg.GaugeFunc("ltsimd_store_entries", "Disk-store size in entries.", func() float64 {
		return float64(s.Stats().Entries)
	})
	reg.GaugeFunc("ltsimd_store_bytes", "Disk-store size in file bytes.", func() float64 {
		return float64(s.Stats().Bytes)
	})
	reg.GaugeFunc("ltsimd_store_capacity_bytes", "Disk-store GC bound in bytes (0 = unbounded).", func() float64 {
		return float64(s.maxBytes)
	})
}

// Get returns the stored bytes for key. A file that fails validation is
// quarantined and reported as a miss; the caller recomputes, and
// determinism makes the recomputation bit-identical to what was lost.
func (s *DiskStore) Get(key string) ([]byte, bool) {
	pk := pathKeyFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	payload, ok := s.readLocked(pk)
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return payload, ok
}

// readLocked returns the validated payload stored under pk, dropping an
// entry whose file is gone and quarantining one that fails validation.
// Callers hold s.mu.
func (s *DiskStore) readLocked(pk string) ([]byte, bool) {
	el, ok := s.items[pk]
	if !ok {
		return nil, false
	}
	path := filepath.Join(s.dir, pk[:2], pk)
	data, err := os.ReadFile(path)
	if err != nil {
		// The index said present but the file is gone (external
		// interference); treat as a miss and drop the entry.
		s.removeLocked(el)
		s.stats.Errors++
		return nil, false
	}
	payload, ok := decodeEntry(data)
	if !ok {
		s.quarantineLocked(el, path, pk)
		return nil, false
	}
	s.order.MoveToFront(el)
	// Refresh the mtime so the on-disk LRU order a future startup scan
	// rebuilds matches this process's; best-effort.
	now := time.Now()
	os.Chtimes(path, now, now)
	return payload, true
}

// decodeEntry validates the header and CRC, returning the payload.
func decodeEntry(data []byte) ([]byte, bool) {
	if len(data) < diskHeader || string(data[:4]) != diskMagic {
		return nil, false
	}
	payload := data[diskHeader:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, false
	}
	return payload, true
}

// encodeEntry frames a payload for disk.
func encodeEntry(val []byte) []byte {
	out := make([]byte, diskHeader+len(val))
	copy(out, diskMagic)
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(val))
	copy(out[diskHeader:], val)
	return out
}

// quarantineLocked moves a failed entry into the corrupt directory
// (numbered, so repeat corruption of one key never collides) and drops
// it from the index. Callers hold s.mu.
func (s *DiskStore) quarantineLocked(el *list.Element, path, pk string) {
	s.corruptSeq++
	dest := filepath.Join(s.dir, corruptDir, fmt.Sprintf("%s.%d", pk, s.corruptSeq))
	if err := os.Rename(path, dest); err != nil {
		os.Remove(path)
	}
	s.removeLocked(el)
	s.stats.Corrupt++
}

// removeLocked drops an entry from the index. Callers hold s.mu.
func (s *DiskStore) removeLocked(el *list.Element) {
	e := el.Value.(*diskEntry)
	s.order.Remove(el)
	delete(s.items, e.pathKey)
	s.totalBytes -= e.size
}

// Put stores val under key with an atomic temp+rename write. Failures
// degrade (the entry is skipped and counted) rather than erroring: the
// memory tier above still holds the bytes, so serving is unaffected.
func (s *DiskStore) Put(key string, val []byte) {
	pk := pathKeyFor(key)
	shard := filepath.Join(s.dir, pk[:2])
	framed := encodeEntry(val)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if err := writeAtomic(shard, pk, framed); err != nil {
		s.stats.Errors++
		return
	}
	size := int64(len(framed))
	if el, ok := s.items[pk]; ok {
		e := el.Value.(*diskEntry)
		s.totalBytes += size - e.size
		e.size = size
		s.order.MoveToFront(el)
	} else {
		s.items[pk] = s.order.PushFront(&diskEntry{pathKey: pk, size: size})
		s.totalBytes += size
	}
	s.stats.Writes++
	s.gcLocked()
}

// writeAtomic writes data to shard/name via a synced temp file and
// rename, so a crash mid-write can never leave a half-visible entry —
// readers see the old bytes or the new bytes, nothing between.
func writeAtomic(shard, name string, data []byte) error {
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(shard, tmpPrefix+name+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(shard, name))
}

// gcLocked deletes least-recently-used entries until the footprint fits
// the bound. A lone entry is never evicted, so one result larger than
// the whole budget still caches (the bound is advisory for that case).
// Callers hold s.mu.
func (s *DiskStore) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.totalBytes > s.maxBytes && s.order.Len() > 1 {
		el := s.order.Back()
		e := el.Value.(*diskEntry)
		os.Remove(filepath.Join(s.dir, e.pathKey[:2], e.pathKey))
		s.removeLocked(el)
		s.stats.GCEvictions++
	}
}

// Len returns the current entry count.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Stats snapshots the store counters.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.order.Len()
	st.Bytes = s.totalBytes
	st.CapacityBytes = s.maxBytes
	return st
}

// Close marks the store closed; subsequent Gets miss and Puts are
// dropped. The files stay — that is the point.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
