package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
)

// decodeEstimate strictly decodes one /estimate body: unknown fields are
// errors, and only the first JSON value counts (bytes after it are
// ignored, as a streaming decoder never reads them). ltsimd and ltsimr
// both decode through KeyMemo.Key, so they reject the same bodies with
// the same message.
func decodeEstimate(body []byte) (EstimateRequest, error) {
	var req EstimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return EstimateRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	return req, nil
}

// KeyMemo remembers, for /estimate bodies that resolved, the key each
// resolved to and its "progress" flag, so a repeated body skips the
// decode and the resolve function (Build and Fingerprint, in ltsimd also
// the request policy). Entries are keyed by the body's SHA-256, so the
// memory held depends on the entry count, not on the body sizes clients
// send. Two generations of capacity/2 entries bound the count: when the
// current generation fills it becomes the old one and the previous old
// one is dropped, and a hit in the old generation moves the entry back
// into the current one, so bodies still in use survive a rotation.
//
// A memo is sound only while the resolve function stays a pure function
// of the request: the same body must always resolve to the same key.
type KeyMemo struct {
	mu       sync.Mutex
	half     int
	cur, old map[[sha256.Size]byte]memoEntry
}

type memoEntry struct {
	key      string
	progress bool
}

// NewKeyMemo returns a memo holding at most max(capacity, 2) bodies.
func NewKeyMemo(capacity int) *KeyMemo {
	half := max(1, capacity/2)
	return &KeyMemo{half: half, cur: make(map[[sha256.Size]byte]memoEntry, half)}
}

// Key returns the key body resolves to and its "progress" flag. A body
// remembered from an earlier success is answered from the memo; any
// other is decoded strictly (unknown fields are errors, bytes after the
// first JSON value are ignored) and handed to resolve. Only a success is
// remembered, so a body that fails fails the same way every time.
func (m *KeyMemo) Key(body []byte, resolve func(EstimateRequest) (string, error)) (key string, progress bool, err error) {
	sum := sha256.Sum256(body)
	if e, ok := m.get(sum); ok {
		return e.key, e.progress, nil
	}
	req, err := decodeEstimate(body)
	if err != nil {
		return "", false, err
	}
	if key, err = resolve(req); err != nil {
		return "", false, err
	}
	m.mu.Lock()
	m.add(sum, memoEntry{key: key, progress: req.Progress})
	m.mu.Unlock()
	return key, req.Progress, nil
}

// get looks sum up in both generations, promoting an old-generation hit.
func (m *KeyMemo) get(sum [sha256.Size]byte) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cur[sum]; ok {
		return e, true
	}
	e, ok := m.old[sum]
	if ok {
		m.add(sum, e)
	}
	return e, ok
}

// add stores e in the current generation, rotating first when it is
// full. The caller holds mu.
func (m *KeyMemo) add(sum [sha256.Size]byte, e memoEntry) {
	if len(m.cur) >= m.half {
		m.old, m.cur = m.cur, make(map[[sha256.Size]byte]memoEntry, m.half)
	}
	m.cur[sum] = e
}
