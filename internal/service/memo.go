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

// bodyMemo remembers what request bodies resolved to, so a repeated body
// skips its decode and resolution. Entries are keyed by the body's
// SHA-256, so the memory held depends on what the entries weigh, not on
// the body sizes clients send. Two generations of at most capacity/2
// weight each bound it: when an entry would overfill the current
// generation, that generation becomes the old one and the previous old
// one is dropped, and a hit in the old generation moves the entry back
// into the current one, so bodies still in use survive a rotation. An
// entry heavier than one generation is never stored.
//
// A memo is sound only while resolution stays a pure function of the
// body: the same body must always resolve to the same value.
type bodyMemo[V any] struct {
	mu       sync.Mutex
	limit    int // the weight one generation holds
	weight   int // the current generation's weight
	cur, old map[[sha256.Size]byte]weighed[V]
}

type weighed[V any] struct {
	v V
	w int
}

func (m *bodyMemo[V]) init(capacity int) {
	m.limit = max(1, capacity/2)
	m.cur = make(map[[sha256.Size]byte]weighed[V])
}

// get looks sum up in both generations, promoting an old-generation hit.
func (m *bodyMemo[V]) get(sum [sha256.Size]byte) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.cur[sum]; ok {
		return e.v, true
	}
	e, ok := m.old[sum]
	if ok {
		m.add(sum, e)
	}
	return e.v, ok
}

// put remembers v, of weight w, for sum.
func (m *bodyMemo[V]) put(sum [sha256.Size]byte, v V, w int) {
	m.mu.Lock()
	m.add(sum, weighed[V]{v, w})
	m.mu.Unlock()
}

// add stores e in the current generation, rotating first when e would
// overfill it. The caller holds mu.
func (m *bodyMemo[V]) add(sum [sha256.Size]byte, e weighed[V]) {
	if e.w > m.limit {
		return
	}
	if prev, ok := m.cur[sum]; ok {
		m.weight -= prev.w // two callers resolved the same body at once
	}
	if m.weight+e.w > m.limit {
		m.old, m.cur, m.weight = m.cur, make(map[[sha256.Size]byte]weighed[V]), 0
	}
	m.cur[sum] = e
	m.weight += e.w
}

// KeyMemo remembers, for /estimate bodies that resolved, the key each
// resolved to and its "progress" flag, so a repeated body skips the
// decode and the resolve function (Build and Fingerprint, in ltsimd also
// the request policy). Each body weighs 1, so the memo holds at most
// max(capacity, 2) bodies.
type KeyMemo struct {
	bodyMemo[memoEntry]
}

type memoEntry struct {
	key      string
	progress bool
}

// NewKeyMemo returns a memo holding at most max(capacity, 2) bodies.
func NewKeyMemo(capacity int) *KeyMemo {
	m := new(KeyMemo)
	m.init(capacity)
	return m
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
	m.put(sum, memoEntry{key: key, progress: req.Progress}, 1)
	return key, req.Progress, nil
}

// SweepMemo remembers, for /sweep bodies whose every point resolved, the
// key of each point, so a repeated body skips the decode, the scenario
// expansion and the resolution of every point. A body weighs its point
// count, so the memo holds at most max(capacity, 2) keys, and a sweep of
// more than max(capacity/2, 1) points is never remembered.
type SweepMemo struct {
	bodyMemo[[]string]
}

// NewSweepMemo returns a memo holding at most max(capacity, 2) keys.
func NewSweepMemo(capacity int) *SweepMemo {
	m := new(SweepMemo)
	m.init(capacity)
	return m
}
