package router

import (
	"context"
	"sync"
)

// flight is a caller-owned single-flight table: concurrent Do calls for
// one key run fn once, and every duplicate waits for that run and shares
// its outcome. The zero value is ready to use. (A worker's scheduler
// keeps its own table: its entries belong to a queued job, not to a
// caller.)
type flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn under key unless a call for key is already in flight, in
// which case it waits for that call and returns its outcome with joined
// set. ctx bounds only a joiner's wait; the owner's fn runs to
// completion under whatever context it captured.
func (f *flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, joined bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
