package service

import (
	"context"
	"sync"
)

// Flight is the one in-flight table: while a call for a key runs, every
// further caller for that key joins it and gets its outcome. A call
// belongs to its key, not to the caller that started it, and a caller
// that leaves ends only its own Wait. The scheduler shards and the
// ltsimr router both coalesce through it. The zero value is ready.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*Call[V]
}

// Call is one in-flight computation of a key's value.
type Call[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
}

// Join returns the call in flight for key with joined set. Otherwise,
// unless ctx is already done, it makes a call and runs start on it under
// the table lock; start must not block and must see that Finish is
// called. A failed start leaves nothing in flight.
func (f *Flight[V]) Join(ctx context.Context, key string, start func(*Call[V]) error) (c *Call[V], joined bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	c = &Call[V]{key: key, done: make(chan struct{})}
	if err := start(c); err != nil {
		return nil, false, err
	}
	if f.calls == nil {
		f.calls = make(map[string]*Call[V])
	}
	f.calls[key] = c
	return c, false, nil
}

// Finish publishes c's outcome to its waiters and frees its key.
func (f *Flight[V]) Finish(c *Call[V], val V, err error) {
	f.mu.Lock()
	delete(f.calls, c.key)
	f.mu.Unlock()
	c.val, c.err = val, err
	close(c.done)
}

// Done is closed once the call's outcome is published.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Wait returns the call's outcome, or ctx's error if ctx ends first.
func (c *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}
