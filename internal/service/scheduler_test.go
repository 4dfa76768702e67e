package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsJobs(t *testing.T) {
	// Queue depth 32 per shard: all 20 jobs must fit even if one shard
	// gets every key.
	s := newScheduler(2, 32, time.Minute)
	defer s.Shutdown(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("job-%d", i)
			v, err := s.Submit(context.Background(), key, func(context.Context) ([]byte, error) {
				return []byte(key), nil
			})
			if err != nil || string(v) != key {
				t.Errorf("job %d = %q, %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Completed != 20 || st.Failed != 0 {
		t.Errorf("completed/failed = %d/%d, want 20/0", st.Completed, st.Failed)
	}
}

func TestSchedulerSingleFlight(t *testing.T) {
	s := newScheduler(1, 8, time.Minute)
	defer s.Shutdown(context.Background())
	var runs atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Submit(context.Background(), "same-key", func(context.Context) ([]byte, error) {
				runs.Add(1)
				<-release
				return []byte("result"), nil
			})
			if err != nil || string(v) != "result" {
				t.Errorf("got %q, %v", v, err)
			}
		}()
	}
	// Give every Submit a chance to land on the pending map before the
	// single execution finishes.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times for 10 duplicate submissions, want 1", got)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s := newScheduler(1, 1, time.Minute)
	defer s.Shutdown(context.Background())
	block := make(chan struct{})
	// Occupy the worker...
	go s.Submit(context.Background(), "running", func(context.Context) ([]byte, error) {
		<-block
		return nil, nil
	})
	// ...and the single queue slot.
	for {
		st := s.Stats()
		if st.Inflight == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go s.Submit(context.Background(), "queued", func(context.Context) ([]byte, error) { return nil, nil })
	for {
		if s.Stats().QueueDepth == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, err := s.Submit(context.Background(), "overflow", func(context.Context) ([]byte, error) { return nil, nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit = %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestSchedulerJobTimeout(t *testing.T) {
	s := newScheduler(1, 4, 20*time.Millisecond)
	defer s.Shutdown(context.Background())
	_, err := s.Submit(context.Background(), "slow", func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("slow job = %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
}

// A panicking job fails alone: its caller gets an error the HTTP layer
// answers with 500, the panic is counted and its stack logged at error
// level, and the shard's worker goes on to run the next job.
func TestSchedulerJobPanic(t *testing.T) {
	s := newScheduler(1, 4, time.Minute)
	defer s.Shutdown(context.Background())
	var log bytes.Buffer
	s.logger = slog.New(slog.NewTextHandler(&log, nil))
	_, err := s.Submit(context.Background(), "boom", func(context.Context) ([]byte, error) {
		panic("injected")
	})
	if !errors.Is(err, errJobPanicked) {
		t.Fatalf("panicking job = %v, want errJobPanicked", err)
	}
	if got := submitStatus(context.Background(), err); got != http.StatusInternalServerError {
		t.Errorf("panicking job answers %d, want 500", got)
	}
	if st := s.Stats(); st.Panicked != 1 || st.Failed != 1 {
		t.Errorf("panicked/failed = %d/%d, want 1/1", st.Panicked, st.Failed)
	}
	if out := log.String(); !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "injected") ||
		!strings.Contains(out, "TestSchedulerJobPanic") {
		t.Errorf("panic log lacks an error record with the value and stack: %q", out)
	}
	v, err := s.Submit(context.Background(), "next", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("job after the panic = %q, %v", v, err)
	}
	if st := s.Stats(); st.Completed != 1 || st.Panicked != 1 {
		t.Errorf("completed/panicked = %d/%d after the next job, want 1/1", st.Completed, st.Panicked)
	}
}

func TestSchedulerWaiterCancellation(t *testing.T) {
	s := newScheduler(1, 4, time.Minute)
	defer s.Shutdown(context.Background())
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, "k", func(context.Context) ([]byte, error) {
			<-release
			return []byte("late"), nil
		})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned wait = %v, want Canceled", err)
	}
	// The job itself still completes and publishes.
	close(release)
	v, err := s.Submit(context.Background(), "k2", func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("scheduler unusable after abandoned wait: %q, %v", v, err)
	}
}

func TestSchedulerGracefulShutdownDrains(t *testing.T) {
	s := newScheduler(2, 16, time.Minute)
	var completed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), fmt.Sprintf("drain-%d", i), func(ctx context.Context) ([]byte, error) {
				select {
				case <-time.After(5 * time.Millisecond):
					completed.Add(1)
					return []byte("done"), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}(i)
	}
	// Let the jobs enqueue, then drain with a generous budget: every
	// queued job must complete, none may be aborted.
	time.Sleep(10 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if got := completed.Load(); got != 12 {
		t.Errorf("%d jobs completed, want all 12", got)
	}
	if _, err := s.Submit(context.Background(), "late", nil); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit = %v, want ErrShuttingDown", err)
	}
}

func TestSchedulerHardShutdownAborts(t *testing.T) {
	s := newScheduler(1, 4, time.Minute)
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "stuck", func(ctx context.Context) ([]byte, error) {
			close(started)
			<-ctx.Done() // simulates EstimateStream noticing cancellation
			return nil, ctx.Err()
		})
		done <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded after drain budget", err)
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("stuck job = %v, want Canceled by hard shutdown", err)
	}
}
