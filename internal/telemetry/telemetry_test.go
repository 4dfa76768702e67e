package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	buckets, sum, count := h.Snapshot()
	// Per-bucket (non-cumulative): (-inf,1]=2 {0.5, 1}, (1,2]=1 {1.5},
	// (2,5]=1 {3}, (5,+inf)=1 {100}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, buckets[i], w, buckets)
		}
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if math.Abs(sum-106) > 1e-9 {
		t.Errorf("sum = %v, want 106", sum)
	}
}

// TestVecChildrenAreStable: the same label values resolve to one shared
// series — HistogramVec handles record into it, and a second Func
// registration keeps the first callback — and other values get their own.
func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_seconds", "latency", []float64{1}, "route")
	a := hv.With("/estimate")
	b := hv.With("/estimate")
	a.Observe(0.5)
	b.Observe(0.5)
	if _, _, n := hv.With("/estimate").Snapshot(); n != 2 {
		t.Fatalf("shared child count = %d, want 2", n)
	}
	if _, _, n := hv.With("/sweep").Snapshot(); n != 0 {
		t.Fatalf("distinct child count = %d, want 0", n)
	}

	cv := r.CounterVec("hits_total", "hits", "route")
	cv.Func(func() uint64 { return 2 }, "/estimate")
	cv.Func(func() uint64 { return 5 }, "/estimate")
	cv.Func(func() uint64 { return 0 }, "/sweep")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if n := strings.Count(got, `hits_total{route="/estimate"}`); n != 1 {
		t.Fatalf("shared callback child exposed %d times, want 1:\n%s", n, got)
	}
	for _, want := range []string{"hits_total{route=\"/estimate\"} 2\n", "hits_total{route=\"/sweep\"} 0\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition lacks %q:\n%s", want, got)
		}
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registration did not return the existing family")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x") // same name, different kind
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

// TestConcurrentRegistry hammers every instrument type from many
// goroutines, creating labeled children concurrently while exposition
// runs, for the race detector.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	hv := r.HistogramVec("h_seconds", "", []float64{0.1, 1}, "route")
	cv := r.CounterVec("cv_total", "", "k")
	r.GaugeFunc("gf", "", func() float64 { return 42 })
	var cvCount atomic.Uint64

	const workers, iters = 8, 2000
	routes := []string{"/estimate", "/sweep"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				hv.With(routes[i%2]).Observe(float64(i%3) / 2)
				cvCount.Add(1)
				cv.Func(cvCount.Load, []string{"a", "b"}[i%2])
			}
		}(w)
	}
	// Concurrent exposition must not race with recording.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	for _, route := range routes {
		if _, _, count := hv.With(route).Snapshot(); count != workers*iters/2 {
			t.Errorf("histogram %s count = %d, want %d", route, count, workers*iters/2)
		}
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		want := fmt.Sprintf("cv_total{k=%q} %d\n", k, workers*iters)
		if n := strings.Count(sb.String(), want); n != 1 {
			t.Errorf("exposition has %q %d times, want once:\n%s", want, n, sb.String())
		}
	}
}

// TestConcurrentChildCreation creates many labeled series from several
// goroutines at once, each resolving every label: every copy-on-write
// insert must survive, so each series ends with every goroutine's
// observation and exposition lists it once.
func TestConcurrentChildCreation(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("h_seconds", "", []float64{1}, "route", "status")
	const workers, labels = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < labels; i++ {
				l := (i + w*labels/workers) % labels
				hv.With(fmt.Sprint("/r", l), "200").Observe(0.5)
			}
		}(w)
	}
	wg.Wait()
	for l := 0; l < labels; l++ {
		if _, _, count := hv.With(fmt.Sprint("/r", l), "200").Snapshot(); count != workers {
			t.Errorf("series /r%d count = %d, want %d", l, count, workers)
		}
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "h_seconds_count{"); n != labels {
		t.Errorf("exposition lists %d series, want %d", n, labels)
	}
}

// Resolving an existing labeled series, as the HTTP middleware does on
// every request, allocates nothing.
func TestHistogramVecWithAllocatesNothing(t *testing.T) {
	hv := NewRegistry().HistogramVec("h_seconds", "", nil, "route", "status", "cache")
	hv.With("/estimate", "200", "hit")
	if allocs := testing.AllocsPerRun(100, func() {
		hv.With("/estimate", "200", "hit").Observe(0.001)
	}); allocs != 0 {
		t.Errorf("With on an existing series allocates %v times, want 0", allocs)
	}
}
