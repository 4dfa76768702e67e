// Package telemetry is the observability substrate for the simulation
// stack: a stdlib-only, allocation-light metrics registry (atomic
// counters, gauges, and fixed-bucket histograms, with bounded label
// sets), Prometheus text-format exposition, and per-request tracing
// (request IDs plus span timelines emitted as structured log/slog
// records).
//
// The design optimizes for the recording path: handles resolved once
// (Registry.Counter, HistogramVec.With, ...) record with atomic
// operations and zero allocations, so instruments can sit on hot paths —
// the simulator records only at batch boundaries, and even the HTTP
// middleware's per-request cost is a handful of atomics. Labeled
// counters and gauges are callbacks (CounterVec.Func, GaugeVec.Func)
// over counts a component already keeps, read at exposition. Registration
// is idempotent: re-registering the same name with the same shape
// returns the existing family, so independently initialized subsystems
// can share a registry safely.
//
// Exposition (Registry.WritePrometheus, Registry.Handler) renders the
// standard Prometheus text format: families sorted by name, HELP/TYPE
// comments, cumulative histogram buckets with the implicit "+Inf", and
// _sum/_count series.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String renders the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DurationBuckets is the default latency histogram layout, in seconds:
// wide enough for sub-millisecond cache hits and minute-long
// simulations alike.
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// WidthBuckets is the default layout for relative-width observations
// (adaptive stopping trajectories): dimensionless ratios in (0, 1+].
var WidthBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and one child
// series per label-value combination.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, +Inf implicit

	mu       sync.RWMutex
	children map[string]*child
}

// child is one series: the atomic storage behind a Counter, Gauge, or
// Histogram handle.
type child struct {
	labelValues []string

	// bits holds the counter count, or the gauge value's float64 bits.
	bits atomic.Uint64
	// read, when non-nil, makes this a callback series: exposition
	// calls it for the value in the same encoding as bits.
	read func() uint64

	// Histogram state: one count per bucket plus the overflow bucket,
	// and the running sum/count. bucketsRef aliases the family's bounds
	// so Observe never chases the family pointer.
	bucketCounts []atomic.Uint64
	bucketsRef   []float64
	sumBits      atomic.Uint64
	count        atomic.Uint64
}

// Counter is a monotonically increasing series handle.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.c.bits.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.c.bits.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.c.bits.Load() }

// Gauge is a series handle whose value can move both ways.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// Histogram is a fixed-bucket distribution handle.
type Histogram struct{ c *child }

// Observe records v into its bucket and the running sum.
func (h *Histogram) Observe(v float64) {
	c := h.c
	// Linear scan: bucket layouts are small (≤ ~20) and the scan is
	// branch-predictable, so this beats binary search at these sizes.
	i := 0
	for ; i < len(c.bucketsRef); i++ {
		if v <= c.bucketsRef[i] {
			break
		}
	}
	c.bucketCounts[i].Add(1)
	c.count.Add(1)
	for {
		old := c.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the per-bucket counts (overflow last), the sum, and
// the total count — a consistent-enough view for tests and debugging
// (buckets are read one by one, so a concurrent Observe may appear in
// count but not yet in a bucket).
func (h *Histogram) Snapshot() (buckets []uint64, sum float64, count uint64) {
	buckets = make([]uint64, len(h.c.bucketCounts))
	for i := range h.c.bucketCounts {
		buckets[i] = h.c.bucketCounts[i].Load()
	}
	return buckets, math.Float64frombits(h.c.sumBits.Load()), h.c.count.Load()
}

// load returns the series value in bits' encoding, from the callback
// when the series has one.
func (c *child) load() uint64 {
	if c.read != nil {
		return c.read()
	}
	return c.bits.Load()
}

// register finds or creates the family, enforcing shape consistency.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return f
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DurationBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets are not sorted", name))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childFor finds or creates the series for the given label values.
func (f *family) childFor(values []string, read func() uint64) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...), read: read}
	if f.kind == KindHistogram {
		c.bucketCounts = make([]atomic.Uint64, len(f.buckets)+1)
		c.bucketsRef = f.buckets
	}
	f.children[key] = c
	return c
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return &Counter{f.childFor(nil, nil)}
}

// CounterFunc registers a callback counter: fn is read at exposition,
// so a component that already keeps its own count exposes it without a
// second copy. fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, KindCounter, nil, nil)
	f.childFor(nil, fn)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return &Gauge{f.childFor(nil, nil)}
}

// GaugeFunc registers a callback gauge: fn is evaluated at exposition.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.childFor(nil, gaugeBits(fn))
}

// gaugeBits adapts a gauge callback to the float64-bits encoding.
func gaugeBits(fn func() float64) func() uint64 {
	return func() uint64 { return math.Float64bits(fn()) }
}

// Histogram registers (or finds) an unlabeled histogram. A nil bucket
// layout defaults to DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil, buckets)
	return &Histogram{f.childFor(nil, nil)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// Func registers a callback series under the label values: fn is read
// at exposition and must never decrease (e.g. a per-node count the
// component keeps itself). Registering the same label values again
// keeps the first callback.
func (v *CounterVec) Func(fn func() uint64, values ...string) {
	v.f.childFor(values, fn)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// Func registers a callback series under the label values: fn is
// evaluated at exposition time (e.g. a queue-depth probe per shard).
// Registering the same label values again keeps the first callback.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.f.childFor(values, gaugeBits(fn))
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family. A nil
// bucket layout defaults to DurationBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels, buckets)}
}

// With resolves (creating if needed) the series for the label values.
// Resolve once and keep the handle on hot paths.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{v.f.childFor(values, nil)}
}

// mustValidName enforces the Prometheus name charset.
func mustValidName(s string) {
	if s == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", s))
		}
	}
}

// equalStrings reports element-wise equality.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
