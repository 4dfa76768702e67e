package telemetry

import (
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact text a small registry renders:
// family sort order, HELP/TYPE comments, label rendering and escaping,
// cumulative buckets with the implicit +Inf, and _sum/_count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b counter").Add(7)
	v := r.CounterVec("a_total", "a counter", "route", "status")
	v.Func(func() uint64 { return 3 }, "/estimate", "200")
	v.Func(func() uint64 { return 1 }, "/sweep", "400")
	r.Gauge("c_depth", "depth").Set(2.5)
	r.GaugeFunc("d_fn", "callback", func() float64 { return 9 })
	h := r.Histogram("e_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	r.CounterVec("f_total", `esc "quoted"\n`, "k").Func(func() uint64 { return 1 }, "va\"l\\ue\n")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total a counter
# TYPE a_total counter
a_total{route="/estimate",status="200"} 3
a_total{route="/sweep",status="400"} 1
# HELP b_total b counter
# TYPE b_total counter
b_total 7
# HELP c_depth depth
# TYPE c_depth gauge
c_depth 2.5
# HELP d_fn callback
# TYPE d_fn gauge
d_fn 9
# HELP e_seconds latency
# TYPE e_seconds histogram
e_seconds_bucket{le="0.1"} 1
e_seconds_bucket{le="1"} 2
e_seconds_bucket{le="+Inf"} 3
e_seconds_sum 3.55
e_seconds_count 3
# HELP f_total esc "quoted"\\n
# TYPE f_total counter
f_total{k="va\"l\\ue\n"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? (-?[0-9.e+-]+|[+-]Inf|NaN)$`)

// TestExpositionParses validates the format structurally on a larger
// registry: every non-comment line is a well-formed sample, every
// sample's family was declared by a TYPE line first, histogram buckets
// are cumulative, and the +Inf bucket equals _count.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("x_seconds", "x", []float64{0.01, 0.1, 1}, "route", "cache")
	for i := 0; i < 100; i++ {
		hv.With("/estimate", []string{"hit", "miss"}[i%2]).Observe(float64(i) / 50)
	}
	cv := r.CounterVec("y_total", "y", "shard")
	for i := 0; i < 4; i++ {
		cv.Func(func() uint64 { return uint64(i) }, strconv.Itoa(i))
	}
	r.Gauge("z", "z").Set(1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	type histKey struct{ name, labels string }
	lastBucket := map[histKey]uint64{}
	infBucket := map[histKey]uint64{}
	counts := map[histKey]uint64{}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
		name, rest, _ := strings.Cut(line, "{")
		if !strings.Contains(line, "{") {
			name = strings.Fields(line)[0]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && declared[cut] {
				base = cut
			}
		}
		if !declared[base] {
			t.Fatalf("sample %q has no TYPE declaration (base %q)", line, base)
		}
		if strings.HasSuffix(name, "_bucket") {
			labels, valStr, _ := strings.Cut(rest, "} ")
			v, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			// Strip the le pair so buckets of one series group together.
			le := regexp.MustCompile(`,?le="[^"]*"`).FindString(labels)
			key := histKey{base, strings.Replace(labels, le, "", 1)}
			if v < lastBucket[key] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastBucket[key] = v
			if strings.Contains(le, "+Inf") {
				infBucket[key] = v
			}
		}
		if strings.HasSuffix(name, "_count") && declared[base] && base != name {
			labels, valStr, _ := strings.Cut(rest, "} ")
			v, _ := strconv.ParseUint(valStr, 10, 64)
			counts[histKey{base, labels}] = v
		}
	}
	if len(infBucket) == 0 {
		t.Fatal("no +Inf buckets found")
	}
	for key, inf := range infBucket {
		if counts[key] != inf {
			t.Errorf("series %v: le=+Inf bucket %d != count %d", key, inf, counts[key])
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "up").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("body missing sample:\n%s", body)
	}
}

// TestFormatFloat pins the special values the exposition format defines.
func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{{2.5, "2.5"}, {1e-9, "1e-09"}} {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got := fmt.Sprint(formatFloat(1.0)); got != "1" {
		t.Errorf("formatFloat(1.0) = %q, want 1", got)
	}
}

// TestCounterCallbacks: CounterFunc and CounterVec.Func series render
// as counters, read their callback at every exposition, and print the
// count as an integer at any magnitude (a float rendering would turn
// 2^60 into 1.152921504606847e+18).
func TestCounterCallbacks(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 1 << 60
	r.CounterFunc("a_total", "a callback", func() uint64 { return n })
	v := r.CounterVec("b_total", "b callback", "node")
	v.Func(func() uint64 { return 3 }, "w1")
	v.Func(func() uint64 { return 0 }, "w0")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total a callback
# TYPE a_total counter
a_total 1152921504606846976
# HELP b_total b callback
# TYPE b_total counter
b_total{node="w0"} 0
b_total{node="w1"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	n++
	sb.Reset()
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "a_total 1152921504606846977\n") {
		t.Errorf("callback not re-read at exposition:\n%s", sb.String())
	}
}
