package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload and probe through the same code paths
// as fullScale in a fraction of the time.
var tinyScale = scale{
	setups:      2,
	roundOps:    3,
	lossTrials:  256,
	rareTarget:  0.05,
	serveSeq:    50,
	serveClosed: 10 * time.Millisecond,
	sweepTrials: 20,
	warmSweeps:  2,
	burstRate:   500,
	burst:       50 * time.Millisecond,
	microOps:    1 << 12,
	simWall:     time.Millisecond,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSpecMatchesProgram checks that BENCHMARK.json names exactly the
// workloads and metrics the program reports, with the same units.
func TestSpecMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	same := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, program reports %d", len(got), kind, len(want))
			return
		}
		for i, nu := range want {
			if got[i].Name != nu[0] || got[i].Unit != nu[1] {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, nu[0], nu[1])
			}
		}
	}
	same("end-to-end", s.EndToEnd, e2eUnits)
	same("per-layer", s.PerLayer, layerUnits)
}

// TestSmoke runs each workload traced at tiny scale and checks that the
// checks pass, every metric is printed with a well-formed name, and the
// span file parses.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traceFile := filepath.Join(t.TempDir(), "trace.json")
			var out bytes.Buffer
			res, err := pass(w, 7, 100*time.Millisecond, true, traceFile, tinyScale, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("pass: correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			checkMetrics(t, res.Metrics, layerUnits)

			var last, traced string
			sc := bufio.NewScanner(&out)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				last = sc.Text()
				if rest, ok := strings.CutPrefix(last, tracedPrefix); ok {
					traced = rest
				}
			}
			var line outcome
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, last)
			}
			var e2eMetrics map[string]metric
			if err := json.Unmarshal([]byte(traced), &e2eMetrics); err != nil {
				t.Fatalf("traced end-to-end line: %v", err)
			}
			checkMetrics(t, e2eMetrics, e2eUnits)

			data, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(spans.Spans) == 0 {
				t.Fatal("trace file holds no spans")
			}
			for _, s := range spans.Spans {
				if s.EndNS < s.StartNS || !metricName.MatchString(s.Name) {
					t.Errorf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestUntracedPass checks the result line of a plain pass.
func TestUntracedPass(t *testing.T) {
	w, _ := lookup("loss_mirror")
	var out bytes.Buffer
	res, err := pass(w, 3, 50*time.Millisecond, false, "", tinyScale, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("pass failed:\n%s", out.String())
	}
	checkMetrics(t, res.Metrics, e2eUnits)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || len(line.Metrics) != len(e2eUnits) {
		t.Fatalf("last line %q is not the result (%v)", lines[len(lines)-1], err)
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want [][2]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, nu := range want {
		m, ok := got[nu[0]]
		switch {
		case !ok:
			t.Errorf("metric %s missing", nu[0])
		case m.Unit != nu[1]:
			t.Errorf("metric %s in %s, want %s", nu[0], m.Unit, nu[1])
		case !metricName.MatchString(nu[0]):
			t.Errorf("malformed metric name %q", nu[0])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
