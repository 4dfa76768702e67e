// Command ltbench is the repository's benchmark: it measures the Monte
// Carlo estimator, the ltsimd daemon and the persistent result store end
// to end, and layer by layer, on four workloads (see README.md).
//
// One pass runs one workload for -seconds and ends its output with a
// JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced re-run. Without -workload every workload
// runs, each in a child process of its own so that set-up time and
// memory belong to one workload; -runs N repeats each N times at seeds
// seed..seed+N-1 and prints every metric's median and quartiles.
//
//	ltbench -workload serve_hits -seed 1 -seconds 25 -trace 0
//	ltbench -seed 1 -trace 1      # all workloads, untraced then traced
//	ltbench -runs 5               # spread of every end-to-end metric
//	ltbench -calibrate            # recompute the pinned references
//
// Every answer is checked: statistical agreement with pinned references,
// byte-identical encodings across parallelism, cache tiers and restarts.
// A failed check or operation makes the pass exit non-zero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run in this process: "+strings.Join(workloadNames(), ", ")+"; empty runs each in a child process")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 25, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 re-runs the workload traced and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this JSON file")
	runs := flag.Int("runs", 0, "repeat each workload this many times and print medians and quartiles")
	cal := flag.Bool("calibrate", false, "recompute the pinned reference estimates and exit")
	flag.Parse()

	switch {
	case *cal:
		if err := calibrate(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", err)
			os.Exit(1)
		}
	case *trace != 0 && *trace != 1, *seconds <= 0, *runs < 0, flag.NArg() > 0:
		flag.Usage()
		os.Exit(2)
	case *workload != "" && *runs == 0:
		w, ok := lookup(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "ltbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		out, err := pass(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceOut, fullScale, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ltbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if !out.Correct || out.Failed > 0 {
			os.Exit(1)
		}
	default:
		names := workloadNames()
		if *workload != "" {
			names = []string{*workload}
		}
		os.Exit(orchestrate(names, *seed, *seconds, *trace == 1, *traceOut, *runs))
	}
}

// tracedPrefix marks the line on which a traced pass reports its own
// end-to-end figures, for the tracing-overhead ratio.
const tracedPrefix = "ltbench-traced-e2e "

// pass runs one workload in this process, prints its metrics and ends
// with the result line.
func pass(w workload, seed uint64, budget time.Duration, traced bool, traceOut string, sz scale, stdout io.Writer) (outcome, error) {
	r := &run{seed: seed, budget: budget, nproc: nproc(), sz: sz}
	if traced {
		r.tr = newTracer()
		r.log = &missLog{}
	}
	m, err := w.run(r)
	if err != nil {
		return outcome{}, err
	}
	metrics := e2e(r, m)
	var work, wall float64
	for _, x := range m.work {
		work, wall = work+x.work, wall+x.wall.Seconds()
	}
	fmt.Fprintf(stdout, "# %s: %d set-ups, %d throughput windows and %d answers in %v; %d reference samples, median %.4g ms\n",
		w.name, len(m.setup), len(m.work), len(m.cpu), budget, len(r.refs), median(durationsMS(r.refs)))
	fmt.Fprintf(stdout, "# %s: wall clock, not gated: %.6g work/s; answers median %.4g ms, p%g %.4g ms\n",
		w.name, work/wall, median(m.wallMS), 100*m.tailQ, quantile(m.wallMS, m.tailQ))
	units := e2eUnits
	if traced {
		b, err := json.Marshal(metrics)
		if err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(stdout, "%s%s\n", tracedPrefix, b)
		layers, err := probeLayers(r, m.in)
		if err != nil {
			return outcome{}, err
		}
		metrics = make(map[string]metric, len(layerUnits))
		for _, nu := range layerUnits {
			metrics[nu[0]] = metric{Value: finite(layers[nu[0]]), Unit: nu[1]}
		}
		units = layerUnits
		r.tr.printTable(stdout)
		if traceOut != "" {
			if err := r.tr.write(traceOut); err != nil {
				return outcome{}, err
			}
		}
	}
	for _, nu := range units {
		fmt.Fprintf(stdout, "%-12s %-26s %16.6g %s\n", w.name, nu[0], metrics[nu[0]].Value, nu[1])
	}
	r.mu.Lock()
	out := outcome{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "# check failed: %s\n", p)
	}
	r.mu.Unlock()
	line, err := json.Marshal(out)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return out, nil
}

// child runs one pass in a child process and returns its result line
// and, for a traced pass, its own end-to-end figures. echo copies the
// child's output to ours.
func child(exe, name string, seed uint64, seconds float64, traced bool, traceOut string, echo bool) (outcome, map[string]metric, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if echo {
		os.Stdout.Write(stdout)
	}
	var res outcome
	var tracedE2E map[string]metric
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, tracedPrefix); ok {
			if jerr := json.Unmarshal([]byte(rest), &tracedE2E); jerr != nil {
				return res, nil, fmt.Errorf("%s: traced figures: %w", name, jerr)
			}
		}
	}
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		return res, nil, fmt.Errorf("%s (seed %d): no result line (%v): %w", name, seed, err, jerr)
	}
	return res, tracedE2E, err
}

// runReport is the result line of a multi-pass run: each workload's
// end-to-end quartiles over its passes and, when traced, its per-layer
// metrics and tracing overhead. Saved as is, it is a baseline.
type runReport struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Machine   machine                    `json:"machine"`
	Seconds   float64                    `json:"seconds"`
	Seeds     []uint64                   `json:"seeds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type machine struct {
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
	Arch  string `json:"arch"`
	CPU   string `json:"cpu,omitempty"`
}

type workloadReport struct {
	EndToEnd map[string]spread  `json:"end_to_end"`
	PerLayer map[string]metric  `json:"per_layer,omitempty"`
	Overhead map[string]float64 `json:"trace_overhead,omitempty"`
}

// spread is one metric's quartiles over a workload's passes.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// orchestrate runs each named workload in child processes: runs
// untraced passes (one when runs is 0), then a traced pass if asked. It
// prints quartiles and the tracing overhead, and ends with the report.
func orchestrate(names []string, seed uint64, seconds float64, traced bool, traceOut string, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltbench:", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	status := 0
	n := max(runs, 1)
	rep := runReport{Correct: true, Machine: thisMachine(), Seconds: seconds,
		Seeds: []uint64{seed, seed + uint64(n) - 1}, Workloads: map[string]*workloadReport{}}
	for _, name := range names {
		wr := &workloadReport{EndToEnd: map[string]spread{}}
		rep.Workloads[name] = wr
		vals := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, _, err := child(exe, name, seed+uint64(i), seconds, false, "", runs == 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltbench:", err)
				status = 1
			}
			rep.Correct = rep.Correct && res.Correct
			rep.Attempted += res.Attempted
			rep.Failed += res.Failed
			for _, nu := range e2eUnits {
				if v, ok := res.Metrics[nu[0]]; ok {
					vals[nu[0]] = append(vals[nu[0]], v.Value)
				}
			}
		}
		if runs > 0 {
			fmt.Printf("# %s: %d runs, seeds %d..%d\n", name, runs, seed, seed+uint64(runs)-1)
			fmt.Printf("%-12s %-20s %14s %14s %14s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
		}
		for _, nu := range e2eUnits {
			xs := vals[nu[0]]
			if len(xs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			wr.EndToEnd[nu[0]] = spread{Q1: q1, Median: q2, Q3: q3, Unit: nu[1]}
			if runs > 0 {
				fmt.Printf("%-12s %-20s %14.6g %14.6g %14.6g %8.4f %8s\n", name, nu[0], q1, q2, q3, (q3-q1)/q2, bounds[nu[0]])
			}
		}
		if !traced {
			continue
		}
		out := ""
		if traceOut != "" {
			out = fmt.Sprintf("%s.%s.json", strings.TrimSuffix(traceOut, ".json"), name)
		}
		res, tracedE2E, err := child(exe, name, seed, seconds, true, out, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltbench:", err)
			status = 1
		}
		rep.Correct = rep.Correct && res.Correct
		wr.PerLayer, wr.Overhead = res.Metrics, map[string]float64{}
		for _, nu := range e2eUnits {
			untraced := median(vals[nu[0]])
			if t, ok := tracedE2E[nu[0]]; ok && untraced != 0 {
				wr.Overhead[nu[0]] = t.Value / untraced
				fmt.Printf("%-12s overhead %-20s %10.4f (traced %.6g / untraced %.6g %s)\n", name, nu[0], t.Value/untraced, t.Value, untraced, nu[1])
			}
		}
	}
	if !rep.Correct || rep.Failed > 0 {
		status = 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return status
}

// thisMachine describes where the numbers were measured.
func thisMachine() machine {
	m := machine{NProc: nproc(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// readBounds returns each end-to-end metric's regression bound from
// BENCHMARK.json in the current directory, formatted for the -runs
// table; empty when the file is absent.
func readBounds(path string) map[string]string {
	out := make(map[string]string)
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = strconv.FormatFloat(m.Bound, 'g', -1, 64)
		}
	}
	return out
}
