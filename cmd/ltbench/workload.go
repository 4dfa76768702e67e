package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/scenario"
)

// End-to-end metric names. Every workload reports all four; what a
// unit of work and an answer are differs per workload (README.md).
// Times are CPU time of the whole process at the reference speed (see
// measured).
const (
	mSetup      = "setup_s"
	mRSS        = "rss_mb"
	mThroughput = "work_per_cpu_s"
	mAnswerCPU  = "cpu_ms_per_answer"
)

// e2eUnits lists the end-to-end metrics in report order with their units.
var e2eUnits = [][2]string{
	{mSetup, "s"}, {mRSS, "MB"}, {mThroughput, "1/s"}, {mAnswerCPU, "ms"},
}

// scale sizes a pass. fullScale is what the benchmark measures; the
// smoke test runs the same code paths at a tiny scale.
type scale struct {
	setups      int           // set-ups per pass; setup_s is their median
	roundOps    int           // Estimates per library round
	lossTrials  int           // trials per loss_mirror Estimate
	rareTarget  float64       // rare_target's relative half-width target
	serveSeq    int           // requests one serve_hits caller answers per round
	serveClosed time.Duration // closed-loop part of a serve_hits round
	sweepTrials int           // trials per sweep_store point
	warmSweeps  int           // memory-warm sweeps after each cold sweep
	burstRate   float64       // open-loop rate of the traced pass's service probe
	burst       time.Duration // length of that open loop
	microOps    int           // operations per micro-benchmark repetition
	simWall     time.Duration // least wall time the sim probe times each way
}

// fullScale keeps rounds short, from milliseconds to a second, so that a
// pass holds many of them.
var fullScale = scale{
	setups:      7,
	roundOps:    20,
	lossTrials:  1024,
	rareTarget:  0.02,
	serveSeq:    200,
	serveClosed: 100 * time.Millisecond,
	sweepTrials: 1000,
	warmSweeps:  40,
	burstRate:   1000,
	burst:       time.Second,
	microOps:    1 << 18,
	simWall:     200 * time.Millisecond,
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(r *run) (measured, error)
}

var workloads = []workload{
	{"loss_mirror", lossMirror},
	{"rare_target", rareTarget},
	{"serve_hits", serveHits},
	{"sweep_store", sweepStore},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// measured is what a workload's timed phase observed. A pass repeats a
// short round of identical work until its budget is spent, and records
// each round's work as a window and each answer's time.
//
// Gated times are CPU time of the whole process, every thread
// included, scaled to the reference speed (see refWork); not wall-clock
// time. On the shared 2-vCPU host this was built on, the hypervisor
// takes the vCPUs away for minutes at a time without the guest seeing it
// as steal, so wall-clock medians of one pass differ by up to 2x from the
// next. CPU time is immune to that but not to the neighbours sharing the
// physical cores: the same work cost 35% more CPU time in one minute
// than a few minutes later. Scaled by a reference job timed in between,
// the gated figures spread 1–7% (Q3−Q1 over the median) over ten
// passes. Wall-clock figures are printed but not gated.
type measured struct {
	setup  []float64 // scaled CPU seconds, one per set-up
	work   []window  // throughput windows, one or more per round
	cpu    []sample  // CPU time per answer
	wallMS []float64 // wall-clock ms per answer, +Inf for a failed one
	tailQ  float64   // the tail quantile printed over all answers
	in     inputs    // what the per-layer probes run on
}

// sample is a CPU time and the reference sample it is scaled by: the
// first one taken after it.
type sample struct {
	cpu time.Duration // negative for a failed answer
	ref int
}

// answered records the times one answer took; a failed one took forever.
func (r *run) answered(m *measured, wall, cpu time.Duration, ok bool) {
	if !ok {
		m.cpu, m.wallMS = append(m.cpu, sample{cpu: -1, ref: len(r.refs)}), append(m.wallMS, math.Inf(1))
		return
	}
	m.cpu, m.wallMS = append(m.cpu, sample{cpu: cpu, ref: len(r.refs)}), append(m.wallMS, ms(wall))
}

// window is work done over a stretch of time.
type window struct {
	work      float64
	wall, cpu time.Duration
	ref       int // the reference sample it is scaled by
}

// worked records a throughput window.
func (r *run) worked(m *measured, work float64, wall, cpu time.Duration) {
	m.work = append(m.work, window{work: work, wall: wall, cpu: cpu, ref: len(r.refs)})
}

// stopwatch times an interval in wall-clock and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuNow()} }

// lap returns the wall-clock and CPU time since the watch started.
func (s stopwatch) lap() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// Linux clock IDs for clock_gettime(2).
const (
	clockProcessCPUTime = 2 // every thread of the process
	clockThreadCPUTime  = 3 // the calling thread
)

// cpuNow returns the CPU time every thread of the process has used, to
// the nanosecond (getrusage(2) rounds to microseconds, coarser than a
// cache hit).
func cpuNow() time.Duration { return clockNow(clockProcessCPUTime) }

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // cannot fail for these clocks
	}
	return time.Duration(ts.Nano())
}

// Reference speed. Between stretches of measured work a pass times
// refWork, a fixed job made only of this file and the standard library,
// so that no change to the program moves it. Its CPU time tells how fast
// the host ran just then. Each measured CPU time is scaled by refNominal
// over the median of the refSmooth reference samples around the first
// one taken after it: the CPU time the work would have cost with the
// reference taking refNominal.
const (
	refIters   = 1000                  // records per refWork
	refNominal = 8 * time.Millisecond  // refWork's CPU time at the reference speed
	refEvery   = 40 * time.Millisecond // measured CPU time between reference samples
	refSmooth  = 5                     // reference samples behind each scale factor
)

// refRecord is refWork's record, a small JSON object like the daemon's
// requests.
type refRecord struct {
	Name   string         `json:"name"`
	Values []float64      `json:"values"`
	Seed   uint64         `json:"seed"`
	Counts map[string]int `json:"counts"`
}

// refWork encodes, decodes and hashes refIters records: allocation,
// branching on bytes and integer arithmetic, the mix of the daemon's and
// the simulator's hot paths. Of the candidates tried (a xorshift loop, a
// heap-based event simulation, an allocation-free JSON formatter and
// hasher, this), its CPU time followed the workloads' through the host's
// slow and fast minutes most closely. Its share of garbage collection
// work per byte it allocates is set by GOGC, not by the size of the
// program's heap.
func refWork() {
	v := refRecord{Name: "reference", Values: []float64{1, 2.5, 3.25, 1e-3, 42},
		Counts: map[string]int{"a": 1, "b": 2, "c": 3}}
	for i := 0; i < refIters; i++ {
		v.Seed = uint64(i)
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // the record always encodes
		}
		var w refRecord
		if err := json.Unmarshal(b, &w); err != nil || w.Seed != v.Seed {
			panic(fmt.Sprintf("reference record did not round-trip: %v", err))
		}
		sum := sha256.Sum256(b)
		sink += float64(sum[0])
	}
}

// sampleRef times refWork once, on its own thread's CPU clock, so that
// garbage collection of the measured work's heap running on other
// threads meanwhile is not charged to it.
func (r *run) sampleRef() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := clockNow(clockThreadCPUTime)
	refWork()
	r.refs = append(r.refs, clockNow(clockThreadCPUTime)-start)
	r.refMark = cpuNow()
}

// paced takes a reference sample once refEvery of CPU time has passed
// since the last one.
func (r *run) paced() {
	if cpuNow()-r.refMark >= refEvery {
		r.sampleRef()
	}
}

// scaled returns s's CPU time in seconds at the reference speed, +Inf
// for a failed answer.
func (r *run) scaled(s sample) float64 {
	if s.cpu < 0 {
		return math.Inf(1)
	}
	lo := max(0, min(s.ref-refSmooth/2, len(r.refs)-refSmooth))
	ref := median(durationsMS(r.refs[lo:min(lo+refSmooth, len(r.refs))]))
	return s.cpu.Seconds() * ms(refNominal) / ref
}

// inputs are a workload's generated inputs as the program receives
// them: a scenario document and the requests it expands to.
type inputs struct {
	doc  []byte
	reqs []scenario.EstimateRequest
}

// run is one pass of one workload.
type run struct {
	seed   uint64
	budget time.Duration
	nproc  int
	sz     scale
	tr     *tracer  // nil on the untraced pass
	log    *missLog // daemon request log; nil on the untraced pass

	mu                sync.Mutex
	attempted, failed int
	problems          []string
	// Observations the traced pass turns into per-layer metrics: open-loop
	// send lag (ms), and cache outcomes of timed /estimate requests.
	lags       []float64
	hits, sent atomic.Int64
	rss        []float64 // resident-set samples (MB) taken during the rounds

	// Reference samples (see refWork). Only the goroutine running the
	// workload takes them.
	refs    []time.Duration
	refMark time.Duration // process CPU time at the end of the last one
}

// seedBase maps the pass seed onto the block of request seeds the
// workload's documents use: 4096 per pass seed, kept below 2^53 so
// seed values survive JSON numbers exactly.
func (r *run) seedBase() uint64 { return (r.seed % (1 << 40)) << 12 }

// op tallies one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.addProblemLocked("operation failed: " + err.Error())
	}
	return err == nil
}

// check records a failed correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.mu.Lock()
		r.addProblemLocked(fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
}

func (r *run) addProblemLocked(p string) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, p)
	} else if len(r.problems) == keep {
		r.problems = append(r.problems, "... further problems omitted")
	}
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line every pass ends with.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2e turns a workload's observations into the end-to-end metrics:
// medians over set-ups, RSS samples, windows and answers.
func e2e(r *run, m measured) map[string]metric {
	var rates, answers []float64
	for _, w := range m.work {
		if w.cpu > 0 {
			rates = append(rates, w.work/r.scaled(sample{cpu: w.cpu, ref: w.ref}))
		}
	}
	for _, s := range m.cpu {
		answers = append(answers, 1e3*r.scaled(s))
	}
	vals := map[string]float64{mSetup: median(m.setup), mRSS: median(r.rss),
		mThroughput: median(rates), mAnswerCPU: median(answers)}
	out := make(map[string]metric, len(e2eUnits))
	for _, nu := range e2eUnits {
		out[nu[0]] = metric{Value: finite(vals[nu[0]]), Unit: nu[1]}
	}
	return out
}

// failedLatency is how a failed answer's infinite latency is written:
// JSON has no infinity, and a failed pass is refused on `correct` anyway.
const failedLatency = 1e12

func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return failedLatency
	}
	return v
}

// rssMB reads the process's resident set size.
func rssMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmRSS line in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so -runs reports the same spread the bound check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timeSetups runs fn n times and returns each run's CPU time in seconds
// at the reference speed. Each starts after a full collection, so that
// no set-up pays for the garbage of the one before, and is followed by a
// reference sample.
func (r *run) timeSetups(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		sw := startWatch()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		_, cpu := sw.lap()
		s := sample{cpu: cpu, ref: len(r.refs)}
		r.sampleRef()
		out = append(out, r.scaled(s))
	}
	return out, nil
}

// repeat runs round i = 0, 1, ... until the budget is spent, at least
// once, sampling the resident set every rssEvery meanwhile. It ends
// with a reference sample, which scales the work recorded after the
// last paced one.
func (r *run) repeat(round func(i int) error) error {
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				sampled <- err
				return
			}
			r.rss = append(r.rss, mb)
			select {
			case <-tick.C:
			case <-stop:
				sampled <- nil
				return
			}
		}
	}()
	deadline := time.Now().Add(r.budget)
	var err error
	for i := 0; err == nil && (i == 0 || time.Now().Before(deadline)); i++ {
		err = round(i)
	}
	r.sampleRef()
	close(stop)
	return errors.Join(err, <-sampled)
}

// rssEvery is the resident-set sampling interval. Peak RSS is no
// steadier than the garbage collector's timing, which in an allocating
// workload varies it by a third between passes; the median of samples
// varies by a few percent.
const rssEvery = 50 * time.Millisecond

// expandDoc parses and expands a scenario document.
func expandDoc(doc []byte) ([]scenario.EstimateRequest, error) {
	d, err := scenario.Parse(doc)
	if err != nil {
		return nil, err
	}
	pts, err := scenario.Expand(d)
	if err != nil {
		return nil, err
	}
	reqs := make([]scenario.EstimateRequest, len(pts))
	for i, p := range pts {
		reqs[i] = p.Request
	}
	return reqs, nil
}

func nproc() int { return runtime.GOMAXPROCS(0) }
