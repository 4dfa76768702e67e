package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

// daemon is ltsimd in process: service.New with the default Config (its
// shard count and per-job parallelism follow GOMAXPROCS) over a
// store.DiskStore. The workloads call its handler directly; the traced
// pass's service probe also serves it on a loopback listener.
//
// The workloads skip the socket because, on the shared host this
// benchmark was built on, loopback timings spread 16–25% between passes
// (every request wakes a halted vCPU) while in-process ones spread 4–9%;
// the socket's cost is the per-layer service.net_us.
type daemon struct {
	svc  *service.Service
	h    http.Handler
	srv  *http.Server // nil unless listening
	url  string
	done chan error
}

// openDaemon opens the store in dir and starts the service; listen also
// serves it on loopback. A non-nil log receives the daemon's request log.
func openDaemon(dir string, log *missLog, listen bool) (*daemon, error) {
	st, err := store.OpenDisk(dir, 0)
	if err != nil {
		return nil, err
	}
	cfg := service.Config{Store: st}
	if log != nil {
		cfg.Logger = slog.New(log)
	}
	svc := service.New(cfg)
	d := &daemon{svc: svc, h: svc.Handler()}
	if !listen {
		return d, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	d.srv, d.url, d.done = &http.Server{Handler: d.h}, "http://"+ln.Addr().String(), make(chan error, 1)
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener and waits for in-flight requests and the
// serve loop, then drains the service and closes its store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var err error
	if d.srv != nil {
		err = d.srv.Shutdown(ctx)
		if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if serr := d.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// tempDaemon opens a daemon over a fresh store directory.
func (r *run) tempDaemon(listen bool) (*daemon, string, error) {
	dir, err := os.MkdirTemp("", "ltbench-store-")
	if err != nil {
		return nil, "", err
	}
	d, err := openDaemon(dir, r.log, listen)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return d, dir, nil
}

// stopAll stops each daemon and removes its store directory.
func stopAll(ds []*daemon, dirs []string) error {
	var err error
	for i, d := range ds {
		if serr := d.stop(); err == nil {
			err = serr
		}
		if rerr := os.RemoveAll(dirs[i]); err == nil {
			err = rerr
		}
	}
	return err
}

// reply is one HTTP exchange: status, X-Ltsimd-Cache and body.
type reply struct {
	status int
	cache  string
	body   []byte
}

// sender POSTs one body to a fixed route; a non-200 status is an error.
type sender func(body []byte) (reply, error)

// call sends to path through the daemon's handler, without a socket.
func (d *daemon) call(path string) sender {
	return func(body []byte) (reply, error) {
		rec := httptest.NewRecorder()
		d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return checkStatus(path, reply{status: rec.Code, cache: rec.Header().Get("X-Ltsimd-Cache"), body: rec.Body.Bytes()})
	}
}

// over sends to path over the daemon's loopback listener.
func (d *daemon) over(hc *http.Client, path string) sender {
	url := d.url + path
	return func(body []byte) (reply, error) {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return reply{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return reply{}, err
		}
		return checkStatus(path, reply{status: resp.StatusCode, cache: resp.Header.Get("X-Ltsimd-Cache"), body: b})
	}
}

func checkStatus(path string, rp reply) (reply, error) {
	if rp.status != http.StatusOK {
		return rp, fmt.Errorf("POST %s: status %d: %s", path, rp.status, bytes.TrimSpace(rp.body))
	}
	return rp, nil
}

// newClient is the load generator's HTTP client: at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}
}

// forEach calls fn(i) for i in [0, n) from workers goroutines.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sendAll sends every body once from nproc callers and returns the
// replies, tallying each as an operation.
func (r *run) sendAll(send sender, bodies [][]byte, parent int64) []reply {
	out := make([]reply, len(bodies))
	forEach(len(bodies), r.nproc, func(i int) {
		sp := r.tr.start("http.estimate", parent)
		rp, err := send(bodies[i])
		sp.end()
		r.op(err)
		out[i] = rp
	})
	return out
}

// served counts a timed /estimate answer for service.hit_ratio.
func (r *run) served(rp reply) {
	r.sent.Add(1)
	if rp.cache == "hit" || rp.cache == "disk" {
		r.hits.Add(1)
	}
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due time.Duration // offset from the phase start
	key int           // index into the phase's request bodies
}

// poissonPlan draws Poisson arrivals at rate per second for dur; pick
// chooses each arrival's request.
func poissonPlan(rnd *rand.Rand, rate float64, dur time.Duration, pick func() int) []arrival {
	var plan []arrival
	for t := rnd.ExpFloat64() / rate; t < dur.Seconds(); t += rnd.ExpFloat64() / rate {
		plan = append(plan, arrival{due: time.Duration(t * 1e9), key: pick()})
	}
	return plan
}

// openLoop sends plan's requests at their due times from conns callers,
// calling done for each reply, and returns each request's latency in
// ms. Latency is timed from the due time, so a stall also charges the
// requests queued behind it; a failed request counts as +Inf. Send lag
// accumulates on r.
func (r *run) openLoop(send sender, bodies [][]byte, plan []arrival, conns int, parent int64, done func(key int, rp reply)) []float64 {
	lat := make([]float64, len(plan))
	lag := make([]float64, len(plan))
	ch := make(chan int, len(plan)) // one slot per send: the dispatcher never waits for a caller
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				due := start.Add(plan[i].due)
				sent := time.Now()
				rp, err := send(bodies[plan[i].key])
				end := time.Now()
				r.tr.record(0, "http.estimate", parent, sent, end)
				lag[i] = ms(sent.Sub(due))
				lat[i] = ms(end.Sub(due))
				if !r.op(err) {
					lat[i] = math.Inf(1)
					continue
				}
				r.served(rp)
				done(plan[i].key, rp)
			}
		}()
	}
	for i, a := range plan {
		if d := time.Until(start.Add(a.due)); d > 0 {
			sleepPrecise(d)
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	r.mu.Lock()
	r.lags = append(r.lags, lag...)
	r.mu.Unlock()
	return lat
}

// sleepPrecise blocks the calling thread in nanosleep(2). The runtime's
// own timers round waits under a millisecond up to one on an idle
// process, which at thousands of requests per second would make the
// generator, not the daemon, set the latency.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop runs conns callers for dur, each sending its next request
// when the previous reply arrives; next(w) is caller w's key chooser.
// It returns the completed requests. Its requests get no spans of their
// own: at tens of thousands a second they would swamp the trace, and the
// caller's phase span stands for them.
func (r *run) closedLoop(send sender, bodies [][]byte, conns int, dur time.Duration, next func(w int) func() int, done func(key int, rp reply)) int {
	var completed atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := 0; w < conns; w++ {
		pick := next(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := pick()
				rp, err := send(bodies[k])
				if r.op(err) {
					completed.Add(1)
					r.served(rp)
					done(k, rp)
				}
			}
		}()
	}
	wg.Wait()
	return int(completed.Load())
}

// marshalAll encodes each request as its wire body.
func marshalAll(reqs []scenario.EstimateRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// serveDoc is serve_hits' keyset: 256 distinct queries over the paper's
// drive means, replicas × audits per year × correlation α × seed, 200
// trials over 50 years each.
func serveDoc(seedBase uint64) ([]byte, error) {
	seeds := make([]float64, 8)
	for i := range seeds {
		seeds[i] = float64(seedBase + uint64(i))
	}
	return json.Marshal(scenario.Document{V: 1, Name: "serve_hits",
		Base: scenario.EstimateRequest{Trials: 200, HorizonYears: 50},
		Grid: []scenario.Axis{
			{Param: "replicas", Values: []float64{2, 3}},
			{Param: "scrubs_per_year", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "seed", Values: seeds},
		}})
}

const (
	zipfS         = 1.1  // key popularity skew
	freshFraction = 0.01 // requests for a never-seen key
)

func serveHits(r *run) (measured, error) {
	sb := r.seedBase()
	doc, err := serveDoc(sb)
	if err != nil {
		return measured{}, err
	}
	reqs, err := expandDoc(doc)
	if err != nil {
		return measured{}, err
	}
	bodies, err := marshalAll(reqs)
	if err != nil {
		return measured{}, err
	}

	// Set-up: open the store, start the daemon and pre-warm the keyset
	// with one cold request per key. Each set-up gets a fresh store; the
	// last one serves the timed rounds.
	var ds []*daemon
	var dirs []string
	var cold [][]byte
	setup, err := r.timeSetups(r.sz.setups, func() error {
		sp := r.tr.start("setup", 0)
		defer sp.end()
		d, dir, err := r.tempDaemon(false)
		if err != nil {
			return err
		}
		ds, dirs = append(ds, d), append(dirs, dir)
		got := r.sendAll(d.call("/estimate"), bodies, sp.ID())
		for i, rp := range got {
			r.check(rp.cache == "miss", "serve_hits: pre-warm of key %d answered %q, want miss", i, rp.cache)
			if cold != nil {
				r.check(bytes.Equal(rp.body, cold[i]), "serve_hits: set-ups disagree on key %d", i)
			}
		}
		if cold == nil {
			cold = make([][]byte, len(got))
			for i, rp := range got {
				cold[i] = rp.body
			}
		}
		return nil
	})
	if err != nil {
		return measured{}, errors.Join(err, stopAll(ds, dirs))
	}
	if err := stopAll(ds[:len(ds)-1], dirs[:len(dirs)-1]); err != nil {
		return measured{}, err
	}
	d, dir := ds[len(ds)-1], dirs[len(dirs)-1]
	defer func() { os.RemoveAll(dir) }()
	send := d.call("/estimate")

	// A round: one caller answers a fixed sequence of requests, timing
	// each — Zipf-popular keys, and 1% fresh keys that each miss and run
	// the scheduler, the simulator, the encoder and a store write — then
	// nproc callers drive the keyset closed-loop for saturation. Fresh
	// keys are renewed every round; everything else repeats.
	rnd := rand.New(rand.NewPCG(r.seed, 0x5e7e))
	zipf := rand.NewZipf(rnd, zipfS, 1, uint64(len(reqs)-1))
	rank := rnd.Perm(len(reqs))
	var freshBase []int // the keyset request each fresh slot re-seeds
	seq := make([]int, r.sz.serveSeq)
	for i := range seq {
		if rnd.Float64() >= freshFraction {
			seq[i] = rank[zipf.Uint64()]
			continue
		}
		freshBase = append(freshBase, rnd.IntN(len(reqs)))
		seq[i] = len(reqs) + len(freshBase) - 1
	}
	var freshMu sync.Mutex
	fresh := make(map[string][]byte) // fresh request body → its miss answer
	m := measured{setup: setup, tailQ: 0.99, in: inputs{doc: doc, reqs: reqs}}
	err = r.repeat(func(i int) error {
		all := append(bodies[:len(bodies):len(bodies)], make([][]byte, len(freshBase))...)
		for j, b := range freshBase {
			q := reqs[b]
			q.Seed = ptr(sb + uint64(8+i*len(freshBase)+j))
			var err error
			if all[len(reqs)+j], err = json.Marshal(q); err != nil {
				return err
			}
		}
		check := func(k int, rp reply) {
			if k < len(reqs) {
				r.check(rp.cache == "hit" || rp.cache == "disk", "serve_hits: key %d answered %q, want a cache hit", k, rp.cache)
				r.check(bytes.Equal(rp.body, cold[k]), "serve_hits: key %d hit differs from its cold answer", k)
				return
			}
			r.check(rp.cache == "miss", "serve_hits: fresh key %d answered %q, want miss", k, rp.cache)
			freshMu.Lock()
			fresh[string(all[k])] = rp.body
			freshMu.Unlock()
		}
		sp := r.tr.start("phase.sequential", 0)
		for _, k := range seq {
			sw := startWatch()
			rp, err := send(all[k])
			wall, cpu := sw.lap()
			r.tr.record(0, "http.estimate", sp.ID(), sw.wall, sw.wall.Add(wall))
			r.answered(&m, wall, cpu, r.op(err))
			if err != nil {
				continue
			}
			r.served(rp)
			check(k, rp)
		}
		sp.end()
		sp = r.tr.start("phase.closed", 0)
		sw := startWatch()
		n := r.closedLoop(send, all, r.nproc, r.sz.serveClosed, func(w int) func() int {
			wr := rand.New(rand.NewPCG(r.seed, 0xc105ed+uint64(w)))
			wz := rand.NewZipf(wr, zipfS, 1, uint64(len(reqs)-1))
			return func() int { return rank[wz.Uint64()] }
		}, check)
		wall, cpu := sw.lap()
		sp.end()
		r.worked(&m, float64(n), wall, cpu)
		r.paced()
		return nil
	})
	if err != nil {
		return measured{}, errors.Join(err, d.stop())
	}

	// Every fresh key is now cached: its next answer must replay the
	// bytes its miss produced, from memory (or disk, once evicted) and,
	// after a restart, from disk.
	var freshBodies, freshAnswers [][]byte
	for b, a := range fresh {
		freshBodies, freshAnswers = append(freshBodies, []byte(b)), append(freshAnswers, a)
	}
	replay := func(want ...string) {
		forEach(len(freshBodies), r.nproc, func(i int) {
			rp, err := send(freshBodies[i])
			if r.op(err) {
				r.check(slices.Contains(want, rp.cache) && bytes.Equal(rp.body, freshAnswers[i]),
					"serve_hits: a fresh key replayed %q with different bytes", rp.cache)
			}
		})
	}
	replay("hit", "disk")
	if err := d.stop(); err != nil {
		return measured{}, err
	}
	if d, err = openDaemon(dir, r.log, false); err != nil {
		return measured{}, err
	}
	send = d.call("/estimate")
	for i, rp := range r.sendAll(send, bodies, 0) {
		r.check(rp.cache == "disk" && bytes.Equal(rp.body, cold[i]), "serve_hits: key %d after restart answered %q with different bytes", i, rp.cache)
	}
	replay("disk")
	if err := d.stop(); err != nil {
		return measured{}, err
	}
	return m, nil
}

// sweepHazard is sweep_store's base fault profile.
var sweepHazard = scenario.HazardSpec{Kind: "weibull", Shape: 1.5, ScaleHours: 200000, NormalizeHours: 438300}

// sweepDoc is sweep_store's scenario: replicas × audits per year ×
// Weibull wear-out shape × correlation α × min_intact, 192 points of
// which 96 are unique (min_intact 0 ≡ 1), each with a Weibull fault
// profile normalized over the 50-year horizon.
func sweepDoc(seed uint64, trials int) ([]byte, error) {
	base := sweepHazard
	return json.Marshal(scenario.Document{V: 1, Name: "sweep_store",
		Base: scenario.EstimateRequest{Trials: trials, HorizonYears: 50, Seed: &seed, Hazard: &base},
		Grid: []scenario.Axis{
			{Param: "replicas", Values: []float64{2, 3, 4}},
			{Param: "scrubs_per_year", Values: []float64{1, 3, 12, 52}},
			{Param: "hazard.shape", Values: []float64{1, 1.5, 2, 3}},
			{Param: "alpha", Values: []float64{1, 0.5}},
			{Param: "min_intact", Values: []float64{0, 1}},
		}})
}

// sweepReply is a parsed /sweep response: result bytes per key and the
// summary line.
type sweepReply struct {
	results map[string][]byte
	summary service.SweepLine
}

// sweep sends one /sweep and parses its NDJSON reply. Lines of one key
// must carry identical bytes; want, when non-nil, holds the bytes every
// key must answer with.
func (r *run) sweep(send sender, body []byte, want map[string][]byte) (sweepReply, error) {
	rp, err := send(body)
	if err != nil {
		return sweepReply{}, err
	}
	out := sweepReply{results: make(map[string][]byte)}
	sc := bufio.NewScanner(bytes.NewReader(rp.body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line service.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return sweepReply{}, fmt.Errorf("decoding sweep line: %w", err)
		}
		if line.Summary {
			out.summary = line
			continue
		}
		r.check(line.Error == "", "sweep point %d failed: %s", line.Index, line.Error)
		if prev, ok := out.results[line.Key]; ok {
			r.check(bytes.Equal(prev, line.Result), "sweep: duplicate points of key %s carry different bytes", line.Key)
		} else {
			out.results[line.Key] = line.Result
		}
		if want != nil {
			r.check(bytes.Equal(want[line.Key], line.Result), "sweep: key %s differs from its cold answer", line.Key)
		}
	}
	return out, sc.Err()
}

// checkSummary compares a sweep summary's counts with the expected ones.
func (r *run) checkSummary(what string, got, want service.SweepLine) {
	r.check(got.Summary && got.Requested == want.Requested && got.OK == want.OK && got.Errors == want.Errors &&
		got.Deduped == want.Deduped && got.CacheHits == want.CacheHits && got.DiskHits == want.DiskHits,
		"%s sweep summary %+v, want requested/ok/errors/deduped/cache_hits/disk_hits %d/%d/%d/%d/%d/%d",
		what, got, want.Requested, want.OK, want.Errors, want.Deduped, want.CacheHits, want.DiskHits)
}

func sweepStore(r *run) (measured, error) {
	sb := r.seedBase()
	docs := func(c int) ([]byte, error) { return sweepDoc(sb+uint64(c), r.sz.sweepTrials) }
	doc0, err := docs(0)
	if err != nil {
		return measured{}, err
	}
	reqs, err := expandDoc(doc0)
	if err != nil {
		return measured{}, err
	}
	n := len(reqs)

	// Set-up: open the store, start the daemon and plan the sweep with a
	// /scenarios/expand dry run, as a client checking what it will pay
	// for would.
	unique := 0
	var ds []*daemon
	var dirs []string
	setup, err := r.timeSetups(r.sz.setups, func() error {
		sp := r.tr.start("setup", 0)
		defer sp.end()
		d, dir, err := r.tempDaemon(false)
		if err != nil {
			return err
		}
		ds, dirs = append(ds, d), append(dirs, dir)
		rp, err := d.call("/scenarios/expand")(doc0)
		if !r.op(err) {
			return nil
		}
		keys := make(map[string]bool)
		dec := json.NewDecoder(bytes.NewReader(rp.body))
		for dec.More() {
			var line service.ExpandLine
			if err := dec.Decode(&line); err != nil {
				return fmt.Errorf("decoding expand line: %w", err)
			}
			if !line.Summary {
				keys[line.Key] = true
			}
		}
		unique = len(keys)
		return nil
	})
	if err != nil {
		return measured{}, errors.Join(err, stopAll(ds, dirs))
	}
	if err := stopAll(ds[:len(ds)-1], dirs[:len(dirs)-1]); err != nil {
		return measured{}, err
	}
	d, dir := ds[len(ds)-1], dirs[len(dirs)-1]
	defer func() { os.RemoveAll(dir) }()
	deduped := n - unique
	send := d.call("/sweep")

	// A round sweeps a new base seed cold (every unique point simulated,
	// encoded and written to disk), then replays it from memory
	// warmSweeps times, timed in windows of warmWindow sweeps.
	m := measured{setup: setup, tailQ: 0.9, in: inputs{doc: doc0, reqs: reqs}}
	var last []byte
	lastCold := map[string][]byte{}
	err = r.repeat(func(i int) error {
		doc, err := docs(i)
		if err != nil {
			return err
		}
		body := append(append([]byte(`{"scenario":`), doc...), '}')
		sp := r.tr.start("sweep.cold", 0)
		sw := startWatch()
		rep, err := r.sweep(send, body, nil)
		wall, cpu := sw.lap()
		sp.end()
		if !r.op(err) {
			return nil
		}
		r.checkSummary("cold", rep.summary, service.SweepLine{Requested: n, OK: n, Deduped: deduped})
		r.worked(&m, float64(len(rep.results)), wall, cpu)
		r.paced()
		last, lastCold = body, rep.results
		for k := 0; k < r.sz.warmSweeps; k++ {
			sp := r.tr.start("sweep.warm", 0)
			sw := startWatch()
			rep, err := r.sweep(send, body, lastCold)
			wall, cpu := sw.lap()
			sp.end()
			r.answered(&m, wall, cpu, r.op(err))
			r.paced()
			if err == nil {
				r.checkSummary("warm", rep.summary, service.SweepLine{Requested: n, OK: n, Deduped: deduped, CacheHits: n})
			}
		}
		return nil
	})
	if err != nil {
		return measured{}, errors.Join(err, d.stop())
	}

	// A restarted daemon answers the last sweep from disk, byte for byte.
	if err := d.stop(); err != nil {
		return measured{}, err
	}
	if d, err = openDaemon(dir, r.log, false); err != nil {
		return measured{}, err
	}
	rep, err := r.sweep(d.call("/sweep"), last, lastCold)
	if r.op(err) {
		r.checkSummary("disk", rep.summary, service.SweepLine{Requested: n, OK: n, Deduped: deduped, CacheHits: n, DiskHits: n})
	}
	if err := d.stop(); err != nil {
		return measured{}, err
	}
	return m, nil
}
