package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// layerUnits lists the per-layer metrics in report order with their
// units. The traced pass of every workload reports all of them, each
// measured on that workload's own inputs.
var layerUnits = [][2]string{
	{"rng.derive_ns", "ns"},
	{"rng.float64_ns", "ns"},
	{"faults.sample_ns.nil", "ns"},
	{"faults.sample_ns.weibull", "ns"},
	{"des.hold_ns.q4", "ns"},
	{"des.hold_ns.q64", "ns"},
	{"des.allocs_per_event", "count"},
	{"sim.events_per_trial", "count"},
	{"sim.allocs_per_trial", "count"},
	{"sim.bytes_per_trial", "B"},
	{"sim.trial_us", "us"},
	{"sim.parallel_eff", "ratio"},
	{"sim.batch_ms", "ms"},
	{"sim.trials_to_target", "count"},
	{"sim.ess", "count"},
	{"sim.fingerprint_us", "us"},
	{"stats.km_ms", "ms"},
	{"stats.wprop_add_ns", "ns"},
	{"scenario.decode_us", "us"},
	{"scenario.build_us", "us"},
	{"scenario.expand_ms", "ms"},
	{"report.encode_us", "us"},
	{"service.handler_hit_us", "us"},
	{"service.net_us", "us"},
	{"service.hit_ratio", "ratio"},
	{"service.sweep_deduped", "count"},
	{"service.sweep_point_us", "us"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.restart_sweep_ms", "ms"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.open_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
}

// Probe sizes: enough repetitions that each figure is a median of many
// short timings, few enough that all probes take a few seconds. The
// micro-benchmark length and the sim probe's minimum wall time are part
// of scale.
const (
	microReps    = 5    // repetitions; the median is reported
	obsTrials    = 4096 // trials behind the Kaplan–Meier probe
	wireSamples  = 256  // requests behind the decode/build/fingerprint probes
	serviceKeys  = 8    // requests the service probe serves
	handlerReps  = 50   // in-process hits per service probe key
	warmProbes   = 20   // warm sweeps of the service probe
	storeEntries = 64   // entries behind the store put/get probes
)

// sink keeps micro-benchmark results live so loops are not optimized away.
var sink float64

// probeLayers times each layer from outside, around its public calls,
// on the workload's own inputs. Only the traced pass runs it; each
// probe is a span of its own.
func probeLayers(r *run, in inputs) (map[string]float64, error) {
	m := make(map[string]float64)
	cfg, opt, err := in.reqs[0].Build()
	if err != nil {
		return nil, err
	}
	// The answer to the workload's first request feeds the encode and
	// store probes.
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	o := opt
	o.Parallel = r.nproc
	est, err := runner.Estimate(o)
	if err != nil {
		return nil, err
	}
	body, err := encodeEstimate(est, opt.Horizon)
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"rng", func() error { probeRNG(r, m); return nil }},
		{"faults", func() error { return probeFaults(r, m, cfg) }},
		{"des", func() error { probeDES(r, m); return nil }},
		{"sim", func() error { return probeSim(r, m, runner, opt) }},
		{"stats", func() error { probeStats(m, runner, opt, r.sz.microOps); return nil }},
		{"scenario", func() error { return probeWire(m, in) }},
		{"report", func() error { return probeEncode(m, est, opt.Horizon) }},
		{"service", func() error { return probeService(r, m, in) }},
		{"store", func() error { return probeStore(m, body) }},
	}
	for _, s := range steps {
		sp := r.tr.start("probe."+s.name, 0)
		err := s.fn()
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	m["service.hit_ratio"] = float64(r.hits.Load()) / float64(max(r.sent.Load(), 1))
	r.mu.Lock()
	m["loadgen.lag_p99_ms"] = quantile(r.lags, 0.99)
	r.mu.Unlock()
	return m, nil
}

// nsPerOp runs fn (which performs ops operations) microReps times and
// returns the median ns per operation.
func nsPerOp(ops int, fn func()) float64 {
	per := make([]float64, microReps)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

func probeRNG(r *run, m map[string]float64) {
	ops := r.sz.microOps
	base := rng.New(r.seed)
	var src rng.Source
	m["rng.derive_ns"] = nsPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			base.DeriveInto(uint64(i), &src)
		}
	})
	m["rng.float64_ns"] = nsPerOp(ops, func() {
		s := 0.0
		for i := 0; i < ops; i++ {
			s += src.Float64()
		}
		sink += s
	})
}

// probeFaults samples fault inter-arrival times at the workload's
// visible-fault mean, without a profile and under sweep_store's
// Weibull profile (thinning), each over a 50-year window.
func probeFaults(r *run, m map[string]float64, cfg sim.Config) error {
	ops := r.sz.microOps
	mean := cfg.ReplicaSpecs()[0].VisibleMean
	h, err := sweepHazard.Build()
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name    string
		profile faults.Hazard
	}{{"faults.sample_ns.nil", nil}, {"faults.sample_ns.weibull", h}} {
		p, err := faults.NewProcess(mean)
		if err != nil {
			return err
		}
		p.SetProfile(c.profile)
		src := rng.New(r.seed)
		m[c.name] = nsPerOp(ops, func() {
			now := 0.0
			for i := 0; i < ops; i++ {
				if now += p.SampleNextAt(now, src); now > sweepHazard.NormalizeHours {
					now = 0
				}
			}
			sink += now
		})
	}
	return nil
}

// probeDES runs the classic hold model: q pending events, each firing
// schedules one more a uniform delay ahead.
func probeDES(r *run, m map[string]float64) {
	ops := r.sz.microOps
	for _, q := range []int{4, 64} {
		var e des.Engine
		src := rng.New(r.seed)
		var h des.Handler
		h = func(e *des.Engine) { e.ScheduleAfter(src.Float64(), h) }
		for i := 0; i < q; i++ {
			e.Schedule(src.Float64(), h)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m[fmt.Sprintf("des.hold_ns.q%d", q)] = nsPerOp(ops, func() {
			for i := 0; i < ops; i++ {
				e.Step()
			}
		})
		runtime.ReadMemStats(&after)
		if q == 64 {
			m["des.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(ops*microReps)
		}
	}
}

// probeSim runs the workload's first request at Parallel 1 and at
// Parallel nproc (repeated for at least scale.simWall so short requests
// still time well), and reads the counts off the answer.
func probeSim(r *run, m map[string]float64, runner *sim.Runner, opt sim.Options) error {
	timed := func(par int) (sim.Estimate, float64, error) {
		o := opt
		o.Parallel = par
		var walls []float64
		var est sim.Estimate
		for start := time.Now(); len(walls) == 0 || time.Since(start) < r.sz.simWall; {
			t0 := time.Now()
			e, err := runner.Estimate(o)
			if err != nil {
				return est, 0, err
			}
			walls = append(walls, time.Since(t0).Seconds())
			est = e
		}
		return est, median(walls), nil
	}
	est1, wall1, err := timed(1)
	if err != nil {
		return err
	}
	_, wallN, err := timed(r.nproc)
	if err != nil {
		return err
	}

	o := opt
	o.Parallel = r.nproc
	batches := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var last time.Time
	est, err := runner.EstimateStream(context.Background(), o, func(sim.Progress) {
		batches++
		last = time.Now()
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	n := float64(est.Trials)
	s := est.Stats
	m["sim.events_per_trial"] = float64(s.VisibleFaults+s.LatentFaults+s.Detections+s.Repairs+s.Audits+s.ShockEvents) / n
	m["sim.allocs_per_trial"] = float64(after.Mallocs-before.Mallocs) / n
	m["sim.bytes_per_trial"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	m["sim.trial_us"] = wall1 * 1e6 / float64(est1.Trials)
	m["sim.parallel_eff"] = wall1 / wallN / float64(r.nproc)
	// Mean interval between progress callbacks, the final one included.
	m["sim.batch_ms"] = ms(last.Sub(start)) / float64(batches)
	m["sim.trials_to_target"] = n
	// The equal-weight effective loss count: the weighted estimator's ESS
	// when biased, the plain loss count otherwise.
	m["sim.ess"] = est.EffectiveSamples
	if est.Bias == 0 {
		m["sim.ess"] = float64(est.Trials - est.Censored)
	}
	return nil
}

// probeStats fits Kaplan–Meier to trial outcomes of the workload's
// configuration and folds them into a weighted proportion.
func probeStats(m map[string]float64, runner *sim.Runner, opt sim.Options, ops int) {
	var buf stats.ObsBuffer
	lost := make([]bool, obsTrials)
	weight := make([]float64, obsTrials)
	for i := range lost {
		t := runner.RunTrial(opt.Seed, uint64(i), opt.Horizon)
		if t.Lost {
			buf.AddEvent(t.Time)
		} else {
			buf.AddCensored(t.Time)
		}
		lost[i], weight[i] = t.Lost, t.Weight
	}
	m["stats.km_ms"] = nsPerOp(1, func() {
		// The buffer holds obsTrials valid observations, so the fit
		// cannot fail.
		km, _ := buf.KaplanMeier()
		sink += km.MaxTime()
	}) / 1e6
	m["stats.wprop_add_ns"] = nsPerOp(ops, func() {
		var p stats.WeightedProportion
		for i := 0; i < ops; i++ {
			p.Add(lost[i%obsTrials], weight[i%obsTrials])
		}
		sink += p.Estimate()
	})
}

// perCall times fn once per item and returns the median in µs.
func perCall(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us), nil
}

// probeWire times the request path ahead of the cache: strict JSON
// decode, Build, fingerprint, and expansion of the workload's document.
func probeWire(m map[string]float64, in inputs) error {
	reqs := in.reqs[:min(wireSamples, len(in.reqs))]
	bodies, err := marshalAll(reqs)
	if err != nil {
		return err
	}
	cfgs := make([]sim.Config, len(reqs))
	opts := make([]sim.Options, len(reqs))
	if m["scenario.decode_us"], err = perCall(len(bodies), func(i int) error {
		var q scenario.EstimateRequest
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		return dec.Decode(&q)
	}); err != nil {
		return err
	}
	if m["scenario.build_us"], err = perCall(len(reqs), func(i int) (err error) {
		cfgs[i], opts[i], err = reqs[i].Build()
		return err
	}); err != nil {
		return err
	}
	if m["sim.fingerprint_us"], err = perCall(len(reqs), func(i int) error {
		_, err := sim.Fingerprint(cfgs[i], opts[i])
		return err
	}); err != nil {
		return err
	}
	if m["scenario.expand_ms"], err = perCall(microReps, func(int) error {
		_, err := expandDoc(in.doc)
		return err
	}); err != nil {
		return err
	}
	m["scenario.expand_ms"] /= 1e3

	return nil
}

// probeEncode times the daemon's encoding of an answer.
func probeEncode(m map[string]float64, est sim.Estimate, horizon float64) (err error) {
	m["report.encode_us"], err = perCall(wireSamples, func(int) error {
		_, err := encodeEstimate(est, horizon)
		return err
	})
	return err
}

// probeService serves the workload's first requests from a fresh daemon
// on a loopback listener: cold over the socket (the daemon's request log
// gives queue wait and run time), hits in-process and in an open loop
// over the socket, warm /sweeps of the same requests, and a restart
// answered from disk.
func probeService(r *run, m map[string]float64, in inputs) error {
	reqs := in.reqs[:min(serviceKeys, len(in.reqs))]
	bodies, err := marshalAll(reqs)
	if err != nil {
		return err
	}
	d, dir, err := r.tempDaemon(true)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hc := newClient(r.nproc)
	defer hc.CloseIdleConnections()
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	sp := r.tr.start("service.cold", 0)
	cold := r.sendAll(d.over(hc, "/estimate"), bodies, sp.ID())
	sp.end()
	r.log.mu.Lock()
	m["service.queue_wait_ms"] = median(r.log.queueWait)
	m["service.run_ms"] = median(r.log.run)
	r.log.mu.Unlock()

	local := d.call("/estimate")
	if m["service.handler_hit_us"], err = perCall(handlerReps*len(bodies), func(i int) error {
		k := i % len(bodies)
		rp, err := local(bodies[k])
		if err != nil {
			return err
		}
		r.check(rp.cache == "hit" && bytes.Equal(rp.body, cold[k].body), "service probe: in-process hit of key %d answered %q with different bytes", k, rp.cache)
		return nil
	}); err != nil {
		return err
	}

	rnd := rand.New(rand.NewPCG(r.seed, 0xb0257))
	plan := poissonPlan(rnd, r.sz.burstRate, r.sz.burst, func() int { return rnd.IntN(len(bodies)) })
	sp = r.tr.start("service.burst", 0)
	lat := r.openLoop(d.over(hc, "/estimate"), bodies, plan, r.nproc, sp.ID(), func(k int, rp reply) {
		r.check(bytes.Equal(rp.body, cold[k].body), "service probe: loopback hit of key %d differs from its cold answer", k)
	})
	sp.end()
	m["service.net_us"] = quantile(lat, 0.5)*1e3 - m["service.handler_hit_us"]

	sweepBody, err := json.Marshal(map[string]any{"requests": reqs})
	if err != nil {
		return err
	}
	var perPoint []float64
	for i := 0; i < warmProbes; i++ {
		t0 := time.Now()
		rep, err := r.sweep(d.call("/sweep"), sweepBody, nil)
		if !r.op(err) {
			continue
		}
		perPoint = append(perPoint, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(reqs)))
		m["service.sweep_deduped"] = float64(rep.summary.Deduped)
		r.check(rep.summary.CacheHits == len(reqs), "service probe: warm sweep hit %d of %d", rep.summary.CacheHits, len(reqs))
	}
	m["service.sweep_point_us"] = median(perPoint)

	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	if m["store.open_ms"], err = perCall(microReps, func(int) error {
		st, err := store.OpenDisk(dir, 0)
		if err != nil {
			return err
		}
		return st.Close()
	}); err != nil {
		return err
	}
	m["store.open_ms"] /= 1e3

	t0 := time.Now()
	if d, err = openDaemon(dir, r.log, false); err != nil {
		return err
	}
	stopped = false
	rep, err := r.sweep(d.call("/sweep"), sweepBody, nil)
	m["service.restart_sweep_ms"] = ms(time.Since(t0))
	if r.op(err) {
		r.check(rep.summary.DiskHits == len(reqs), "service probe: restarted sweep served %d of %d from disk", rep.summary.DiskHits, len(reqs))
	}
	stopped = true
	return d.stop()
}

// probeStore writes and reads an encoded answer of the workload in a
// fresh DiskStore.
func probeStore(m map[string]float64, body []byte) error {
	dir, err := os.MkdirTemp("", "ltbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenDisk(dir, 0)
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	if m["store.put_us"], err = perCall(storeEntries, func(i int) error {
		st.Put(key(i), body)
		return nil
	}); err != nil {
		return err
	}
	if m["store.get_us"], err = perCall(storeEntries, func(i int) error {
		got, ok := st.Get(key(i))
		if !ok || !bytes.Equal(got, body) {
			return fmt.Errorf("store returned %d bytes (found %v) for entry %d, want the %d written", len(got), ok, i, len(body))
		}
		return nil
	}); err != nil {
		return err
	}
	return st.Close()
}
