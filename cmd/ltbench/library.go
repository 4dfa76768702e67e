package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// lossRequest is the ROADMAP's benchMirror on the wire: a fragile
// 2-replica mirror (MV = 1000 h, no latent channel, no audits, 10 h
// automated repair) run to loss, about 200 events per trial.
func lossRequest(trials int) scenario.EstimateRequest {
	return scenario.EstimateRequest{
		Replicas: 2, VisibleMeanHours: 1000, LatentMeanHours: -1,
		RepairVisibleHours: 10, RepairLatentHours: 10, ScrubsPerYear: ptr(0.0),
		Trials: trials,
	}
}

// rareHorizonHours censors rare_target's trials.
const rareHorizonHours = 1000.0

// rareRequest is the rare-event reference mirror: 1 h repair censored
// at 1000 h, P(loss) ≈ 2e-3. target 0 leaves it a fixed-budget naive
// run (the calibration); otherwise it is auto-biased and adaptive.
func rareRequest(target float64) scenario.EstimateRequest {
	req := scenario.EstimateRequest{
		Replicas: 2, VisibleMeanHours: 1000, LatentMeanHours: -1,
		RepairVisibleHours: 1, RepairLatentHours: 1, ScrubsPerYear: ptr(0.0),
		HorizonYears: model.Years(rareHorizonHours),
	}
	if target > 0 {
		req.Bias = float64(sim.AutoBias)
		req.TargetRelWidth = target
	}
	return req
}

func ptr[T any](v T) *T { return &v }

// reference is a pinned estimate the workloads' answers are checked
// against: a point and its standard error.
type reference struct{ point, se float64 }

// The references come from -calibrate: one long run at calibrationSeed,
// a seed no workload uses (workload seeds stay below 2^53).
var (
	// lossRef is loss_mirror's MTTDL in hours from 2,000,000 trials.
	lossRef = reference{point: 51210.66508043731, se: 36.17458699070525}
	// rareRef is rare_target's P(loss within 1000 h) from 4,000,000
	// naive (unbiased) trials.
	rareRef = reference{point: 0.00197425, se: 2.2195656349522645e-05}
)

const (
	calibrationSeed   = 1 << 62
	calibrationLoss   = 2_000_000
	calibrationNaive  = 4_000_000
	z975              = 1.959963984540054
	agreementSigmas   = 4.0
	relWidthTolerance = 1e-12
)

// agrees reports whether an interval's point lies within
// agreementSigmas combined standard errors of ref.
func agrees(iv stats.Interval, ref reference) (bool, float64) {
	se := (iv.Hi - iv.Lo) / 2 / z975
	sigma := math.Hypot(se, ref.se)
	dev := math.Abs(iv.Point-ref.point) / sigma
	return dev <= agreementSigmas, dev
}

// seededDoc is a library workload's document: the base request swept
// over n consecutive request seeds.
func seededDoc(name string, base scenario.EstimateRequest, seedBase uint64, n int) ([]byte, error) {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(seedBase + uint64(i))
	}
	return json.Marshal(scenario.Document{V: 1, Name: name, Base: base,
		Grid: []scenario.Axis{{Param: "seed", Values: values}}})
}

// library is the shared shape of loss_mirror and rare_target: one
// caller in a closed loop, each Estimate at Parallel nproc, on a runner
// built and warmed in set-up.
type library struct {
	name    string
	base    scenario.EstimateRequest
	warmup  func(o sim.Options) sim.Options // the set-up's short warming run
	checkFn func(r *run, est sim.Estimate)  // per-answer statistical check
}

func lossMirror(r *run) (measured, error) {
	return library{
		name: "loss_mirror",
		base: lossRequest(r.sz.lossTrials),
		warmup: func(o sim.Options) sim.Options {
			o.Trials = 256
			return o
		},
		checkFn: func(r *run, est sim.Estimate) {
			ok, dev := agrees(est.MTTDL, lossRef)
			r.check(ok, "loss_mirror: MTTDL %.6g h is %.1fσ from the reference %.6g h", est.MTTDL.Point, dev, lossRef.point)
		},
	}.run(r)
}

func rareTarget(r *run) (measured, error) {
	target := r.sz.rareTarget
	return library{
		name: "rare_target",
		base: rareRequest(target),
		// A fixed budget, so that set-up costs the same at every seed.
		warmup: func(o sim.Options) sim.Options {
			o.TargetRelWidth, o.Trials = 0, 4096
			return o
		},
		checkFn: func(r *run, est sim.Estimate) {
			ok, dev := agrees(est.LossProb, rareRef)
			r.check(ok, "rare_target: P(loss) %.6g is %.1fσ from the reference %.6g", est.LossProb.Point, dev, rareRef.point)
			rel := est.LossProb.RelativeHalfWidth()
			r.check(rel <= target+relWidthTolerance, "rare_target: relative half-width %.6g above the %.6g target", rel, target)
		},
	}.run(r)
}

func (l library) run(r *run) (measured, error) {
	doc, err := seededDoc(l.name, l.base, r.seedBase(), r.sz.roundOps)
	if err != nil {
		return measured{}, err
	}
	reqs, err := expandDoc(doc)
	if err != nil {
		return measured{}, err
	}
	// Every point shares one configuration; only the seed varies.
	cfg, first, err := reqs[0].Build()
	if err != nil {
		return measured{}, err
	}
	var runner *sim.Runner
	setup, err := r.timeSetups(r.sz.setups, func() error {
		sp := r.tr.start("setup", 0)
		defer sp.end()
		var err error
		if runner, err = sim.NewRunner(cfg); err != nil {
			return err
		}
		o := l.warmup(first)
		o.Parallel = r.nproc
		_, err = r.estimate(runner, o, sp.ID())
		return err
	})
	if err != nil {
		return measured{}, err
	}

	// Every round answers the same requests, so rounds are comparable,
	// and each must reproduce the first round's answers byte for byte.
	m := measured{setup: setup, tailQ: 0.9, in: inputs{doc: doc, reqs: reqs}}
	answers := make([][]byte, len(reqs))
	err = r.repeat(func(i int) error {
		for k, q := range reqs {
			_, opt, err := q.Build()
			if err != nil {
				return err
			}
			opt.Parallel = r.nproc
			sw := startWatch()
			est, err := r.estimate(runner, opt, 0)
			wall, cpu := sw.lap()
			// Each answer is also a throughput window of its own, so that
			// both are scaled by the reference sample that follows it.
			ok := r.op(err)
			r.answered(&m, wall, cpu, ok)
			if ok {
				r.worked(&m, float64(est.Trials), wall, cpu)
			}
			r.paced()
			if !ok {
				continue
			}
			body, err := encodeEstimate(est, opt.Horizon)
			if err != nil {
				return err
			}
			if i == 0 {
				l.checkFn(r, est)
				answers[k] = body
			} else {
				r.check(bytes.Equal(body, answers[k]), "%s: request %d answered differently in round %d", l.name, k, i)
			}
		}
		return nil
	})
	if err != nil {
		return measured{}, err
	}
	if err := checkParallelIdentity(r, runner, reqs[0]); err != nil {
		return measured{}, err
	}
	return m, nil
}

// estimate runs one Estimate. On the traced pass it streams, recording
// a sim.estimate span with one sim.batch child per progress callback.
func (r *run) estimate(runner *sim.Runner, opt sim.Options, parent int64) (sim.Estimate, error) {
	if r.tr == nil {
		return runner.Estimate(opt)
	}
	sp := r.tr.start("sim.estimate", parent)
	defer sp.end()
	last := sp.start
	return runner.EstimateStream(context.Background(), opt, func(sim.Progress) {
		now := time.Now()
		r.tr.record(0, "sim.batch", sp.ID(), last, now)
		last = now
	})
}

// encodeEstimate is the daemon's wire encoding of an estimate.
func encodeEstimate(est sim.Estimate, horizon float64) ([]byte, error) {
	return json.Marshal(report.NewEstimateJSON(est, horizon))
}

// checkParallelIdentity checks that req's answer encodes to the same
// bytes at Parallel 1 and at Parallel nproc.
func checkParallelIdentity(r *run, runner *sim.Runner, req scenario.EstimateRequest) error {
	_, opt, err := req.Build()
	if err != nil {
		return err
	}
	var bodies [2][]byte
	for i, par := range []int{1, r.nproc} {
		opt.Parallel = par
		est, err := runner.Estimate(opt)
		if err != nil {
			return err
		}
		if bodies[i], err = encodeEstimate(est, opt.Horizon); err != nil {
			return err
		}
	}
	r.check(bytes.Equal(bodies[0], bodies[1]), "Parallel 1 and Parallel %d encode different answers", r.nproc)
	return nil
}

// calibrate recomputes the pinned references from long runs at
// calibrationSeed and prints them.
func calibrate(w io.Writer) error {
	for _, c := range []struct {
		name string
		req  scenario.EstimateRequest
		pick func(sim.Estimate) stats.Interval
	}{
		{"lossRef", lossRequest(calibrationLoss), func(e sim.Estimate) stats.Interval { return e.MTTDL }},
		{"rareRef", func() scenario.EstimateRequest {
			q := rareRequest(0)
			q.Trials = calibrationNaive
			return q
		}(), func(e sim.Estimate) stats.Interval { return e.LossProb }},
	} {
		c.req.Seed = ptr(uint64(calibrationSeed))
		cfg, opt, err := c.req.Build()
		if err != nil {
			return err
		}
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			return err
		}
		est, err := runner.Estimate(opt)
		if err != nil {
			return err
		}
		iv := c.pick(est)
		fmt.Fprintf(w, "%s = reference{point: %v, se: %v} // %d trials\n", c.name, iv.Point, (iv.Hi-iv.Lo)/2/z975, est.Trials)
	}
	return nil
}
