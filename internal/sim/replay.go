package sim

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/trace"
)

// Trace replay: re-simulating recorded fault streams.
//
// A replay runner (NewReplayRunner) substitutes a trace.Trace's recorded
// per-trial event stream for the sampled fault processes: fault arrivals
// come from the recording, and the generative machinery — fault-process
// sampling, shock arming, §6.6 side-effect planting — is switched off
// (the recorded stream already embodies all of it). Two modes:
//
//   - Pinned (pinRepairs true): recorded repair completions are honored
//     and no repair duration is ever sampled, so the replayed
//     faulty-replica trajectory — and with it every loss outcome, loss
//     time, and double-fault cell — reproduces the recorded world
//     exactly. The loss trajectory depends only on fault and repair
//     events (detection merely moves a replica from latent to repairing,
//     which never changes the faulty count), so pinned replay is exact
//     even though simulated detection times may differ.
//
//   - Policy (pinRepairs false): recorded repair and access events are
//     ignored; detection and repair are re-decided from the replay
//     config's scrub strategies and repair samplers. This answers the
//     counterfactual "what would this fault history have cost under a
//     different policy?".
//
// Either way a replay is a pure function of (config, trace, seed):
// deterministic at any Parallel/BatchSize, by the same per-trial
// stream-derivation and in-order merge argument as generative runs.
// docs/MODEL.md §Trace replay specifies the full semantics.

// replayData is a Runner's parsed replay source: a copy of the trace's
// header and of its event slice, which trace.TrialEvents searches per
// trial.
type replayData struct {
	trace.Trace
	pinRepairs bool
}

// replaySchedule is the per-trial replay cursor. The worker loop points
// events at the current trial's slice before each start; the trial's
// replayEv timer steps it.
type replaySchedule struct {
	events     []trace.Event
	pinRepairs bool
	idx        int
}

// scheduleReplay arms the recorded event stream: the first event is
// armed, and each firing re-arms the timer for its successor, so the
// engine holds at most one replay event at a time. Called from start after the
// (no-op, in replay mode) generative arming.
func (t *trial) scheduleReplay() {
	rp := t.replay
	rp.idx = 0
	if len(rp.events) > 0 {
		t.eng.Set(t.replayEv, rp.events[0].T)
	}
}

// replayStep dispatches the cursor's current recorded event and
// schedules the next. The successor is scheduled before dispatch so
// same-timestamp sequences (repair completion, then its planted fault)
// preserve recorded order under the engine's FIFO tie-break.
func (t *trial) replayStep() {
	rp := t.replay
	ev := rp.events[rp.idx]
	rp.idx++
	if rp.idx < len(rp.events) {
		t.eng.Set(t.replayEv, rp.events[rp.idx].T)
	}
	if t.lost {
		return
	}
	switch ev.Event {
	case trace.EventFault:
		kind := faults.Visible
		if ev.Fault == trace.FaultLatent {
			kind = faults.Latent
		}
		t.onFault(ev.Replica, kind, ev.Planted)
	case trace.EventAccess:
		// A recorded detection opportunity. Pinned replay honors it (a
		// no-op unless the replica has an outstanding latent fault);
		// policy replay re-decides detection from the config instead.
		if rp.pinRepairs {
			t.onDetected(ev.Replica)
		}
	case trace.EventRepair:
		if !rp.pinRepairs {
			return
		}
		// Pinned completion. The replica may still be latent here — the
		// re-simulated detection channel can run later than the recorded
		// one — so force the latent→repairing→healthy transitions; the
		// faulty-count trajectory comes out identical either way.
		switch t.reps[ev.Replica].state {
		case stateLatent:
			t.onDetected(ev.Replica)
			t.onRepaired(ev.Replica)
		case stateRepairing:
			t.onRepaired(ev.Replica)
		}
	}
}

// NewReplayRunner builds a Runner that re-simulates tr's recorded fault
// streams under cfg instead of sampling its fault processes.
// pinRepairs selects exact reproduction (recorded repairs honored) over
// counterfactual policy replay (repairs re-decided from cfg); see the
// package comment above. The trace must match cfg's fleet size.
func NewReplayRunner(cfg Config, tr *trace.Trace, pinRepairs bool) (*Runner, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("%w: replay requires a trace", ErrInvalidConfig)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Header.Replicas != cfg.NumReplicas() {
		return nil, fmt.Errorf("%w: trace records %d replicas but the config has %d",
			ErrInvalidConfig, tr.Header.Replicas, cfg.NumReplicas())
	}
	r.replay = &replayData{Trace: *tr, pinRepairs: pinRepairs}
	return r, nil
}

// validateReplay rejects option combinations a replay runner cannot
// honor: the trial count and horizon are the trace's (recorded trial i
// must map to replayed trial i at the recorded censoring point),
// adaptive stopping would re-map that correspondence, and biasing has no
// sampling measure to re-weight — recorded arrivals are data, not draws.
func (r *Runner) validateReplay(opt Options) error {
	if r.replay == nil {
		return nil
	}
	if opt.adaptive() {
		return fmt.Errorf("%w: trace replay requires a fixed trial count (adaptive stopping would re-map recorded trials)", ErrInvalidConfig)
	}
	if opt.Bias != 0 {
		return fmt.Errorf("%w: trace replay is incompatible with failure biasing (recorded arrivals carry no sampling measure to re-weight)", ErrInvalidConfig)
	}
	h := r.replay.Header
	if opt.Trials != h.Trials {
		return fmt.Errorf("%w: replay must run exactly the trace's %d trials, got %d (ReplayEstimate inherits them)", ErrInvalidConfig, h.Trials, opt.Trials)
	}
	if opt.Horizon != h.HorizonHours {
		return fmt.Errorf("%w: replay must use the trace's recorded horizon %v h, got %v (ReplayEstimate inherits it)", ErrInvalidConfig, h.HorizonHours, opt.Horizon)
	}
	return nil
}

// ReplayEstimate estimates over the runner's recorded trace, inheriting
// the trial count and censoring horizon from the trace header (any
// values in opt are overwritten; adaptive stopping is switched off).
// Remaining options — Seed, Parallel, Level — keep their meaning; Seed
// only feeds the re-simulated policy randomness, so in pinned mode it
// cannot change outcomes, only event-count bookkeeping.
func (r *Runner) ReplayEstimate(opt Options) (Estimate, error) {
	if r.replay == nil {
		return Estimate{}, fmt.Errorf("%w: ReplayEstimate requires a replay runner (NewReplayRunner)", ErrInvalidConfig)
	}
	opt.Trials = r.replay.Header.Trials
	opt.Horizon = r.replay.Header.HorizonHours
	opt.TargetRelWidth = 0
	return r.Estimate(opt)
}

// RecordTrace runs opt.Trials generative trials through the same
// worker pool and in-order batch merge as Estimate, recording each
// trial's fault/detection/repair events as a replayable trace, and
// returns the trace alongside the run's Estimate — so a pinned replay of
// the returned trace can be checked against the returned estimate.
// Requires a fixed trial count, a censoring horizon (the trace
// header's), and no biasing.
//
// Recording only observes the trials, so the returned Estimate, Stats
// included, is bit-identical to Estimate at the same options, and the
// trace is identical at any Parallel.
func (r *Runner) RecordTrace(opt Options) (*trace.Trace, Estimate, error) {
	if r.replay != nil {
		return nil, Estimate{}, fmt.Errorf("%w: cannot record from a replay runner", ErrInvalidConfig)
	}
	if opt.adaptive() {
		return nil, Estimate{}, fmt.Errorf("%w: recording requires a fixed trial count", ErrInvalidConfig)
	}
	if opt.Bias != 0 {
		return nil, Estimate{}, fmt.Errorf("%w: recording under failure biasing would bake the tilted sampling measure into the trace", ErrInvalidConfig)
	}
	if opt.Horizon <= 0 {
		return nil, Estimate{}, fmt.Errorf("%w: recording requires a censoring horizon", ErrInvalidConfig)
	}
	out := &trace.Trace{Header: trace.Header{
		V:            trace.Version,
		Kind:         trace.Kind,
		Replicas:     len(r.specs),
		Trials:       opt.Trials,
		HorizonHours: opt.Horizon,
		Source:       fmt.Sprintf("sim.RecordTrace(seed=%d)", opt.Seed),
	}}
	est, err := r.stream(context.Background(), opt, nil, &out.Events)
	if err != nil {
		return nil, Estimate{}, err
	}
	if err := out.Validate(); err != nil {
		return nil, Estimate{}, fmt.Errorf("sim: internal: recorded trace failed validation: %w", err)
	}
	return out, est, nil
}

// recordEvents appends the replayable part of trial i's event log —
// fault arrivals, latent-fault detections, repair completions — to dst
// as trace events, and empties the log for the worker's next trial.
func recordEvents(dst []trace.Event, i int, tr *Trace) []trace.Event {
	for _, ev := range tr.Events {
		switch ev.Kind {
		case eventFault:
			cls := trace.FaultVisible
			if ev.Fault == faults.Latent {
				cls = trace.FaultLatent
			}
			dst = append(dst, trace.Event{
				Trial: i, T: ev.Time, Replica: ev.Replica,
				Event: trace.EventFault, Fault: cls, Planted: ev.Planted,
			})
		case eventDetected:
			dst = append(dst, trace.Event{
				Trial: i, T: ev.Time, Replica: ev.Replica, Event: trace.EventAccess,
			})
		case eventRepaired:
			dst = append(dst, trace.Event{
				Trial: i, T: ev.Time, Replica: ev.Replica, Event: trace.EventRepair,
			})
		}
	}
	tr.Events = tr.Events[:0]
	return dst
}
