package sim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/rng"
)

// EventKind labels trace entries.
type EventKind int

// Trace event kinds, in lifecycle order.
const (
	eventFault EventKind = iota
	eventDetected
	eventRepairStart
	eventRepaired
	eventAudit
	eventDataLoss
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case eventFault:
		return "fault"
	case eventDetected:
		return "detected"
	case eventRepairStart:
		return "repair-start"
	case eventRepaired:
		return "repaired"
	case eventAudit:
		return "audit"
	case eventDataLoss:
		return "DATA LOSS"
	default:
		return fmt.Sprintf("sim.EventKind(%d)", int(k))
	}
}

// Event is one entry in a trial trace: the raw material for the paper's
// Figure 1 timeline (fault → [detection] → recovery for each class).
type Event struct {
	// Time is the simulation time in hours.
	Time float64
	// Replica is the replica index.
	Replica int
	// Kind is the lifecycle step.
	Kind EventKind
	// Fault is the fault class involved.
	Fault faults.Type
	// Planted marks §6.6 side-effect faults (audit- or repair-induced).
	Planted bool
}

// Trace collects the events of one trial.
type Trace struct {
	Events []Event
	// Result is the trial outcome.
	Result TrialResult
}

// traceEvent appends to the trace when tracing is on.
func (t *trial) traceEvent(at float64, replica int, kind EventKind, fault faults.Type, planted bool) {
	if t.trace == nil {
		return
	}
	t.trace.Events = append(t.trace.Events, Event{
		Time:    at,
		Replica: replica,
		Kind:    kind,
		Fault:   fault,
		Planted: planted,
	})
}

// TraceTrial runs a single traced trial of the configuration: every
// fault, detection, repair, audit, and the loss event in chronological
// order. horizon > 0 censors; 0 runs to data loss. Audit passes are
// materialized so they appear on the timeline, which draws the audit
// stream differently from the lazy path an estimation run takes.
func TraceTrial(cfg Config, seed uint64, horizon float64) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := &Trace{}
	t := allocTrial(&cfg, cfg.ReplicaSpecs(), tr)
	t.lazyAudit = false
	t.start(rng.New(seed))
	tr.Result = t.run(horizon)
	return tr, nil
}
