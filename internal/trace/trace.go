// Package trace defines the versioned NDJSON fault-trace format:
// recorded fault/repair/access event streams that the simulator can
// replay deterministically through the DES (sim.NewReplayRunner), so
// recorded fleet histories — from the simulator itself or from real
// operations logs massaged into the schema — can be re-simulated,
// including counterfactually under a different repair/scrub policy.
//
// # Schema (v1)
//
// A trace is newline-delimited JSON. The first line is the header:
//
//	{"v":1,"kind":"ltsim-trace","replicas":2,"trials":100,"horizon_hours":87600,"source":"..."}
//
// Every following non-empty line is one event:
//
//	{"trial":0,"t":1234.5,"replica":1,"event":"fault","fault":"visible"}
//	{"trial":0,"t":1301.0,"replica":1,"event":"repair"}
//	{"trial":3,"t":8.25,"replica":0,"event":"access"}
//
// Event kinds:
//
//   - "fault": a fault arrival of class "fault" ("visible" | "latent").
//     "planted":true flags §6.6 side-effect faults (audit wear, buggy
//     repairs); replay treats them like any other fault and never
//     re-samples side effects of its own.
//   - "repair": completion of the replica's outstanding repair. Replay
//     honors these when pinning repairs (exact re-simulation) and
//     ignores them in policy mode (counterfactual re-decision).
//   - "access": a detection opportunity — an access or audit that
//     surfaces the replica's outstanding latent fault, if any.
//
// Events must be grouped by ascending trial index with non-decreasing
// times inside each trial; times must lie in [0, horizon_hours]. Parse
// is strict: unknown fields, unknown kinds, out-of-range indices, and
// ordering violations are errors with line numbers, never warnings. The
// worked example under examples/trace-replay/ walks one recorded stream
// end to end; docs/MODEL.md specifies the replay semantics.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Version is the trace schema version this package implements.
const Version = 1

// Kind is the header's format discriminator.
const Kind = "ltsim-trace"

// Event kinds.
const (
	EventFault  = "fault"
	EventRepair = "repair"
	EventAccess = "access"
)

// Fault classes of an EventFault event.
const (
	FaultVisible = "visible"
	FaultLatent  = "latent"
)

// Header is the trace's first NDJSON line.
type Header struct {
	// V is the schema version; must be Version.
	V int `json:"v"`
	// Kind discriminates the format; must be Kind.
	Kind string `json:"kind"`
	// Replicas is the recorded fleet size; event replica indices are in
	// [0, Replicas).
	Replicas int `json:"replicas"`
	// Trials is the number of recorded trial histories; event trial
	// indices are in [0, Trials).
	Trials int `json:"trials"`
	// HorizonHours is the censoring horizon every trial was recorded
	// under; replay runs to exactly this horizon.
	HorizonHours float64 `json:"horizon_hours"`
	// Source is free-form provenance ("ltsim -record", a fleet log
	// exporter, ...), at most 128 KiB.
	Source string `json:"source,omitempty"`
}

// Event is one recorded NDJSON event line.
type Event struct {
	// Trial is the recorded trial history this event belongs to.
	Trial int `json:"trial"`
	// T is the event time in hours since the trial start.
	T float64 `json:"t"`
	// Replica is the replica index the event concerns.
	Replica int `json:"replica"`
	// Event is the kind: EventFault, EventRepair, or EventAccess.
	Event string `json:"event"`
	// Fault is the fault class (FaultVisible | FaultLatent); required
	// for fault events, forbidden otherwise.
	Fault string `json:"fault,omitempty"`
	// Planted flags §6.6 side-effect faults; only valid on fault events.
	Planted bool `json:"planted,omitempty"`
}

// Trace is a parsed, validated trace document.
type Trace struct {
	Header Header
	Events []Event
}

// maxLine bounds one NDJSON line (events are tiny; this is a sanity
// limit, not a format parameter).
const maxLine = 1 << 20

// maxSource bounds the header's free-form source, in bytes. Write's JSON
// escaping grows a byte to at most six (`<` becomes \u003c), so a
// written header stays inside maxLine and Parse reads back whatever
// Write emits.
const maxSource = maxLine / 8

// Parse reads and validates an NDJSON trace. Decoding is strict:
// unknown fields fail with the offending line number.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	tr := &Trace{}
	line := 0
	headerSeen := false
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !headerSeen {
			if err := strictDecode(raw, &tr.Header); err != nil {
				return nil, fmt.Errorf("trace: line %d (header): %w", line, err)
			}
			headerSeen = true
			continue
		}
		var ev Event
		if err := strictDecode(raw, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if !headerSeen {
		return nil, fmt.Errorf("trace: empty input (expected a header line)")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ParseString is Parse over an in-memory document.
func ParseString(s string) (*Trace, error) { return Parse(strings.NewReader(s)) }

// strictDecode unmarshals one line rejecting unknown fields and
// trailing garbage.
func strictDecode(raw []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}

// Validate checks the header and the full event stream: version and
// kind, index ranges, kind/fault-class consistency, and the
// grouped-by-trial, time-sorted ordering replay depends on.
func (t *Trace) Validate() error {
	h := t.Header
	if h.V != Version {
		return fmt.Errorf("trace: unsupported version %d (this build speaks v%d)", h.V, Version)
	}
	if h.Kind != Kind {
		return fmt.Errorf("trace: header kind %q, want %q", h.Kind, Kind)
	}
	if h.Replicas < 1 {
		return fmt.Errorf("trace: header replicas %d must be >= 1", h.Replicas)
	}
	if h.Trials < 1 {
		return fmt.Errorf("trace: header trials %d must be >= 1", h.Trials)
	}
	if math.IsNaN(h.HorizonHours) || math.IsInf(h.HorizonHours, 0) || h.HorizonHours <= 0 {
		return fmt.Errorf("trace: header horizon_hours %v must be positive and finite", h.HorizonHours)
	}
	if len(h.Source) > maxSource {
		return fmt.Errorf("trace: header source of %d bytes exceeds the limit of %d", len(h.Source), maxSource)
	}
	prevTrial, prevT := 0, 0.0
	for i, ev := range t.Events {
		where := fmt.Sprintf("trace: event %d (trial %d, t %v)", i, ev.Trial, ev.T)
		if ev.Trial < 0 || ev.Trial >= h.Trials {
			return fmt.Errorf("%s: trial index out of range [0,%d)", where, h.Trials)
		}
		if ev.Replica < 0 || ev.Replica >= h.Replicas {
			return fmt.Errorf("%s: replica %d out of range [0,%d)", where, ev.Replica, h.Replicas)
		}
		if math.IsNaN(ev.T) || ev.T < 0 || ev.T > h.HorizonHours {
			return fmt.Errorf("%s: time outside [0, horizon %v]", where, h.HorizonHours)
		}
		switch ev.Event {
		case EventFault:
			if ev.Fault != FaultVisible && ev.Fault != FaultLatent {
				return fmt.Errorf("%s: fault event needs fault %q or %q, got %q", where, FaultVisible, FaultLatent, ev.Fault)
			}
		case EventRepair, EventAccess:
			if ev.Fault != "" {
				return fmt.Errorf("%s: %s event must not carry a fault class", where, ev.Event)
			}
			if ev.Planted {
				return fmt.Errorf("%s: %s event must not be planted", where, ev.Event)
			}
		default:
			return fmt.Errorf("%s: unknown event kind %q", where, ev.Event)
		}
		if ev.Trial < prevTrial {
			return fmt.Errorf("%s: events must be grouped by ascending trial (after trial %d)", where, prevTrial)
		}
		if ev.Trial == prevTrial && i > 0 && ev.T < prevT {
			return fmt.Errorf("%s: times must be non-decreasing within a trial (after t %v)", where, prevT)
		}
		prevTrial, prevT = ev.Trial, ev.T
	}
	return nil
}

// Write emits the trace as NDJSON: header line, then one line per
// event. Write(Parse(x)) round-trips semantically (field order and
// whitespace are canonicalized by encoding/json).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Header); err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// TrialEvents returns the events of one trial index, a subslice of the
// validated stream found by binary search: events are grouped by
// ascending trial, so no per-trial index is built and a header that
// claims 10^9 trials costs nothing until they run. A trial with no
// events gets an empty slice — a perfectly healthy recorded history.
func (t *Trace) TrialEvents(trial int) []Event {
	ev := t.Events
	lo := sort.Search(len(ev), func(i int) bool { return ev[i].Trial >= trial })
	n := sort.Search(len(ev)-lo, func(i int) bool { return ev[lo+i].Trial > trial })
	return ev[lo : lo+n : lo+n]
}
