// Command ltsim runs the event-driven Monte Carlo simulator on a
// replicated-storage configuration and reports MTTDL (with confidence
// interval), mission loss probability, the empirical Figure-2 double-fault
// matrix, and the analytic model's prediction for the same system.
//
// The default flags describe a uniform fleet. Repeatable -replica flags
// instead build a heterogeneous fleet (§6.1–§6.2), one replica per flag,
// each either a named tier or explicit key=value pairs:
//
//	ltsim                                  # the paper's scrubbed mirror
//	ltsim -scrubs-per-year 0 -trials 5000  # the 32-year no-scrub scenario
//	ltsim -alpha 0.1 -replicas 3 -horizon 50
//	ltsim -replica consumer -replica consumer -replica enterprise
//	ltsim -replica consumer -replica mv=2e6,ml=4e5,scrubs=12,repair=1,label=nas
//
// Named tiers: "consumer" and "enterprise" are the §6.1 drives at the
// -scrubs-per-year audit frequency; "tape" is an offline shelf audited
// once a year with handling-scale repair times (storage.TierSpec defines
// all three). In -replica mode the uniform-fleet flags -mv, -ml, -mrv,
// -mrl, -replicas, and -repair-bug are ignored; -alpha, -audit-wear,
// -trials, -horizon, and -seed apply.
//
// Instead of a fixed -trials budget, -target-rel runs the simulation
// adaptively: it stops at the first deterministic batch boundary where
// the relevant confidence interval's relative half-width reaches the
// target (the loss-probability interval under a -horizon, else the
// MTTDL interval), bounded by -max-trials. Adaptive results depend only
// on (config, seed, target, cap, batch size) — never on worker count.
// -progress reports live snapshots on stderr while any run executes:
//
//	ltsim -target-rel 0.05 -horizon 50 -progress
//	ltsim -target-rel 0.02 -max-trials 200000 -trials 5000
//
// For rare-event configurations (3+ replicas, fast repair) -bias turns
// on importance-sampled failure biasing: in-window fault hazards are
// boosted and each trial carries a likelihood-ratio weight, so losses
// are observed orders of magnitude more often while the reported
// estimate stays unbiased. -bias auto lets the analytic model pick the
// boost from the configuration and horizon; an explicit factor >= 1
// pins it. Requires -horizon; the report then includes the resolved β
// and the effective (equal-weight) loss count:
//
//	ltsim -replicas 3 -horizon 10 -bias auto -target-rel 0.1
//
// -hazard applies a non-stationary fault profile to every replica: the
// profile multiplies both fault channels' rates over each replica's age
// (burn-in, wear-out — see docs/MODEL.md). The value is a JSON
// HazardSpec object, or @file to read one:
//
//	ltsim -hazard '{"kind":"weibull","shape":2,"scale_hours":50000}' -horizon 10
//	ltsim -hazard '{"kind":"bathtub","burn_in_hours":8760,"burn_in_factor":4,
//	               "wear_onset_hours":43800,"wear_factor":8,"normalize_hours":87600}' -horizon 10
//	ltsim -hazard @bathtub.json -horizon 10
//
// "normalize_hours" rescales the profile to mean multiplier 1 over that
// horizon, so profiled and unprofiled fleets compare at equal mean rates.
//
// -record and -trace connect the simulator to NDJSON fault traces
// (internal/trace; see examples/trace-replay). -record file runs the
// configured system and writes every trial's fault/detection/repair
// events as a replayable trace (requires -horizon; incompatible with
// -bias and -target-rel). Recording only observes the run: the printed
// estimate is byte-identical to the same flags without -record. -trace
// file replays a recorded trace through the configured system instead
// of sampling fresh faults: trial count and horizon come from the trace
// header, and by default repairs are pinned to the recorded
// completions, reproducing the recorded outcomes exactly. -replay-policy instead re-decides detection and repair from
// the flags — the counterfactual "what if this fault history had hit a
// better-maintained fleet" question:
//
//	ltsim -record run.ndjson -horizon 30 -trials 5000
//	ltsim -trace run.ndjson                          # pinned: same outcomes
//	ltsim -trace run.ndjson -replay-policy -scrubs-per-year 12
//
// Both are local-only (trace files live on this machine) and cannot be
// combined with -server or -scenario.
//
// Two flags connect the CLI to the ltsimd daemon:
//
//	-json        emit the machine-readable estimate (the exact encoding
//	             the daemon serves) instead of text tables
//	-server URL  send the request to a running ltsimd instead of
//	             simulating locally; the response body (always JSON) is
//	             printed and the cache disposition plus the daemon's
//	             request ID (X-Ltsimd-Request, for correlating with the
//	             daemon's request log) go to stderr. With
//	             -progress the daemon streams NDJSON frames: progress
//	             renders on stderr, the final result on stdout.
//	             Connection failures and 503s retry with jittered
//	             exponential backoff, bounded by -retries — so a daemon
//	             restart or a briefly saturated queue doesn't fail a
//	             scripted sweep
//
// Local -json output and a daemon response for the same flags are
// byte-identical: both build the same sim.Config through the same
// service request type and encode through internal/report.
//
// -scenario file.json runs a declarative scenario document (see
// internal/scenario: a base request plus named grid/zip sweep axes)
// instead of the flag-described single system. Locally the document is
// expanded and every point simulated in expansion order, emitting the
// same NDJSON sweep lines the daemon streams ({"index", "key",
// "result"} per point plus a trailing summary); with -server the
// document itself is relayed to POST /sweep and expanded server-side —
// the two spellings produce byte-identical result lines against a
// policy-free daemon. The single-run configuration flags are ignored in
// scenario mode; the document is self-contained.
//
//	ltsim -scenario examples/scenario-sweep/scenario.json
//	ltsim -scenario sweep.json -server http://localhost:8356
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

func main() {
	rf := bindRunFlags(flag.CommandLine)
	var m modes
	flag.BoolVar(&m.asJSON, "json", false, "emit the machine-readable estimate JSON instead of tables")
	flag.StringVar(&m.server, "server", "", "base URL of a running ltsimd (e.g. http://localhost:8356); query it instead of simulating locally")
	flag.StringVar(&m.scenario, "scenario", "", "path to a scenario document (JSON); expand and run the sweep locally, or relay it to -server (single-run flags are ignored)")
	flag.IntVar(&m.retries, "retries", 3, "with -server: retry attempts after a connection failure or 503 (jittered exponential backoff; 0 = fail fast)")
	flag.StringVar(&m.record, "record", "", "record every trial's fault/repair events to this NDJSON trace file (requires -horizon; local only)")
	flag.StringVar(&m.trace, "trace", "", "replay a recorded NDJSON trace through the configured system instead of sampling faults (local only)")
	flag.BoolVar(&m.replayPolicy, "replay-policy", false, "with -trace: re-decide detection and repair from the flags instead of pinning recorded repairs (counterfactual replay)")
	flag.Parse()

	// A flag value ltsim cannot honour is refused like a malformed flag
	// (exit 2) before anything runs. A bad -bias fails even in -scenario
	// mode, which ignores the other single-run flags.
	var err error
	rf.req.Bias, err = sim.ParseBias(rf.bias)
	if err == nil && m.scenario == "" {
		err = rf.finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltsim:", err)
		os.Exit(2)
	}
	if err := run(m, rf); err != nil {
		fmt.Fprintln(os.Stderr, "ltsim:", err)
		os.Exit(1)
	}
}

// modes are the flags that choose where a run goes and how it is
// reported, rather than what it simulates.
type modes struct {
	asJSON, replayPolicy            bool
	server, scenario, record, trace string
	retries                         int
}

// runFlags is the flag set's description of one run. Every flag the
// wire request holds as-is is bound straight to its field of req; the
// rest wait here until finish folds them in.
type runFlags struct {
	fs               *flag.FlagSet
	req              service.EstimateRequest
	mv, ml, mrv, mrl float64
	bias, hazard     string
	replicas         []string
}

// bindRunFlags declares the run-describing flags on fs.
func bindRunFlags(fs *flag.FlagSet) *runFlags {
	f := &runFlags{fs: fs}
	r := &f.req
	fs.Float64Var(&f.mv, "mv", model.PaperMV, "per-replica mean time to visible fault, hours")
	fs.Float64Var(&f.ml, "ml", model.PaperML, "per-replica mean time to latent fault, hours (inf = none)")
	fs.Float64Var(&f.mrv, "mrv", model.PaperMRV, "visible repair time, hours")
	fs.Float64Var(&f.mrl, "mrl", model.PaperMRL, "latent repair time, hours")
	r.ScrubsPerYear = fs.Float64("scrubs-per-year", 3, "periodic audit frequency (0 = never)")
	fs.Float64Var(&r.Alpha, "alpha", 1, "correlation factor in (0,1]")
	fs.IntVar(&r.Replicas, "replicas", 2, "replica count (uniform fleet)")
	fs.IntVar(&r.Trials, "trials", 1000, "Monte Carlo trials")
	fs.Float64Var(&r.HorizonYears, "horizon", 0, "censoring horizon in years (0 = run every trial to loss)")
	r.Seed = fs.Uint64("seed", 1, "random seed")
	fs.Float64Var(&r.RepairBugProb, "repair-bug", 0, "probability a repair plants a latent fault (§6.6)")
	fs.Float64Var(&r.AuditWearProb, "audit-wear", 0, "probability an audit pass plants a latent fault (§6.6)")
	fs.Float64Var(&r.TargetRelWidth, "target-rel", 0, "adaptive mode: stop when the CI relative half-width reaches this target (0 = fixed -trials budget)")
	fs.IntVar(&r.MaxTrials, "max-trials", 0, "adaptive trial cap (0 = the simulator's default); only with -target-rel")
	fs.BoolVar(&r.Progress, "progress", false, "report live progress on stderr while the run executes")
	fs.StringVar(&f.bias, "bias", "off", "rare-event importance sampling: off, auto (model-chosen boost), or an explicit factor >= 1; requires -horizon")
	fs.StringVar(&f.hazard, "hazard", "", "non-stationary fault profile: a JSON HazardSpec object, or @file to read one")
	fs.Func("replica", "add one replica to a heterogeneous fleet: a named tier (consumer, enterprise, tape) or key=value pairs (mv, ml, scrubs, offset, repair, label, access-rate, access-coverage); repeatable", func(v string) error {
		f.replicas = append(f.replicas, v)
		return nil
	})
	return f
}

// finish completes req once the flags are parsed, with what a plain
// binding cannot express: the adaptive -trials default, the -hazard
// spec, the -replica fleet (resolved against the final
// -scrubs-per-year), and the uniform fault and repair means. req is
// then the single description that local runs, -json output and
// -server client mode all use, so the three agree on the configuration
// (and the daemon's cache key).
func (f *runFlags) finish() error {
	r := &f.req
	// In adaptive mode an untouched -trials default must not become a
	// 1000-trial floor: only an explicit -trials sets the minimum.
	if r.TargetRelWidth > 0 {
		trialsSet := false
		f.fs.Visit(func(fl *flag.Flag) { trialsSet = trialsSet || fl.Name == "trials" })
		if !trialsSet {
			r.Trials = 0
		}
	}
	if f.hazard != "" {
		h, err := parseHazard(f.hazard)
		if err != nil {
			return err
		}
		r.Hazard = h
	}
	if len(f.replicas) > 0 {
		for i, v := range f.replicas {
			s, err := parseReplica(v, *r.ScrubsPerYear)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return fmt.Errorf("replica %d: %w", i, err)
			}
			r.Fleet = append(r.Fleet, scenario.FleetEntryFromSpec(s))
		}
		// A fleet replaces the uniform shorthand; none of it goes on the wire.
		r.Replicas, r.RepairBugProb = 0, 0
		return nil
	}
	// On the wire, zero means "use the default" and a negative mean
	// "channel disabled" — reject both here, so an explicit -replicas 0
	// or -mv 0 errors instead of silently becoming the default, and
	// -mv -5 instead of disabling the channel (inf is the way to say
	// that). A repair cannot be disabled, so a repair time must also be
	// finite (the wire would read inf as a negative time and name its
	// own field). Flags are checked in a fixed order (a slice, not a
	// map), so several bad flags always report the same one.
	if r.Replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1")
	}
	const channel = " (or inf to disable the channel)"
	for _, m := range []struct {
		name   string
		v      float64
		hint   string
		repair bool
		dst    *float64
	}{
		{"-mv", f.mv, channel, false, &r.VisibleMeanHours},
		{"-ml", f.ml, channel, false, &r.LatentMeanHours},
		{"-mrv", f.mrv, "", true, &r.RepairVisibleHours},
		{"-mrl", f.mrl, "", true, &r.RepairLatentHours},
	} {
		if m.v == 0 || !m.repair && !(m.v > 0) {
			return fmt.Errorf("%s must be positive%s", m.name, m.hint)
		}
		if m.repair && !(m.v > 0 && !math.IsInf(m.v, 1)) {
			return fmt.Errorf("%s must be positive and finite", m.name)
		}
		*m.dst = scenario.WireFloat(m.v)
	}
	return nil
}

// parseHazard decodes the -hazard value — a JSON HazardSpec object, or
// @file naming one — strictly, so a misspelled parameter fails instead
// of silently simulating the default profile.
func parseHazard(v string) (*scenario.HazardSpec, error) {
	data := []byte(v)
	if strings.HasPrefix(v, "@") {
		b, err := os.ReadFile(v[1:])
		if err != nil {
			return nil, fmt.Errorf("-hazard: %w", err)
		}
		data = b
	}
	var spec scenario.HazardSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("-hazard: %v", err)
	}
	if _, err := spec.Build(); err != nil {
		return nil, fmt.Errorf("-hazard: %v", err)
	}
	return &spec, nil
}

// parseReplica resolves one -replica flag value into a storage spec.
func parseReplica(v string, defaultScrubs float64) (storage.Spec, error) {
	if s, ok := storage.TierSpec(v, defaultScrubs); ok {
		return s, nil
	}
	s := storage.Spec{Label: "custom", LatentMean: math.Inf(1)}
	for _, kv := range strings.Split(v, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return storage.Spec{}, fmt.Errorf("replica %q: %q is not key=value (or a named tier: %s)", v, kv, strings.Join(storage.TierNames(), ", "))
		}
		if key == "label" {
			s.Label = val
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return storage.Spec{}, fmt.Errorf("replica %q: %s: %v", v, key, err)
		}
		switch key {
		case "mv":
			s.VisibleMean = f
		case "ml":
			s.LatentMean = f
		case "scrubs":
			s.ScrubsPerYear = f
		case "offset":
			s.ScrubOffset = f
		case "repair":
			s.RepairHours = f
		case "access-rate":
			s.AccessRatePerHour = f
		case "access-coverage":
			s.AccessCoverage = f
		default:
			return storage.Spec{}, fmt.Errorf("replica %q: unknown key %q", v, key)
		}
	}
	return s, nil
}

func run(m modes, rf *runFlags) error {
	if m.record != "" || m.trace != "" {
		if m.server != "" || m.scenario != "" {
			return errors.New("-record and -trace are local single-run modes; they cannot be combined with -server or -scenario")
		}
		if m.record != "" && m.trace != "" {
			return errors.New("-record and -trace are mutually exclusive")
		}
	}
	if m.scenario != "" {
		return runScenario(m.scenario, m.server, m.retries)
	}
	req := rf.req
	if m.server != "" {
		return runRemote(m.server, req, m.retries)
	}

	cfg, opt, err := req.Build()
	if err != nil {
		return err
	}
	if m.record != "" {
		return runRecord(m, cfg, opt, req.HorizonYears)
	}
	if m.trace != "" {
		return runReplay(m, cfg, opt)
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	var sink func(sim.Progress)
	if req.Progress {
		var last time.Time
		sink = func(p sim.Progress) {
			if !p.Final && !last.IsZero() && time.Since(last) < 250*time.Millisecond {
				return
			}
			last = time.Now()
			printProgress(p)
		}
	}
	est, err := runner.EstimateStream(context.Background(), opt, sink)
	if err != nil {
		return err
	}

	return emit(m.asJSON, cfg, est, req.HorizonYears, opt.Horizon)
}

// emit renders a local run's estimate: the daemon's JSON encoding with
// -json, human-readable tables otherwise.
func emit(asJSON bool, cfg sim.Config, est sim.Estimate, horizonYears, horizonHours float64) error {
	if asJSON {
		body, err := json.Marshal(report.NewEstimateJSON(est, horizonHours))
		if err != nil {
			return err
		}
		_, err = fmt.Println(string(body))
		return err
	}
	return renderTables(os.Stdout, horizonYears, cfg, est)
}

// runRecord simulates the configured system while recording every
// trial's fault/detection/repair events, writes the NDJSON trace, and
// reports the run's own estimate — a pinned replay of the written trace
// reproduces exactly these outcomes.
func runRecord(m modes, cfg sim.Config, opt sim.Options, horizonYears float64) error {
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	tr, est, err := runner.RecordTrace(opt)
	if err != nil {
		return err
	}
	f, err := os.Create(m.record)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ltsim: recorded %d events over %d trials (horizon %v h) to %s\n",
		len(tr.Events), tr.Header.Trials, tr.Header.HorizonHours, m.record)
	return emit(m.asJSON, cfg, est, horizonYears, opt.Horizon)
}

// runReplay drives a recorded trace through the configured system:
// pinned to the recorded repairs by default, re-deciding them from the
// flags with -replay-policy. Trial count and horizon come from the
// trace header, overriding -trials and -horizon.
func runReplay(m modes, cfg sim.Config, opt sim.Options) error {
	f, err := os.Open(m.trace)
	if err != nil {
		return err
	}
	tr, err := trace.Parse(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", m.trace, err)
	}
	runner, err := sim.NewReplayRunner(cfg, tr, !m.replayPolicy)
	if err != nil {
		return err
	}
	est, err := runner.ReplayEstimate(opt)
	if err != nil {
		return err
	}
	mode := "pinned"
	if m.replayPolicy {
		mode = "policy"
	}
	fmt.Fprintf(os.Stderr, "ltsim: replayed %d trials from %s (%s mode)\n", tr.Header.Trials, m.trace, mode)
	// The replay's censoring horizon is the trace's, not the flag's; the
	// loss-probability table row should follow it.
	return emit(m.asJSON, cfg, est, model.Years(tr.Header.HorizonHours), tr.Header.HorizonHours)
}

// runScenario executes a scenario document: relayed to a daemon's
// /sweep when server is set, otherwise expanded and simulated locally.
// Both paths emit the daemon's NDJSON sweep lines on stdout — point
// result lines are byte-identical between the two against a daemon with
// no request policy (local runs cannot know a remote -target-rel /
// -max-trials policy); only ordering and the summary line differ.
func runScenario(path, server string, retries int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	if server != "" {
		return relayScenario(server, doc, retries)
	}
	points, err := scenario.Expand(doc)
	if err != nil {
		return err
	}
	start := time.Now()
	enc := json.NewEncoder(os.Stdout)
	summary := service.SweepLine{Summary: true, Requested: len(points)}
	for _, pt := range points {
		line := runScenarioPoint(pt)
		if line.Error != "" {
			summary.Errors++
		} else {
			summary.OK++
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	summary.ElapsedMS = time.Since(start).Milliseconds()
	return enc.Encode(summary)
}

// runScenarioPoint simulates one expanded point and encodes it exactly
// as the daemon's sweep would: same fingerprint, same result bytes.
func runScenarioPoint(pt scenario.Point) service.SweepLine {
	line := service.SweepLine{Index: pt.Index}
	key, est, opt, err := pt.Execute()
	if err != nil {
		line.Error = err.Error()
		return line
	}
	line.Key = key
	body, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
	if err != nil {
		line.Error = err.Error()
		return line
	}
	line.Result = body
	return line
}

// postWithRetry posts body to url, retrying on connection failure or a
// 503 (the daemon's backpressure answer, or a cluster router with every
// worker momentarily ejected) with jittered exponential backoff: 100ms
// base doubling to a 2s cap, each sleep stretched by up to half its
// length again so synchronized clients (a sweep script fanning out, a
// daemon restarting under systemd) don't re-arrive in lockstep. retries
// bounds the attempts after the first; any other status — including
// 4xx, which a retry can never fix — returns immediately.
func postWithRetry(url string, body []byte, retries int) (*http.Response, error) {
	const (
		baseDelay = 100 * time.Millisecond
		maxDelay  = 2 * time.Second
	)
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err == nil && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, nil
		}
		if err == nil {
			if attempt >= retries {
				// Hand the final 503 to the caller so its status-specific
				// error rendering (request ID and all) still applies.
				return resp, nil
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(payload)))
		} else {
			lastErr = err
			if attempt >= retries {
				return nil, lastErr
			}
		}
		delay := baseDelay << attempt
		if delay > maxDelay {
			delay = maxDelay
		}
		delay += time.Duration(rand.Int64N(int64(delay)/2 + 1))
		fmt.Fprintf(os.Stderr, "ltsim: %v; retrying in %s (%d/%d)\n", lastErr, delay.Round(time.Millisecond), attempt+1, retries)
		time.Sleep(delay)
	}
}

// post marshals v and posts it to url through postWithRetry. A reply
// other than 200 becomes an error carrying its status, body and the
// daemon's request ID; a 200 is handed back open, with the request ID
// rendered as a note for the caller's stderr line (empty from a daemon
// that sends none). The daemon tags every response with that ID; surfacing it lets
// a user line their invocation up with the daemon's request log.
func post(url string, v any, retries int) (*http.Response, string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	resp, err := postWithRetry(url, body, retries)
	if err != nil {
		return nil, "", err
	}
	idNote := ""
	if id := resp.Header.Get("X-Ltsimd-Request"); id != "" {
		idNote = ", request " + id
	}
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, "", fmt.Errorf("server returned %s%s: %s", resp.Status, idNote, strings.TrimSpace(string(payload)))
	}
	return resp, idNote, nil
}

// relayScenario posts the document to a running ltsimd for server-side
// expansion and streams the NDJSON sweep back verbatim.
func relayScenario(base string, doc scenario.Document, retries int) error {
	url := strings.TrimSuffix(base, "/") + "/sweep"
	resp, idNote, err := post(url, service.SweepRequest{Scenario: &doc}, retries)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	fmt.Fprintf(os.Stderr, "ltsim: scenario expanded and swept by %s%s\n", url, idNote)
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// printProgress renders one live snapshot on stderr: local runs hand
// their own, -server runs the daemon's frames (which never end " — done").
func printProgress(p sim.Progress) {
	line := fmt.Sprintf("ltsim: %d/%d trials, %d losses, %d censored", p.Trials, p.Budget, p.Losses, p.Censored)
	if p.EffectiveSamples > 0 {
		line += fmt.Sprintf(", ESS %.1f", p.EffectiveSamples)
	}
	if !math.IsInf(p.RelWidth, 1) {
		line += fmt.Sprintf(", rel width %.3f", p.RelWidth)
	}
	if p.TargetRelWidth > 0 {
		line += fmt.Sprintf(" (target %g)", p.TargetRelWidth)
	}
	if p.Final {
		line += " — done"
	}
	fmt.Fprintln(os.Stderr, line)
}

// runRemote sends the request to a running ltsimd and relays the JSON
// response body; the cache disposition header goes to stderr. With
// Progress set the daemon streams NDJSON frames: progress lines render
// on stderr and the final frame's result — the same bytes a plain
// request serves — lands on stdout.
func runRemote(base string, req service.EstimateRequest, retries int) error {
	url := strings.TrimSuffix(base, "/") + "/estimate"
	resp, idNote, err := post(url, req, retries)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if req.Progress {
		return relayProgressStream(url, idNote, resp)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if disp := resp.Header.Get("X-Ltsimd-Cache"); disp != "" {
		fmt.Fprintf(os.Stderr, "ltsim: served from %s (%s%s)\n", url, disp, idNote)
	}
	_, err = os.Stdout.Write(payload)
	return err
}

// relayProgressStream consumes an NDJSON /estimate progress stream.
func relayProgressStream(url, idNote string, resp *http.Response) error {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawFinal := false
	for sc.Scan() {
		var f service.EstimateFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("bad stream frame %q: %v", sc.Text(), err)
		}
		switch {
		case f.Error != "":
			return fmt.Errorf("server error: %s", f.Error)
		case f.Final:
			fmt.Fprintf(os.Stderr, "ltsim: served from %s (%s%s)\n", url, f.Cache, idNote)
			if _, err := os.Stdout.Write(append(f.Result, '\n')); err != nil {
				return err
			}
			sawFinal = true
		case f.Progress != nil:
			// The frame omits what the snapshot leaves unset: no ESS in an
			// unbiased run, no width while it is not yet estimable.
			p := f.Progress
			s := sim.Progress{Trials: p.Trials, Budget: p.Budget, Losses: p.Losses, Censored: p.Censored,
				RelWidth: math.Inf(1), TargetRelWidth: p.Target}
			if p.EffectiveSamples != nil {
				s.EffectiveSamples = *p.EffectiveSamples
			}
			if p.RelWidth != nil {
				s.RelWidth = *p.RelWidth
			}
			printProgress(s)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawFinal {
		return errors.New("stream ended without a final frame")
	}
	return nil
}

// renderTables draws the human-readable report of a local run; a
// positive horizonYears adds the loss-probability row.
func renderTables(out io.Writer, horizonYears float64, cfg sim.Config, est sim.Estimate) error {
	if len(cfg.Specs) > 0 {
		fleet := report.NewTable("Heterogeneous fleet",
			"replica", "label", "MV (h)", "ML (h)", "audit", "repair MRV (h)")
		for i, s := range cfg.ReplicaSpecs() {
			fleet.MustAddRow(i, s.Label, s.VisibleMean, s.LatentMean, s.Scrub.Name(), s.Repair.MeanVisible())
		}
		if err := fleet.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	tbl := report.NewTable(fmt.Sprintf("Monte Carlo estimate (%d trials, %d censored)", est.Trials, est.Censored),
		"quantity", "point", "95% CI low", "95% CI high")
	tbl.MustAddRow("MTTDL (years)",
		model.Years(est.MTTDL.Point), model.Years(est.MTTDL.Lo), model.Years(est.MTTDL.Hi))
	if horizonYears > 0 {
		tbl.MustAddRow(fmt.Sprintf("P(loss in %.0fy)", horizonYears),
			est.LossProb.Point, est.LossProb.Lo, est.LossProb.Hi)
	}
	if est.Bias != 0 {
		tbl.MustAddRow("bias factor β", est.Bias, "", "")
		tbl.MustAddRow("effective losses (ESS)", est.EffectiveSamples, "", "")
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	params := cfg.ModelParams()
	header := "Analytic model for the same system"
	if len(cfg.Specs) > 0 {
		header += " (replica 0's spec)"
	}
	cmp := report.NewTable(header, "quantity", "value")
	cmp.MustAddRow("clamped eq 7 MTTDL (years)", model.Years(params.MTTDL()))
	cmp.MustAddRow("eq 7 / replica-count convention (years)", model.Years(params.MTTDL()/float64(cfg.NumReplicas())))
	regimeVal, regime := params.Approximation()
	cmp.MustAddRow("regime", regime.String())
	cmp.MustAddRow("regime approximation (years)", model.Years(regimeVal))
	if err := cmp.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	mtx := report.NewTable("Empirical double-fault matrix (Figure 2)",
		"first fault", "second fault", "losses", "P(loss | window)")
	for _, first := range []faults.Type{faults.Visible, faults.Latent} {
		for _, second := range []faults.Type{faults.Visible, faults.Latent} {
			p := est.Matrix.ConditionalLossProb(first, second)
			if math.IsNaN(p) {
				continue
			}
			mtx.MustAddRow(first.String(), second.String(), est.Matrix.Losses[first][second], p)
		}
	}
	if err := mtx.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	stats := report.NewTable("Event counts across all trials",
		"visible faults", "latent faults", "detections", "repairs", "shock events", "repair bugs", "audit-induced")
	stats.MustAddRow(est.Stats.VisibleFaults, est.Stats.LatentFaults, est.Stats.Detections,
		est.Stats.Repairs, est.Stats.ShockEvents, est.Stats.RepairBugs, est.Stats.AuditInduced)
	return stats.Render(out)
}
