package sim

import (
	"math"
	"strconv"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/scrub"
)

// replicaState is the per-replica lifecycle.
type replicaState int

const (
	stateHealthy replicaState = iota
	// stateLatent: an undetected latent fault is outstanding. The
	// replica still serves (wrong) data; no one knows.
	stateLatent
	// stateRepairing: a fault is known and repair is underway. The
	// replica is unavailable as a recovery source until repair
	// completes.
	stateRepairing
)

// TrialStats counts what happened during one trial.
type TrialStats struct {
	VisibleFaults  int // visible faults incurred (incl. shock-inflicted)
	LatentFaults   int // latent faults incurred (incl. audit/repair-planted)
	Detections     int // latent faults surfaced by audit/access/visible fault
	Repairs        int // completed repairs
	Audits         int // audit passes executed (0 in the lazy fast path)
	ShockEvents    int // common-cause events fired
	AuditInduced   int // faults planted by audit side effects
	RepairBugs     int // latent faults planted by buggy repairs
	WOVOpenedByVis int // windows of vulnerability opened by a visible fault
	WOVOpenedByLat int // windows opened by a latent fault
}

// add accumulates other into s.
func (s *TrialStats) add(o TrialStats) {
	s.VisibleFaults += o.VisibleFaults
	s.LatentFaults += o.LatentFaults
	s.Detections += o.Detections
	s.Repairs += o.Repairs
	s.Audits += o.Audits
	s.ShockEvents += o.ShockEvents
	s.AuditInduced += o.AuditInduced
	s.RepairBugs += o.RepairBugs
	s.WOVOpenedByVis += o.WOVOpenedByVis
	s.WOVOpenedByLat += o.WOVOpenedByLat
}

// TrialResult is the outcome of one trial.
type TrialResult struct {
	// Lost reports whether data loss occurred before the horizon.
	Lost bool
	// Time is the loss time (hours) when Lost, else the censoring
	// horizon.
	Time float64
	// FirstFault and FinalFault are the classes of the fault that opened
	// the fatal window of vulnerability and the fault that closed it —
	// the coordinates of the paper's Figure 2 matrix. Valid only when
	// Lost.
	FirstFault, FinalFault faults.Type
	// Weight is the likelihood-ratio weight dP/dQ of the trial's fault
	// path when the trial ran under failure biasing, 1 otherwise.
	// Horvitz–Thompson estimators multiply each observation by it to
	// undo the biased sampling measure exactly.
	Weight float64
	// Stats counts trial events.
	Stats TrialStats
}

// replica is the per-copy simulation state.
type replica struct {
	state replicaState
	// faultKind is the class of the outstanding fault (valid outside
	// stateHealthy). A latent-faulty replica hit by a visible fault
	// escalates to visible.
	faultKind faults.Type
	// faultAt is when the current outstanding fault occurred.
	faultAt float64

	visible *faults.Process
	latent  *faults.Process

	// visRate and latRate track the true (unbiased) hazard rates of the
	// currently armed fault arrivals, for likelihood-ratio exposure
	// accounting under failure biasing; 0 when the arrival is unarmed.
	// Maintained only while biasing is on.
	visRate float64
	latRate float64

	// The replica's events, each a timer bound to its (trial, index)
	// handler once per trial allocation: arming, re-arming and clearing
	// move one heap entry and allocate nothing.
	visibleEv des.Timer // visible fault arrival
	latentEv  des.Timer // latent fault arrival
	detectEv  des.Timer // access-channel detection
	repairEv  des.Timer // repair completion
	auditEv   des.Timer // next audit pass (never armed under lazyAudit)

	// The replica's role streams: visible and latent fault arrivals,
	// repair durations and repair-bug draws.
	visSrc, latSrc, repairSrc, bugSrc stream
}

// stream is one of a trial's role streams. It is derived from the
// trial stream under its label the first time the trial draws from it
// (trial.draw), not when the trial starts: many trials never repair,
// audit or shock, and a stream derived late is the one derived at
// start, because derivation reads only the trial stream's identity and
// the label.
type stream struct {
	src   rng.Source
	label uint64
	stale bool
}

// Derivation labels of the trial's own role streams, hashed once:
// audit schedules, access detection, audit side effects (wear) and
// shocks. A replica's labels are replicaLabel's.
var (
	scheduleLabel = rng.StringLabel("audit/schedule")
	accessLabel   = rng.StringLabel("audit/access")
	wearLabel     = rng.StringLabel("audit/wear")
	shockLabel    = rng.StringLabel("shock")
)

// replicaLabel is the derivation label of replica i's role stream
// ("visible", "latent", "repair" or "bug").
func replicaLabel(i int, role string) uint64 {
	return rng.StringLabel("replica/" + strconv.Itoa(i) + "/" + role)
}

// trial is one running simulation.
type trial struct {
	cfg *Config
	// specs is the per-replica expansion of cfg: each replica draws its
	// fault, audit, detection, and repair behaviour from its own entry.
	specs []ReplicaSpec
	eng   *des.Engine
	reps  []*replica

	// src is the trial's stream. It draws nothing itself: every draw
	// comes from a role stream derived from it (see stream), and
	// streams lists them all, the replicas' included, for start to
	// mark stale.
	src                    rng.Source
	schedule, access, wear stream
	shocks                 stream
	streams                []*stream

	// accel[n] is cfg.Correlation.Acceleration(n), tabulated for
	// n = 0..len(specs) at allocation (Acceleration is pure).
	accel []float64
	// static reports that no faulty-count transition can change a fault
	// process's rate: every accel entry is 1 and biasing is off, so
	// applyAcceleration has nothing to re-arm. Set by setBiasFactor.
	static bool

	// lossAt is the faulty-replica count at which the data become
	// irrecoverable: Replicas - MinIntact + 1.
	lossAt int

	// lazyAudit short-circuits audit scheduling: when audits have no
	// side effects, an audit pass only matters if a latent fault is
	// outstanding, so the detection time can be computed directly at
	// fault time instead of simulating every pass. Exact for the
	// strategies shipped here: Periodic is deterministic from absolute
	// time, Poisson/OnAccess are memoryless. It depends on the config
	// alone — recording a trial does not change it — so a recorded run
	// draws exactly what a plain one does; only TraceTrial switches it
	// off, to put every audit pass on the Figure 1 timeline.
	lazyAudit bool

	faulty int // replicas not healthy

	// Failure biasing (importance sampling). While any replica is
	// faulty, every armed fault arrival is accelerated by bias β and
	// the trial accumulates the log likelihood ratio of the biased path:
	// each biased arrival that fires contributes −ln β, and every armed
	// biased process contributes (β−1)·λ_true per unit time of exposure
	// (the survival-density ratio of the exponential draw). bias <= 1
	// disables all of it and the trial is bit-identical to the
	// historical unbiased path.
	bias      float64 // β; 0 when biasing is off
	logBias   float64 // ln β, precomputed
	logW      float64 // accumulated log likelihood ratio ln(dP/dQ)
	wSyncAt   float64 // simulation time logW exposure is accrued through
	armedRate float64 // Σ true rates of currently armed fault arrivals

	lost     bool
	lossTime float64
	first    faults.Type // fault class that opened the fatal WOV
	final    faults.Type // fault class that completed it

	stats TrialStats
	trace *Trace // optional event trace (nil = off)

	// replay, when non-nil, switches the trial from generative to
	// replay mode: fault arrivals come from a recorded event stream
	// instead of the sampled processes (armVisible/armLatent/armShock
	// no-op), and §6.6 side-effect faults are never re-sampled — the
	// recorded stream already contains them. See replay.go.
	replay *replaySchedule

	// shockEv are the timers of cfg.Shocks and replayEv the replay
	// cursor's, bound once like the per-replica ones.
	shockEv  []des.Timer
	replayEv des.Timer
	// struck is the reusable target buffer of onShock.
	struck []int
}

// allocTrial allocates a trial's reusable state — engine, replicas,
// fault processes, derived-source slots, event timers — without
// arming any events. A worker allocates once and then runs many trials
// through start, which re-seeds and re-arms in place; the sequence of
// random draws and scheduled events is identical to a freshly built
// trial, so reuse cannot change results. trace may be nil; specs must
// be cfg.ReplicaSpecs(), precomputed by the caller so estimation runs
// expand the config once, not once per trial.
func allocTrial(cfg *Config, specs []ReplicaSpec, trace *Trace) *trial {
	t := &trial{
		cfg:       cfg,
		specs:     specs,
		eng:       &des.Engine{},
		reps:      make([]*replica, len(specs)),
		accel:     make([]float64, len(specs)+1),
		trace:     trace,
		lazyAudit: cfg.AuditLatentFaultProb == 0 && cfg.AuditVisibleFaultProb == 0,
	}
	for n := range t.accel {
		t.accel[n] = cfg.Correlation.Acceleration(n)
	}
	t.setBiasFactor(0)
	minIntact := cfg.MinIntact
	if minIntact < 1 {
		minIntact = 1
	}
	t.lossAt = len(specs) - minIntact + 1
	for i := range t.reps {
		vis, err := faults.NewProcess(specs[i].VisibleMean)
		if err != nil {
			panic("sim: config validated but visible process rejected: " + err.Error())
		}
		lat, err := faults.NewProcess(specs[i].LatentMean)
		if err != nil {
			panic("sim: config validated but latent process rejected: " + err.Error())
		}
		if h := specs[i].Hazard; h != nil {
			vis.SetProfile(h)
			lat.SetProfile(h)
		}
		r := &replica{visible: vis, latent: lat}
		r.visSrc.label = replicaLabel(i, "visible")
		r.latSrc.label = replicaLabel(i, "latent")
		r.repairSrc.label = replicaLabel(i, "repair")
		r.bugSrc.label = replicaLabel(i, "bug")
		t.streams = append(t.streams, &r.visSrc, &r.latSrc, &r.repairSrc, &r.bugSrc)
		i := i
		// A biased arrival firing contributes the density-ratio factor
		// 1/β; an arrival is biased exactly when it fires inside a
		// faulty window (applyAcceleration re-samples every armed draw
		// at each boost transition, so the pending draw always matches
		// the current boost state).
		r.visibleEv = t.eng.NewTimer(func(*des.Engine) {
			if t.bias > 1 && t.faulty > 0 {
				t.logW -= t.logBias
			}
			t.onFault(i, faults.Visible, false)
		})
		r.latentEv = t.eng.NewTimer(func(*des.Engine) {
			if t.bias > 1 && t.faulty > 0 {
				t.logW -= t.logBias
			}
			t.onFault(i, faults.Latent, false)
		})
		r.detectEv = t.eng.NewTimer(func(*des.Engine) { t.onDetected(i) })
		r.repairEv = t.eng.NewTimer(func(*des.Engine) { t.onRepaired(i) })
		r.auditEv = t.eng.NewTimer(func(*des.Engine) {
			t.onAudit(i)
			t.armAudit(i)
		})
		t.reps[i] = r
	}
	t.shockEv = make([]des.Timer, len(cfg.Shocks))
	for si := range cfg.Shocks {
		si := si
		t.shockEv[si] = t.eng.NewTimer(func(*des.Engine) {
			t.onShock(si)
			if !t.lost {
				t.armShock(si)
			}
		})
	}
	t.replayEv = t.eng.NewTimer(func(*des.Engine) { t.replayStep() })
	t.schedule.label, t.access.label, t.wear.label, t.shocks.label = scheduleLabel, accessLabel, wearLabel, shockLabel
	t.streams = append(t.streams, &t.schedule, &t.access, &t.wear, &t.shocks)
	return t
}

// start (re)initializes the trial from a trial-specific stream and arms
// the initial events. The derivation labels, draw order, and event
// scheduling order are fixed, so a reset trial is bit-identical to a
// freshly allocated one.
func (t *trial) start(src *rng.Source) {
	t.eng.Reset()
	t.src = *src
	for _, s := range t.streams {
		s.stale = true
	}
	t.faulty = 0
	t.lost = false
	t.lossTime = 0
	t.first, t.final = 0, 0
	t.stats = TrialStats{}
	t.logW = 0
	t.wSyncAt = 0
	t.armedRate = 0
	for _, r := range t.reps {
		r.state = stateHealthy
		r.faultKind = 0
		r.faultAt = 0
		r.visible.SetAcceleration(1)
		r.latent.SetAcceleration(1)
		if t.bias > 1 {
			// No replica is faulty at t=0, so sampling starts unbiased.
			r.visible.SetBias(1)
			r.latent.SetBias(1)
			r.visRate, r.latRate = 0, 0
		}
	}
	// Arm the initial fault arrivals and audit schedules.
	for i := range t.reps {
		t.armVisible(i)
		t.armLatent(i)
		if !t.lazyAudit {
			t.armAudit(i)
		}
	}
	// Arm common-cause shocks.
	for si := range t.cfg.Shocks {
		t.armShock(si)
	}
	// In replay mode the exogenous events come from the recorded stream.
	if t.replay != nil {
		t.scheduleReplay()
	}
}

// run executes the trial until loss or horizon (0 = run to loss).
func (t *trial) run(horizon float64) TrialResult {
	if horizon > 0 {
		t.eng.RunUntil(horizon)
	} else {
		t.eng.Run()
	}
	res := TrialResult{Lost: t.lost, Stats: t.stats, Weight: 1}
	if t.lost {
		res.Time = t.lossTime
		res.FirstFault = t.first
		res.FinalFault = t.final
	} else {
		res.Time = horizon
	}
	if t.bias > 1 {
		if !t.lost && horizon > 0 && t.faulty > 0 {
			// Censored with an open faulty window: the still-armed biased
			// draws survived to the horizon, contributing their survival
			// ratio over the un-synced tail.
			t.logW += (t.bias - 1) * t.armedRate * (horizon - t.wSyncAt)
		}
		res.Weight = math.Exp(t.logW)
	}
	return res
}

// setBiasFactor configures failure biasing for every trial this
// allocation runs: while any replica is faulty, armed fault arrivals
// sample at β times their true hazard and the trial tracks the
// likelihood-ratio weight that corrects the estimate. beta <= 1 turns
// biasing off entirely (the historical, weightless path).
func (t *trial) setBiasFactor(beta float64) {
	if beta > 1 {
		t.bias = beta
		t.logBias = math.Log(beta)
	} else {
		t.bias = 0
		t.logBias = 0
	}
	t.static = t.bias == 0
	for _, a := range t.accel {
		if a != 1 {
			t.static = false
		}
	}
}

// draw returns s's source, deriving it from the trial stream on first
// use.
func (t *trial) draw(s *stream) *rng.Source {
	if s.stale {
		t.src.DeriveInto(s.label, &s.src)
		s.stale = false
	}
	return &s.src
}

// wSync accrues likelihood-ratio exposure for the interval since the
// last sync: while faulty, every armed biased draw contributes
// (β−1)·λ_true per unit time. Callers must sync before mutating
// t.faulty or any armed rate, so the elapsed interval is charged under
// the state it actually ran in.
func (t *trial) wSync() {
	now := t.eng.Now()
	if t.faulty > 0 && now > t.wSyncAt {
		t.logW += (t.bias - 1) * t.armedRate * (now - t.wSyncAt)
	}
	t.wSyncAt = now
}

// noteRate records that a tracked armed-arrival hazard slot changed,
// accruing exposure up to now first.
func (t *trial) noteRate(slot *float64, nr float64) {
	t.wSync()
	t.armedRate += nr - *slot
	*slot = nr
}

// armVisible schedules the next visible fault for replica i if eligible.
// Visible faults strike healthy replicas and latent-faulty ones (a disk
// with silent corruption can still crash); repairing replicas are already
// being restored.
func (t *trial) armVisible(i int) {
	if t.replay != nil {
		return
	}
	r := t.reps[i]
	at := math.Inf(1)
	if r.state != stateRepairing && !r.visible.Disabled() {
		at = t.eng.Now() + r.visible.SampleNextAt(t.eng.Now(), t.draw(&r.visSrc))
	}
	t.arm(r.visibleEv, at)
	if t.bias > 1 {
		nr := 0.0
		if t.eng.Armed(r.visibleEv) {
			nr = 1 / r.visible.EffectiveMean()
		}
		t.noteRate(&r.visRate, nr)
	}
}

// armLatent schedules the next latent fault for replica i if healthy.
func (t *trial) armLatent(i int) {
	if t.replay != nil {
		return
	}
	r := t.reps[i]
	at := math.Inf(1)
	if r.state == stateHealthy && !r.latent.Disabled() {
		at = t.eng.Now() + r.latent.SampleNextAt(t.eng.Now(), t.draw(&r.latSrc))
	}
	t.arm(r.latentEv, at)
	if t.bias > 1 {
		nr := 0.0
		if t.eng.Armed(r.latentEv) {
			nr = 1 / r.latent.EffectiveMean()
		}
		t.noteRate(&r.latRate, nr)
	}
}

// scrubFor returns the audit strategy for replica i.
func (t *trial) scrubFor(i int) scrub.Strategy {
	return t.specs[i].Scrub
}

// armAudit schedules the next audit pass for replica i.
func (t *trial) armAudit(i int) {
	if t.lost {
		return
	}
	at, ok := t.scrubFor(i).NextAudit(t.eng.Now(), t.draw(&t.schedule))
	if !ok {
		return
	}
	t.eng.Set(t.reps[i].auditEv, at)
}

// armShock schedules the next firing of shock si.
func (t *trial) armShock(si int) {
	if t.replay != nil {
		// Recorded streams already embody shock outcomes as plain fault
		// events.
		return
	}
	s := &t.cfg.Shocks[si]
	t.eng.Set(t.shockEv[si], t.eng.Now()+s.SampleNext(t.draw(&t.shocks)))
}

// armDetection schedules the discovery of replica i's outstanding latent
// fault through whichever channel fires first: the audit schedule (in
// lazy mode; otherwise the recurring audit events handle it) and the
// user-access channel. Sampling the earliest of the channels at fault
// time is exact for deterministic-periodic and memoryless strategies.
func (t *trial) armDetection(i int) {
	r := t.reps[i]
	best := math.Inf(1)
	if t.lazyAudit {
		if at, ok := t.scrubFor(i).NextAudit(t.eng.Now(), t.draw(&t.schedule)); ok && at < best {
			best = at
		}
	}
	if ad := t.specs[i].AccessDetect; ad != nil {
		if at, ok := ad.NextAudit(t.eng.Now(), t.draw(&t.access)); ok && at < best {
			best = at
		}
	}
	t.arm(r.detectEv, best)
}

// arm sets tm to fire at at, re-keying it in place if it is armed, or
// clears it when at is +Inf: the event never comes.
func (t *trial) arm(tm des.Timer, at float64) {
	if math.IsInf(at, 1) {
		t.eng.Clear(tm)
	} else {
		t.eng.Set(tm, at)
	}
}

// onFault applies a fault of the given class to replica i. planted marks
// §6.6 side-effect faults (from audits or buggy repairs) for accounting.
func (t *trial) onFault(i int, kind faults.Type, planted bool) {
	if t.lost {
		return
	}
	r := t.reps[i]
	now := t.eng.Now()
	switch kind {
	case faults.Visible:
		t.stats.VisibleFaults++
	case faults.Latent:
		t.stats.LatentFaults++
	}
	t.traceEvent(now, i, eventFault, kind, planted)

	switch r.state {
	case stateHealthy:
		r.faultKind = kind
		r.faultAt = now
		if t.faulty == 0 {
			// This fault opens a window of vulnerability.
			t.first = kind
			if kind == faults.Visible {
				t.stats.WOVOpenedByVis++
			} else {
				t.stats.WOVOpenedByLat++
			}
		}
		// State must change before setFaulty so that the correlation
		// re-arm inside it treats this replica as faulty (its own
		// processes run at base rate).
		if kind == faults.Visible {
			r.state = stateRepairing
		} else {
			r.state = stateLatent
		}
		t.setFaulty(i, kind)
		if t.lost {
			return
		}
		if kind == faults.Visible {
			t.startRepair(i)
		} else {
			t.armDetection(i)
			// The latent process pauses (one outstanding latent fault
			// is enough); the visible process keeps running.
			t.armLatent(i)
			t.armVisible(i)
		}
	case stateLatent:
		if kind == faults.Visible {
			// The silent corruption's disk now visibly fails; the
			// repair that follows will restore everything. The fault
			// that opened this replica's bad spell keeps its class for
			// loss accounting.
			t.stats.Detections++
			t.traceEvent(now, i, eventDetected, r.faultKind, false)
			r.state = stateRepairing
			r.faultKind = faults.Visible
			t.startRepair(i)
		}
		// A second latent fault on an already latent-faulty replica
		// changes nothing.
	case stateRepairing:
		// Already being restored; further faults during repair are
		// absorbed by the restore. (Repair-planted faults are applied
		// after completion, not here.)
	}
}

// onAudit runs one audit pass on replica i: detect an outstanding latent
// fault, then possibly plant a side-effect fault (§6.6).
func (t *trial) onAudit(i int) {
	if t.lost {
		return
	}
	t.stats.Audits++
	r := t.reps[i]
	t.traceEvent(t.eng.Now(), i, eventAudit, faults.Latent, false)
	if r.state == stateLatent {
		t.onDetected(i)
	}
	// Side effects apply to replicas the audit actually touched; a
	// replica under repair is not audited. Replay never re-samples side
	// effects: planted faults ride in the recorded stream.
	if r.state == stateRepairing || t.replay != nil {
		return
	}
	if t.cfg.AuditVisibleFaultProb > 0 && t.draw(&t.wear).Bool(t.cfg.AuditVisibleFaultProb) {
		t.stats.AuditInduced++
		t.onFault(i, faults.Visible, true)
		return
	}
	if t.cfg.AuditLatentFaultProb > 0 && r.state == stateHealthy && t.draw(&t.wear).Bool(t.cfg.AuditLatentFaultProb) {
		t.stats.AuditInduced++
		t.onFault(i, faults.Latent, true)
	}
}

// onDetected surfaces replica i's latent fault and starts repair.
func (t *trial) onDetected(i int) {
	if t.lost {
		return
	}
	r := t.reps[i]
	if r.state != stateLatent {
		return
	}
	t.stats.Detections++
	t.traceEvent(t.eng.Now(), i, eventDetected, faults.Latent, false)
	t.eng.Clear(r.detectEv)
	r.state = stateRepairing
	// The visible arrival no longer matters while repairing.
	t.eng.Clear(r.visibleEv)
	t.startRepair(i)
}

// onShock fires common-cause shock si.
func (t *trial) onShock(si int) {
	if t.lost {
		return
	}
	s := &t.cfg.Shocks[si]
	t.stats.ShockEvents++
	t.struck = s.StrikeInto(t.draw(&t.shocks), t.struck)
	for _, target := range t.struck {
		if t.lost {
			return
		}
		t.onFault(target, s.Kind, false)
	}
}

// startRepair schedules replica i's repair completion. The caller has
// already moved it to stateRepairing and accounted the fault.
func (t *trial) startRepair(i int) {
	r := t.reps[i]
	// Fault arrivals pause during repair.
	t.eng.Clear(r.visibleEv)
	t.eng.Clear(r.latentEv)
	t.eng.Clear(r.detectEv)
	if t.bias > 1 {
		t.noteRate(&r.visRate, 0)
		t.noteRate(&r.latRate, 0)
	}
	if t.replay != nil && t.replay.pinRepairs {
		// Pinned replay: the recorded stream's repair events complete
		// this repair; no policy duration is sampled.
		t.traceEvent(t.eng.Now(), i, eventRepairStart, r.faultKind, false)
		return
	}
	d := t.specs[i].Repair.Duration(r.faultKind == faults.Visible, t.draw(&r.repairSrc))
	t.eng.Set(r.repairEv, t.eng.Now()+d)
	t.traceEvent(t.eng.Now(), i, eventRepairStart, r.faultKind, false)
}

// onRepaired completes replica i's repair.
func (t *trial) onRepaired(i int) {
	if t.lost {
		return
	}
	r := t.reps[i]
	t.stats.Repairs++
	t.traceEvent(t.eng.Now(), i, eventRepaired, r.faultKind, false)
	r.state = stateHealthy
	t.setHealthy(i)
	t.armVisible(i)
	t.armLatent(i)
	// §6.6: buggy automation can leave a fresh latent fault behind. In
	// replay mode the recorded stream already carries planted faults, so
	// they are never re-sampled.
	if p := &t.specs[i].Repair; t.replay == nil && p.BugLatentProb > 0 && p.RepairPlantsFault(t.draw(&r.bugSrc)) {
		t.stats.RepairBugs++
		t.onFault(i, faults.Latent, true)
	}
}

// setFaulty transitions replica i into the faulty population and checks
// for data loss.
func (t *trial) setFaulty(i int, kind faults.Type) {
	if t.bias > 1 {
		// Accrue exposure under the pre-transition boost state before
		// the faulty count (and with it the biased/unbiased regime)
		// changes.
		t.wSync()
	}
	t.faulty++
	if t.faulty == t.lossAt {
		t.lost = true
		t.lossTime = t.eng.Now()
		t.final = kind
		t.traceEvent(t.lossTime, i, eventDataLoss, kind, false)
		t.eng.Stop()
		return
	}
	t.applyAcceleration(i)
}

// setHealthy transitions replica i back into the healthy population.
// The caller arms its fault arrivals.
func (t *trial) setHealthy(i int) {
	if t.bias > 1 {
		t.wSync()
	}
	t.faulty--
	t.applyAcceleration(i)
}

// applyAcceleration re-arms the fault processes of non-faulty replicas
// with the correlation model's current hazard multiplier, and — under
// failure biasing — switches every replica's sampling bias on or off
// with the faulty window. Valid because the processes are memoryless:
// resampling the remaining wait preserves the distribution. The bias
// term in the re-arm condition is what guarantees a pending draw always
// matches the current boost regime (with Independent correlation it is
// the only trigger on a faulty transition), so "fired while faulty" is
// exactly "drawn biased". In the static regime the re-arm condition can
// never hold: start sets every acceleration to 1, the table only ever
// asks for 1, and with biasing off SetBias is never called, so the loop
// is skipped outright.
//
// moved is the replica whose transition this is. Its processes take
// the new multiplier and bias but are not re-armed here: its caller
// arms them once, at the same instant (onRepaired both arrivals, the
// latent branch of onFault the visible one; a replica entering repair
// has none), so a draw made here would be thrown away unseen.
func (t *trial) applyAcceleration(moved int) {
	if t.static {
		return
	}
	accel := t.accel[t.faulty]
	boost := 1.0
	if t.bias > 1 && t.faulty > 0 {
		boost = t.bias
	}
	for i, r := range t.reps {
		target := 1.0
		if r.state == stateHealthy {
			target = accel
		}
		if r.visible.Acceleration() != target || r.latent.Acceleration() != target || r.visible.Bias() != boost {
			r.visible.SetAcceleration(target)
			r.latent.SetAcceleration(target)
			r.visible.SetBias(boost)
			r.latent.SetBias(boost)
			if i != moved {
				t.armVisible(i)
				t.armLatent(i)
			}
		}
	}
}
