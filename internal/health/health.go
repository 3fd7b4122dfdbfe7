// Package health is the per-rank health/epoch state machine behind the
// simulator's fail-stop recovery: links and TNIs move healthy → suspect →
// quarantined on consecutive retransmit exhaustion, quarantine is sticky
// (only an explicit probe re-arms a link, never a plan rebuild), and every
// quarantine event advances the health epoch that checkpoint rollback keys
// on.
//
// Failure attribution is deliberately coarse — a failed put implicates both
// its link and its TNI, because the sender cannot tell which is broken.
// The disambiguation is statistical: a dead TNI fails every link it
// serves, so its consecutive-failure counter climbs a multiple faster than
// any one link's, while a severed link's failures are interleaved with
// successes from its TNI siblings, which keep resetting the TNI counter.
// When a TNI is quarantined, links whose failures were observed on it are
// forgiven: the TNI was the culprit, and the §3.3 re-plan gives those
// links a healthy TNI to prove themselves on.
//
// A nil *Tracker is a valid, disabled tracker whose methods are
// single-branch no-ops, following the recorder/registry idiom; tofuvet's
// nilsafe analyzer enforces the guard on every exported method.
package health

import (
	"sort"

	"tofumd/internal/metrics"
	"tofumd/internal/trace"
)

// State is a monitored resource's health.
type State int

const (
	// Healthy resources carry traffic normally.
	Healthy State = iota
	// Suspect resources have failed consecutively but below the quarantine
	// threshold; one success re-arms them.
	Suspect
	// Quarantined resources are withdrawn from the plan permanently: a
	// quarantined TNI is excluded from the §3.3 balance, a quarantined
	// link is routed via MPI. Only an explicit probe re-arms.
	Quarantined
)

// String names the state for traces and errors.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	}
	return "unknown"
}

// LinkKey identifies a directional neighbor link by rank pair.
type LinkKey struct {
	Src, Dst int
}

// Default state-machine thresholds (consecutive retransmit exhaustions).
const (
	// DefaultSuspectAfter moves a resource healthy → suspect.
	DefaultSuspectAfter = 2
	// DefaultQuarantineAfter moves a resource → quarantined. It must
	// exceed SuspectAfter and stay below fallbackK rounds × the minimum
	// links-per-TNI product, or a dead TNI's links all quarantine before
	// the TNI itself does.
	DefaultQuarantineAfter = 4
)

// entry is one monitored resource's state.
type entry struct {
	state  State
	consec int
	// firstFailAt is the virtual time of the first failure in the current
	// consecutive streak, the start of the quarantine trace span.
	firstFailAt float64
	// lastTNI is the TNI the most recent failure was observed on (links
	// only), for forgiveness when that TNI is quarantined.
	lastTNI int
}

// Tracker is the health state machine for one simulation's links and TNIs.
// Not safe for concurrent use; the bulk-synchronous round loop records
// failures one round at a time.
type Tracker struct {
	suspectAfter    int
	quarantineAfter int
	// tniTotal is the node's TNI count (0 = unknown). When set, the last
	// surviving TNI is never quarantined: a node must keep one injection
	// interface, so under a fabric-wide fault storm the final TNI rides it
	// out as suspect while the MPI fallback carries the traffic.
	tniTotal int
	links    map[LinkKey]*entry
	tnis     map[int]*entry
	epoch    uint64
	met      *healthMetrics
	rec      *trace.Recorder
}

// healthMetrics caches the tracker's gauge handles.
type healthMetrics struct {
	linksQ, tnisQ, epoch *metrics.Gauge
}

// New builds a tracker. Non-positive thresholds select the defaults;
// quarantineAfter is clamped above suspectAfter.
func New(suspectAfter, quarantineAfter int) *Tracker {
	if suspectAfter <= 0 {
		suspectAfter = DefaultSuspectAfter
	}
	if quarantineAfter <= 0 {
		quarantineAfter = DefaultQuarantineAfter
	}
	if quarantineAfter <= suspectAfter {
		quarantineAfter = suspectAfter + 1
	}
	return &Tracker{
		suspectAfter:    suspectAfter,
		quarantineAfter: quarantineAfter,
		links:           map[LinkKey]*entry{},
		tnis:            map[int]*entry{},
	}
}

// Enabled reports whether health tracking is active.
func (t *Tracker) Enabled() bool { return t != nil }

// SetTNITotal declares the node's TNI count so the tracker can refuse to
// quarantine the last surviving injection interface. Zero (the default)
// disables the floor.
func (t *Tracker) SetTNITotal(n int) {
	if t == nil {
		return
	}
	t.tniTotal = n
}

// SetMetrics attaches quarantine gauges (health_quarantined links/tnis and
// health_epoch); a nil registry detaches them.
func (t *Tracker) SetMetrics(reg *metrics.Registry) {
	if t == nil {
		return
	}
	if !reg.Enabled() {
		t.met = nil
		return
	}
	t.met = &healthMetrics{
		linksQ: reg.Gauge("health_quarantined", "links"),
		tnisQ:  reg.Gauge("health_quarantined", "tnis"),
		epoch:  reg.Gauge("health_epoch", "epoch"),
	}
}

// SetRecorder attaches a trace recorder; quarantine transitions emit spans
// covering the suspect window (first failure → quarantine).
func (t *Tracker) SetRecorder(rec *trace.Recorder) {
	if t == nil {
		return
	}
	t.rec = rec
}

// Epoch returns the health epoch: the number of quarantine events so far.
// Recovery layers compare epochs to detect that the plan changed under
// them.
func (t *Tracker) Epoch() uint64 {
	if t == nil {
		return 0
	}
	return t.epoch
}

// refreshGauges pushes the quarantine counts into the gauges.
func (t *Tracker) refreshGauges() {
	if t.met == nil {
		return
	}
	nl, nt := 0, 0
	for _, e := range t.links {
		if e.state == Quarantined {
			nl++
		}
	}
	for _, e := range t.tnis {
		if e.state == Quarantined {
			nt++
		}
	}
	t.met.linksQ.Set(float64(nl))
	t.met.tnisQ.Set(float64(nt))
	t.met.epoch.Set(float64(t.epoch))
}

// quarantinedTNICount counts currently quarantined TNIs.
func (t *Tracker) quarantinedTNICount() int {
	n := 0
	for _, e := range t.tnis {
		if e.state == Quarantined {
			n++
		}
	}
	return n
}

// fail advances one entry's state machine by a failure at virtual time now,
// returning the new state and whether this failure crossed into quarantine.
func (t *Tracker) fail(e *entry, now float64) (State, bool) {
	if e.state == Quarantined {
		return Quarantined, false
	}
	if e.consec == 0 {
		e.firstFailAt = now
	}
	e.consec++
	if e.consec >= t.quarantineAfter {
		e.state = Quarantined
		t.epoch++
		return Quarantined, true
	}
	if e.consec >= t.suspectAfter {
		e.state = Suspect
	}
	return e.state, false
}

// RecordLinkFailure records one retransmit-exhausted delivery on the
// src→dst link, observed on TNI tni, at virtual time now. Returns the
// link's state after the transition.
func (t *Tracker) RecordLinkFailure(src, dst, tni int, now float64) State {
	if t == nil {
		return Healthy
	}
	k := LinkKey{Src: src, Dst: dst}
	e := t.links[k]
	if e == nil {
		e = &entry{}
		t.links[k] = e
	}
	e.lastTNI = tni
	st, crossed := t.fail(e, now)
	if crossed {
		t.span("link-quarantine", src, e.firstFailAt, now)
		t.refreshGauges()
	}
	return st
}

// RecordLinkSuccess records a delivered message on the src→dst link. A
// success re-arms healthy/suspect links; quarantine is sticky. With no
// link on record it returns at once: every put of a fault-free round
// calls it.
func (t *Tracker) RecordLinkSuccess(src, dst int) {
	if t == nil || len(t.links) == 0 {
		return
	}
	if e := t.links[LinkKey{Src: src, Dst: dst}]; e != nil && e.state != Quarantined {
		e.state, e.consec = Healthy, 0
	}
}

// RecordTNIFailure records one retransmit-exhausted delivery served by TNI
// tni at virtual time now. Crossing into quarantine forgives the links
// whose failures were observed on this TNI (the TNI was the culprit) and
// returns Quarantined; the caller re-plans over the survivors.
func (t *Tracker) RecordTNIFailure(tni int, now float64) State {
	if t == nil {
		return Healthy
	}
	e := t.tnis[tni]
	if e == nil {
		e = &entry{}
		t.tnis[tni] = e
	}
	// Last-TNI floor: never quarantine the final surviving interface.
	if t.tniTotal > 0 && e.state != Quarantined && e.consec+1 >= t.quarantineAfter &&
		t.quarantinedTNICount() >= t.tniTotal-1 {
		if e.consec == 0 {
			e.firstFailAt = now
		}
		e.consec++
		e.state = Suspect
		return Suspect
	}
	st, crossed := t.fail(e, now)
	if crossed {
		for _, le := range t.links {
			if le.lastTNI == tni {
				le.state, le.consec = Healthy, 0
			}
		}
		t.span("tni-quarantine", tni, e.firstFailAt, now)
		t.refreshGauges()
	}
	return st
}

// RecordTNISuccess records a delivered message served by TNI tni. With no
// TNI on record it returns at once, as RecordLinkSuccess does.
func (t *Tracker) RecordTNISuccess(tni int) {
	if t == nil || len(t.tnis) == 0 {
		return
	}
	if e := t.tnis[tni]; e != nil && e.state != Quarantined {
		e.state, e.consec = Healthy, 0
	}
}

// LinkState returns the src→dst link's state.
func (t *Tracker) LinkState(src, dst int) State {
	if t == nil {
		return Healthy
	}
	if e := t.links[LinkKey{Src: src, Dst: dst}]; e != nil {
		return e.state
	}
	return Healthy
}

// TNIState returns the TNI's state.
func (t *Tracker) TNIState(tni int) State {
	if t == nil {
		return Healthy
	}
	if e := t.tnis[tni]; e != nil {
		return e.state
	}
	return Healthy
}

// LinkQuarantined reports whether the src→dst link is quarantined.
func (t *Tracker) LinkQuarantined(src, dst int) bool {
	if t == nil {
		return false
	}
	return t.LinkState(src, dst) == Quarantined
}

// TNIQuarantined reports whether the TNI is quarantined.
func (t *Tracker) TNIQuarantined(tni int) bool {
	if t == nil {
		return false
	}
	return t.TNIState(tni) == Quarantined
}

// QuarantinedLinkCount returns the number of quarantined links.
func (t *Tracker) QuarantinedLinkCount() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, e := range t.links {
		if e.state == Quarantined {
			n++
		}
	}
	return n
}

// QuarantinedTNIs returns the sorted quarantined TNI indices.
func (t *Tracker) QuarantinedTNIs() []int {
	if t == nil {
		return nil
	}
	var out []int
	for tni, e := range t.tnis {
		if e.state == Quarantined {
			out = append(out, tni)
		}
	}
	sort.Ints(out)
	return out
}

// QuarantinedLinks returns the sorted quarantined link keys.
func (t *Tracker) QuarantinedLinks() []LinkKey {
	if t == nil {
		return nil
	}
	var out []LinkKey
	for k, e := range t.links {
		if e.state == Quarantined {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// ProbeLink is the explicit health probe: the only way a quarantined link
// re-arms. alive is the probe's verdict (in the simulator, whether the
// fault model still fails the link); a live link returns to healthy, a
// dead one stays quarantined. Returns the link's state after the probe.
func (t *Tracker) ProbeLink(src, dst int, alive bool, now float64) State {
	if t == nil {
		return Healthy
	}
	e := t.links[LinkKey{Src: src, Dst: dst}]
	if e == nil || e.state != Quarantined {
		return t.LinkState(src, dst)
	}
	if alive {
		e.state, e.consec = Healthy, 0
		t.span("link-probe-rearm", src, now, now)
		t.refreshGauges()
	}
	return e.state
}

// ProbeTNI is the explicit probe for a quarantined TNI; a live TNI returns
// to healthy (the caller re-plans to include it again).
func (t *Tracker) ProbeTNI(tni int, alive bool, now float64) State {
	if t == nil {
		return Healthy
	}
	e := t.tnis[tni]
	if e == nil || e.state != Quarantined {
		return t.TNIState(tni)
	}
	if alive {
		e.state, e.consec = Healthy, 0
		t.span("tni-probe-rearm", tni, now, now)
		t.refreshGauges()
	}
	return e.state
}

// span emits one health transition span. rank carries the source rank for
// links and the TNI index for TNIs (the trace viewer groups by it).
func (t *Tracker) span(name string, rank int, start, end float64) {
	if !t.rec.Enabled() {
		return
	}
	t.rec.Span(trace.SpanEvent{
		Rank: rank, Name: name, Stage: "health",
		Start: start, End: end,
	})
}
