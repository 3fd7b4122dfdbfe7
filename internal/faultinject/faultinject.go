// Package faultinject is a deterministic, seeded fault model for the
// simulated TofuD fabric: per-link packet drops, receiver-side MRQ-overflow
// NACKs, transient TNI stalls, and per-link degradation windows expressed in
// virtual time. The model plugs into tofu.Fabric's transfer path; the layers
// above (utofu retransmission, mpi retry, the halo fallback) provide the
// recovery behavior the faults exercise.
//
// Every draw comes from an internal/xrand stream keyed by (seed, fabric
// round, link), so a run's fault pattern is a pure function of the spec and
// the deterministic order in which the DES replays transfers — two runs of
// the same input are bit-identical, faults included. A nil *Model is a
// valid, disabled model whose methods are single-branch no-ops, following
// the recorder/registry idiom.
//
// Beyond the probabilistic transient faults, the spec can schedule permanent
// fail-stop faults at absolute virtual times: a TNI that dies (tnifail), a
// one-sided link that is severed (linkfail), a rank that fail-stops
// (rankfail). Permanent faults draw nothing from the streams — they are pure
// functions of the spec and the clock — so adding one never perturbs the
// transient fault pattern of an otherwise-identical run.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tofumd/internal/xrand"
)

// maxProb caps fault probabilities. A drop rate of 1.0 would make every
// retransmission fail forever and turn the reliable MPI path into an
// infinite loop; specs that lossy are configuration errors, not chaos.
const maxProb = 0.99

// Spec is the parsed fault-injection configuration (the -faults flag).
// The zero value is a disabled spec.
type Spec struct {
	// Seed keys every fault stream; two runs with equal specs draw
	// identical faults.
	Seed uint64
	// Drop is the per-transmission probability the payload is lost in the
	// torus: no delivery, no receiver completion. Applies to both the uTofu
	// and MPI interfaces.
	Drop float64
	// Nack is the per-delivery probability the receiving TNI rejects the
	// message with an MRQ-overflow NACK. One-sided (uTofu) deliveries only:
	// the MPI stack pre-posts its receive resources.
	Nack float64
	// StallProb/StallTime model transient TNI stalls: with StallProb the
	// serving engine pauses StallTime virtual seconds before the command.
	StallProb float64
	StallTime float64
	// DegradeProb/DegradeFactor/DegradeWindow model link degradation: with
	// DegradeProb per (round, link), wire time is multiplied by
	// DegradeFactor while the round's virtual clock is inside the first
	// DegradeWindow seconds.
	DegradeProb   float64
	DegradeFactor float64
	DegradeWindow float64
	// TNIFails, LinkFails and RankFails schedule permanent fail-stop faults
	// (see the type docs). They make Spec non-comparable; use
	// reflect.DeepEqual in tests.
	TNIFails  []TNIFail
	LinkFails []LinkFail
	RankFails []RankFail
}

// TNIFail is a permanent TNI failure: TNI index Idx stops serving one-sided
// traffic on every node at absolute virtual time At (the fabric-wide
// failure mode of a firmware fault). The MPI stack survives — system
// software re-binds its injection queues away from dead interfaces — which
// is what makes the per-neighbor MPI fallback a recovery, not a retry.
type TNIFail struct {
	Idx int
	At  float64
}

// LinkFail is a permanent link failure: the one-sided (uTofu) Src→Dst rank
// path is severed at absolute virtual time At. Directional: the reverse
// path needs its own term.
type LinkFail struct {
	Src, Dst int
	At       float64
}

// RankFail is a fail-stop rank failure: rank Rank halts at absolute virtual
// time At. The simulation layer detects it through its (perfect) failure
// detector at the next step boundary and performs checkpoint rollback.
type RankFail struct {
	Rank int
	At   float64
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.Drop > 0 || s.Nack > 0 || s.StallProb > 0 || s.DegradeProb > 0 ||
		len(s.TNIFails) > 0 || len(s.LinkFails) > 0 || len(s.RankFails) > 0
}

// WithoutRankFails returns a copy of the spec with every rankfail term
// removed. Checkpoint-rollback recovery rebuilds the decomposition with
// renumbered ranks, so rank-addressed fail-stop terms do not carry over to
// the recovered run; the caller strips them before re-attaching faults.
func (s Spec) WithoutRankFails() Spec {
	s.RankFails = nil
	return s
}

// String renders the spec in the canonical flag grammar; parsing the result
// round-trips. A disabled spec renders as "".
func (s Spec) String() string {
	var parts []string
	if s.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", s.Drop))
	}
	if s.Nack > 0 {
		parts = append(parts, fmt.Sprintf("nack=%g", s.Nack))
	}
	if s.StallProb > 0 {
		parts = append(parts, fmt.Sprintf("stall=%g@%g", s.StallProb, s.StallTime))
	}
	if s.DegradeProb > 0 {
		parts = append(parts, fmt.Sprintf("degrade=%g@%gx%g", s.DegradeProb, s.DegradeFactor, s.DegradeWindow))
	}
	for _, f := range s.TNIFails {
		parts = append(parts, fmt.Sprintf("tnifail=%d@%g", f.Idx, f.At))
	}
	for _, f := range s.LinkFails {
		parts = append(parts, fmt.Sprintf("linkfail=%d-%d@%g", f.Src, f.Dst, f.At))
	}
	for _, f := range s.RankFails {
		parts = append(parts, fmt.Sprintf("rankfail=%d@%g", f.Rank, f.At))
	}
	if len(parts) == 0 {
		return ""
	}
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(parts, ",")
}

// ParseSpec parses the -faults flag grammar: comma-separated key=value
// terms.
//
//	drop=P            per-transmission drop probability
//	nack=P            per-delivery MRQ-overflow NACK probability (uTofu)
//	stall=P@T         TNI stall probability P, duration T seconds
//	degrade=P@FxW     per-(round,link) degradation probability P, wire-time
//	                  factor F, window W virtual seconds from round start
//	tnifail=IDX@T     TNI index IDX dies permanently at virtual time T
//	linkfail=S-D@T    the one-sided rank S→D path is severed at time T
//	rankfail=R@T      rank R fail-stops at virtual time T
//	seed=N            fault stream seed (default 0)
//
// Probabilities must lie in [0, 0.99]. The three permanent-fault terms may
// repeat to schedule several failures. An empty string is a disabled spec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	prob := func(key, val string) (float64, error) {
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("faultinject: %s=%q: %v", key, val, err)
		}
		if p < 0 || p > maxProb {
			return 0, fmt.Errorf("faultinject: %s=%g outside [0, %g]", key, p, maxProb)
		}
		return p, nil
	}
	// failAt splits the "<what>@T" shape of the permanent-fault terms and
	// validates the time.
	failAt := func(key, val string) (string, float64, error) {
		what, tStr, ok := strings.Cut(val, "@")
		if !ok {
			return "", 0, fmt.Errorf("faultinject: %s=%q: want %s=...@T", key, val, key)
		}
		at, err := strconv.ParseFloat(tStr, 64)
		if err != nil || at < 0 {
			return "", 0, fmt.Errorf("faultinject: %s time %q: want non-negative virtual seconds", key, tStr)
		}
		return what, at, nil
	}
	nonNeg := func(key, val string) (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("faultinject: %s index %q: want non-negative integer", key, val)
		}
		return n, nil
	}
	for _, term := range strings.Split(text, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: term %q: want key=value", term)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faultinject: seed=%q: %v", val, err)
			}
			s.Seed = n
		case "drop":
			p, err := prob(key, val)
			if err != nil {
				return Spec{}, err
			}
			s.Drop = p
		case "nack":
			p, err := prob(key, val)
			if err != nil {
				return Spec{}, err
			}
			s.Nack = p
		case "stall":
			pStr, tStr, ok := strings.Cut(val, "@")
			if !ok {
				return Spec{}, fmt.Errorf("faultinject: stall=%q: want P@T", val)
			}
			p, err := prob(key, pStr)
			if err != nil {
				return Spec{}, err
			}
			t, err := strconv.ParseFloat(tStr, 64)
			if err != nil || t < 0 {
				return Spec{}, fmt.Errorf("faultinject: stall duration %q: want non-negative seconds", tStr)
			}
			s.StallProb, s.StallTime = p, t
		case "degrade":
			pStr, rest, ok := strings.Cut(val, "@")
			if !ok {
				return Spec{}, fmt.Errorf("faultinject: degrade=%q: want P@FxW", val)
			}
			p, err := prob(key, pStr)
			if err != nil {
				return Spec{}, err
			}
			fStr, wStr, ok := strings.Cut(rest, "x")
			if !ok {
				return Spec{}, fmt.Errorf("faultinject: degrade=%q: want P@FxW", val)
			}
			f, err := strconv.ParseFloat(fStr, 64)
			if err != nil || f < 1 {
				return Spec{}, fmt.Errorf("faultinject: degrade factor %q: want >= 1", fStr)
			}
			w, err := strconv.ParseFloat(wStr, 64)
			if err != nil || w < 0 {
				return Spec{}, fmt.Errorf("faultinject: degrade window %q: want non-negative seconds", wStr)
			}
			s.DegradeProb, s.DegradeFactor, s.DegradeWindow = p, f, w
		case "tnifail":
			what, at, err := failAt(key, val)
			if err != nil {
				return Spec{}, err
			}
			idx, err := nonNeg(key, what)
			if err != nil {
				return Spec{}, err
			}
			s.TNIFails = append(s.TNIFails, TNIFail{Idx: idx, At: at})
		case "linkfail":
			what, at, err := failAt(key, val)
			if err != nil {
				return Spec{}, err
			}
			srcStr, dstStr, ok := strings.Cut(what, "-")
			if !ok {
				return Spec{}, fmt.Errorf("faultinject: linkfail=%q: want linkfail=SRC-DST@T", val)
			}
			src, err := nonNeg(key, srcStr)
			if err != nil {
				return Spec{}, err
			}
			dst, err := nonNeg(key, dstStr)
			if err != nil {
				return Spec{}, err
			}
			if src == dst {
				return Spec{}, fmt.Errorf("faultinject: linkfail=%q: src and dst must differ", val)
			}
			s.LinkFails = append(s.LinkFails, LinkFail{Src: src, Dst: dst, At: at})
		case "rankfail":
			what, at, err := failAt(key, val)
			if err != nil {
				return Spec{}, err
			}
			rank, err := nonNeg(key, what)
			if err != nil {
				return Spec{}, err
			}
			s.RankFails = append(s.RankFails, RankFail{Rank: rank, At: at})
		default:
			return Spec{}, fmt.Errorf("faultinject: unknown term %q", key)
		}
	}
	return s, nil
}

// Outcome is the fate of one transmission. The zero value plus WireFactor 1
// is "no fault".
type Outcome struct {
	// Drop: the payload is lost in the torus; nothing reaches the receiver.
	Drop bool
	// Nack: the receiving TNI rejects the delivery (MRQ overflow). Drawn
	// only for one-sided transmissions, and only when the message was not
	// already dropped.
	Nack bool
	// Stall is extra virtual time the serving TNI engine pauses before the
	// command.
	Stall float64
	// WireFactor multiplies the bandwidth serialization time (>= 1).
	WireFactor float64
}

// Failed reports whether the transmission delivered nothing usable.
func (o Outcome) Failed() bool { return o.Drop || o.Nack }

// linkState is one (round, link) fault stream plus the link's degradation
// verdict for the round.
type linkState struct {
	src      *xrand.Source
	degraded bool
}

// Model draws fault outcomes for a fabric. Rounds run one at a time
// (BeginRound is not concurrent with Judge), and within a round Judge is
// called from the fabric's events, which the engine drains on one goroutine;
// the lazy per-link cache is still mutex-protected. Determinism holds
// because all draws come in the queue's deterministic event order.
type Model struct {
	spec  Spec
	root  *xrand.Source
	round uint64
	mu    sync.Mutex
	// base is the current round's stream root; guarded by mu.
	base *xrand.Source
	// links caches the per-link streams split from base; guarded by mu.
	links map[uint64]*linkState
}

// New builds a model for the spec, or nil (the disabled model) when the
// spec injects nothing.
func New(spec Spec) *Model {
	if !spec.Enabled() {
		return nil
	}
	if spec.DegradeFactor < 1 {
		spec.DegradeFactor = 1
	}
	return &Model{
		spec:  spec,
		root:  xrand.New(spec.Seed),
		links: make(map[uint64]*linkState),
	}
}

// Enabled reports whether faults are being injected.
func (m *Model) Enabled() bool { return m != nil }

// Spec returns the model's configuration (the zero Spec when disabled).
func (m *Model) Spec() Spec {
	if m == nil {
		return Spec{}
	}
	return m.spec
}

// TNIFailed reports whether TNI index tni is permanently dead at absolute
// virtual time now. Pure function of the spec — no stream draws, so
// permanent faults never shift the transient fault pattern.
func (m *Model) TNIFailed(tni int, now float64) bool {
	if m == nil {
		return false
	}
	for _, f := range m.spec.TNIFails {
		if f.Idx == tni && now >= f.At {
			return true
		}
	}
	return false
}

// LinkFailed reports whether the one-sided src→dst path is severed at
// absolute virtual time now.
func (m *Model) LinkFailed(src, dst int, now float64) bool {
	if m == nil {
		return false
	}
	for _, f := range m.spec.LinkFails {
		if f.Src == src && f.Dst == dst && now >= f.At {
			return true
		}
	}
	return false
}

// RankFailed reports whether rank has fail-stopped by absolute virtual time
// now.
func (m *Model) RankFailed(rank int, now float64) bool {
	if m == nil {
		return false
	}
	for _, f := range m.spec.RankFails {
		if f.Rank == rank && now >= f.At {
			return true
		}
	}
	return false
}

// FailedRanks returns the sorted set of ranks that have fail-stopped by
// absolute virtual time now — the model's perfect failure detector.
func (m *Model) FailedRanks(now float64) []int {
	if m == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, f := range m.spec.RankFails {
		if now >= f.At && !seen[f.Rank] {
			seen[f.Rank] = true
			out = append(out, f.Rank)
		}
	}
	sort.Ints(out)
	return out
}

// BeginRound advances the model to the next fabric round: per-link streams
// are re-derived from (seed, round), so a round's faults do not depend on
// how many draws earlier rounds made.
func (m *Model) BeginRound() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beginRoundLocked()
}

// beginRoundLocked advances the round; caller holds mu.
func (m *Model) beginRoundLocked() {
	m.round++
	m.base = m.root.Split(m.round)
	clear(m.links)
}

// link returns the (round, link) stream, creating it on first use. The
// stream's first draw decides the link's degradation window for the round.
// The cache lookup is locked, which keeps the Model safe to share; the draw
// order on any single link is deterministic (draws come in event order).
func (m *Model) link(src, dst int) *linkState {
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.links[key]
	if ls == nil {
		if m.base == nil {
			m.beginRoundLocked()
		}
		ls = &linkState{src: m.base.Split(1 + key)}
		if m.spec.DegradeProb > 0 {
			ls.degraded = ls.src.Float64() < m.spec.DegradeProb
		}
		m.links[key] = ls
	}
	return ls
}

// Judge draws the fate of one transmission on the src→dst link at virtual
// time txStart (round-relative). oneSided marks uTofu transmissions, the
// only ones subject to MRQ-overflow NACKs. The number of draws per call is
// fixed by the spec, so outcomes depend only on the deterministic order the
// DES serves transmissions in.
func (m *Model) Judge(src, dst int, oneSided bool, txStart float64) Outcome {
	out := Outcome{WireFactor: 1}
	if m == nil {
		return out
	}
	ls := m.link(src, dst)
	if m.spec.Drop > 0 && ls.src.Float64() < m.spec.Drop {
		out.Drop = true
	}
	if m.spec.Nack > 0 {
		// Draw unconditionally to keep the stream position independent of
		// earlier verdicts; apply only where an MRQ exists.
		nack := ls.src.Float64() < m.spec.Nack
		if nack && oneSided && !out.Drop {
			out.Nack = true
		}
	}
	if m.spec.StallProb > 0 && ls.src.Float64() < m.spec.StallProb {
		out.Stall = m.spec.StallTime
	}
	if ls.degraded && txStart < m.spec.DegradeWindow {
		out.WireFactor = m.spec.DegradeFactor
	}
	return out
}
