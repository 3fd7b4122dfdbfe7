package models

import (
	"math"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/fsm"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

func retransmitTerminal(s RetransmitState) bool {
	return s.Phase == RDelivered || s.Phase == RFailed
}

// TestRetransmitExhaustive enumerates the retry protocol for several
// budgets and checks every invariant; terminal states are intended
// deadlocks.
func TestRetransmitExhaustive(t *testing.T) {
	for _, max := range []int{0, 1, 3, 8} {
		cfg := RetransmitConfig{MaxRetransmits: max}
		sys := cfg.System()
		res, err := fsm.Check(sys, fsm.Options[RetransmitState]{AllowDeadlock: retransmitTerminal}, cfg.Invariants()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d states, %d transitions, depth %d", sys.Name, res.States, res.Transitions, res.Depth)
		for _, v := range res.Violations {
			t.Errorf("max=%d invariant violated:\n%v", max, v)
		}
		// Closed form: Idle + (max+1) Inflight + max Backoff +
		// (max+1) Delivered + 1 Failed.
		if want := 3*max + 4; res.States != want {
			t.Errorf("max=%d states = %d, want %d", max, res.States, want)
		}
		if want := 2*max + 2; res.Depth != want {
			t.Errorf("max=%d depth = %d, want %d", max, res.Depth, want)
		}
	}
}

// TestRetransmitMutationUnboundedCaught seeds the missing-exhaustion-check
// bug and requires the minimal counterexample: the schedule that loses
// every transmission until the attempt counter exceeds the budget.
func TestRetransmitMutationUnboundedCaught(t *testing.T) {
	cfg := RetransmitConfig{MaxRetransmits: 3, MutateUnboundedRetry: true}
	res, err := fsm.Check(cfg.System(), fsm.Options[RetransmitState]{AllowDeadlock: retransmitTerminal}, cfg.Invariants()...)
	if err != nil {
		t.Fatal(err)
	}
	var hit *fsm.Violation[RetransmitState]
	for i := range res.Violations {
		if res.Violations[i].Invariant == "attempts-bounded" {
			hit = &res.Violations[i]
		}
	}
	if hit == nil {
		t.Fatalf("seeded unbounded-retry bug not caught; violations: %v", res.Violations)
	}
	// Minimal: inject, then (lose-detect, reinject) until Attempt = max+1.
	if want := 2*(cfg.MaxRetransmits+1) + 1; hit.Trace.Len() != want {
		t.Errorf("counterexample length %d, want minimal %d:\n%v", hit.Trace.Len(), want, hit.Trace)
	}
	if last := hit.Trace.Last(); int(last.Attempt) != cfg.MaxRetransmits+1 {
		t.Errorf("counterexample final state %+v, want attempt one past the budget", last)
	}
	t.Logf("minimal counterexample:\n%v", hit.Trace)
}

// TestRetransmitMutationEarlyExhaustCaught seeds the off-by-one budget bug
// (give up one attempt early) and requires its minimal counterexample.
func TestRetransmitMutationEarlyExhaustCaught(t *testing.T) {
	cfg := RetransmitConfig{MaxRetransmits: 3, MutateEarlyExhaust: true}
	res, err := fsm.Check(cfg.System(), fsm.Options[RetransmitState]{AllowDeadlock: retransmitTerminal}, cfg.Invariants()...)
	if err != nil {
		t.Fatal(err)
	}
	var hit *fsm.Violation[RetransmitState]
	for i := range res.Violations {
		if res.Violations[i].Invariant == "failed-only-when-exhausted" {
			hit = &res.Violations[i]
		}
	}
	if hit == nil {
		t.Fatalf("seeded early-exhaust bug not caught; violations: %v", res.Violations)
	}
	// Minimal: lose everything; failure is declared with one attempt left.
	if want := 2 * cfg.MaxRetransmits; hit.Trace.Len() != want {
		t.Errorf("counterexample length %d, want minimal %d:\n%v", hit.Trace.Len(), want, hit.Trace)
	}
	if last := hit.Trace.Last(); last.Phase != RFailed || int(last.Attempt) != cfg.MaxRetransmits-1 {
		t.Errorf("counterexample final state %+v, want premature failure", last)
	}
	t.Logf("minimal counterexample:\n%v", hit.Trace)
}

// TestRetryBackoffConformance checks the implementation's backoff schedule
// against the model's contract: exponential doubling from
// RetransmitBackoff, saturating at RetransmitBackoffCap — so the model's
// "backoff-expire" rule abstracts a finite, capped wait, never an
// unbounded one.
func TestRetryBackoffConformance(t *testing.T) {
	p := tofu.DefaultParams()
	if p.RetransmitBackoff <= 0 || p.RetransmitBackoffCap <= 0 {
		t.Fatalf("default params lack a backoff schedule: base=%v cap=%v",
			p.RetransmitBackoff, p.RetransmitBackoffCap)
	}
	prev := 0.0
	for n := 0; n <= p.MaxRetransmits; n++ {
		got := p.RetryBackoff(n)
		want := math.Min(p.RetransmitBackoff*math.Pow(2, float64(n)), p.RetransmitBackoffCap)
		if got != want {
			t.Errorf("RetryBackoff(%d) = %v, want %v", n, got, want)
		}
		if got < prev {
			t.Errorf("RetryBackoff(%d) = %v decreased from %v", n, got, prev)
		}
		if got > p.RetransmitBackoffCap {
			t.Errorf("RetryBackoff(%d) = %v exceeds cap %v", n, got, p.RetransmitBackoffCap)
		}
		prev = got
	}
}

// TestRetransmitImplementationConformance runs real put rounds over a lossy
// fabric and checks that every observed outcome projects onto a reachable
// terminal state of the model: attempts within budget+1, and failure
// exactly at exhaustion.
func TestRetransmitImplementationConformance(t *testing.T) {
	tr, err := topo.NewTorus3D(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(tr, topo.DefaultBlock, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	params := tofu.DefaultParams()
	cfg := RetransmitConfig{MaxRetransmits: params.MaxRetransmits}
	sys := cfg.System()

	for _, drop := range []float64{0.3, 0.95} {
		s := utofu.NewSystem(tofu.NewFabric(m, params))
		s.Fab.Faults = faultinject.New(faultinject.Spec{Seed: 11, Drop: drop})
		dstBuf := make([]byte, 64*8)
		region, _ := s.Register(5, dstBuf)
		vcq, err := s.CreateVCQ(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var puts []*utofu.Put
		for i := 0; i < 64; i++ {
			puts = append(puts, &utofu.Put{VCQ: vcq, DstSTADD: region.STADD, DstOff: i * 8,
				Src: []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}})
		}
		if err := s.ExecuteRound(puts); err != nil {
			t.Fatal(err)
		}
		for i, p := range puts {
			if p.Attempts < 1 || p.Attempts > cfg.MaxRetransmits+1 {
				t.Fatalf("drop=%v put %d attempts = %d outside model range [1,%d]",
					drop, i, p.Attempts, cfg.MaxRetransmits+1)
			}
			// Project the implementation outcome onto a model state and
			// require the checker to find it reachable.
			want := RetransmitState{Phase: RDelivered, Attempt: uint8(p.Attempts - 1)}
			if p.Failed {
				want = RetransmitState{Phase: RFailed, Attempt: uint8(p.Attempts - 1)}
			}
			_, ok, err := fsm.Reachable(sys, fsm.Options[RetransmitState]{}, func(s RetransmitState) bool { return s == want })
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("drop=%v put %d outcome %+v is not a reachable model state", drop, i, want)
			}
		}
	}
}
