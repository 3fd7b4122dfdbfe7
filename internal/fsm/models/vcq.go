package models

import (
	"fmt"

	"tofumd/internal/fsm"
)

// The VCQ model encodes the utofu.System CQ lifecycle (CreateVCQ /
// FreeVCQ): a node-scoped pool of CQ slots per TNI, the one-CQ-per-
// (rank, TNI) policy, lowest-free allocation, and the freed-handle check
// that rejects double frees. The mutation knob replays the historical bug
// FreeVCQ's doc comment describes: without the freed flag, a double free
// drove rankCQOnTNI negative and let a rank exceed its CQ limit.

// vcqMax bounds the model arrays; configs bind smaller values.
const vcqMax = 2

// VCQConfig binds the pool dimensions of the VCQ lifecycle model. All
// ranks live on one node (the contended case: topo.DefaultBlock packs 4
// ranks per node).
type VCQConfig struct {
	Ranks, TNIs, CQsPerTNI int

	// MutateNoFreedFlag seeds the pre-fix bug: FreeVCQ does not mark the
	// handle freed, so a double free corrupts the CQ accounting.
	MutateNoFreedFlag bool
}

// VCQState is the CQ pool plus each rank's live and retained-stale handles.
type VCQState struct {
	// Hold[r][t] is the CQ index of rank r's live handle on TNI t, -1 none.
	Hold [vcqMax][vcqMax]int8
	// Stale[r][t] is the CQ index recorded in a freed handle the caller
	// still retains (the double-free hazard), -1 none.
	Stale [vcqMax][vcqMax]int8
	// Count[r][t] mirrors rankCQOnTNI; it can only leave [0,1] under the
	// seeded mutation.
	Count [vcqMax][vcqMax]int8
	// Used[t][c] mirrors cqUsed for the single node.
	Used [vcqMax][vcqMax]bool
}

func (c VCQConfig) validate() {
	if c.Ranks < 1 || c.Ranks > vcqMax || c.TNIs < 1 || c.TNIs > vcqMax ||
		c.CQsPerTNI < 1 || c.CQsPerTNI > vcqMax {
		panic(fmt.Sprintf("models: VCQ dimensions %+v outside [1,%d]", c, vcqMax))
	}
}

// Initial returns the empty pool.
func (c VCQConfig) Initial() VCQState {
	var s VCQState
	for r := 0; r < vcqMax; r++ {
		for t := 0; t < vcqMax; t++ {
			s.Hold[r][t], s.Stale[r][t] = -1, -1
		}
	}
	return s
}

// VCQ operation kinds.
const (
	VCQCreate uint8 = iota
	VCQFree
	VCQDoubleFree // free the retained stale handle again
)

// VCQEvent is one caller operation.
type VCQEvent struct {
	Kind uint8
	Rank int8
	TNI  int8
}

func (e VCQEvent) String() string {
	switch e.Kind {
	case VCQCreate:
		return fmt.Sprintf("create r%d@t%d", e.Rank, e.TNI)
	case VCQFree:
		return fmt.Sprintf("free r%d@t%d", e.Rank, e.TNI)
	default:
		return fmt.Sprintf("double-free r%d@t%d", e.Rank, e.TNI)
	}
}

// Events enumerates every operation in the bound configuration.
func (c VCQConfig) Events() []VCQEvent {
	c.validate()
	var evs []VCQEvent
	for r := int8(0); int(r) < c.Ranks; r++ {
		for t := int8(0); int(t) < c.TNIs; t++ {
			evs = append(evs,
				VCQEvent{Kind: VCQCreate, Rank: r, TNI: t},
				VCQEvent{Kind: VCQFree, Rank: r, TNI: t},
				VCQEvent{Kind: VCQDoubleFree, Rank: r, TNI: t})
		}
	}
	return evs
}

// lowestFree returns the lowest free CQ slot on TNI t, or -1.
func (c VCQConfig) lowestFree(s VCQState, t int8) int8 {
	for cq := int8(0); int(cq) < c.CQsPerTNI; cq++ {
		if !s.Used[t][cq] {
			return cq
		}
	}
	return -1
}

// Apply is the total transition function: it returns the successor state
// and whether the implementation accepts the operation (CreateVCQ/FreeVCQ
// returning nil error). Rejected operations leave the pool untouched,
// except that a rejected double free discards the stale handle (the caller
// saw the error and drops it).
func (c VCQConfig) Apply(s VCQState, e VCQEvent) (VCQState, bool) {
	c.validate()
	r, t := e.Rank, e.TNI
	switch e.Kind {
	case VCQCreate:
		if s.Count[r][t] >= 1 {
			return s, false // one CQ per (rank, TNI)
		}
		cq := c.lowestFree(s, t)
		if cq < 0 {
			return s, false // pool exhausted
		}
		s.Used[t][cq] = true
		s.Hold[r][t] = cq
		s.Count[r][t]++
		return s, true
	case VCQFree:
		if s.Hold[r][t] < 0 {
			return s, false
		}
		cq := s.Hold[r][t]
		s.Used[t][cq] = false
		s.Count[r][t]--
		s.Hold[r][t] = -1
		s.Stale[r][t] = cq // the caller retains the freed handle
		return s, true
	default: // VCQDoubleFree
		if s.Stale[r][t] < 0 {
			return s, false
		}
		cq := s.Stale[r][t]
		s.Stale[r][t] = -1
		if !c.MutateNoFreedFlag {
			return s, false // freed flag rejects the double free
		}
		// Seeded bug: the second free goes through, corrupting accounting.
		// The counter saturates at -2 purely to keep the mutant's state
		// space finite; the invariant already trips at -1.
		s.Used[t][cq] = false
		if s.Count[r][t] > -2 {
			s.Count[r][t]--
		}
		return s, true
	}
}

// System builds the VCQ lifecycle transition system. Only state-changing
// applications become transitions.
func (c VCQConfig) System() fsm.System[VCQState] {
	c.validate()
	events := c.Events()
	rules := make([]fsm.Rule[VCQState], 0, len(events))
	for _, e := range events {
		e := e
		rules = append(rules, fsm.Rule[VCQState]{
			Name: e.String(),
			Guard: func(s VCQState) bool {
				next, _ := c.Apply(s, e)
				return next != s
			},
			Next: func(s VCQState) []VCQState {
				next, _ := c.Apply(s, e)
				return []VCQState{next}
			},
		})
	}
	return fsm.System[VCQState]{
		Name:  fmt.Sprintf("vcq ranks=%d tnis=%d cqs=%d", c.Ranks, c.TNIs, c.CQsPerTNI),
		Init:  []VCQState{c.Initial()},
		Rules: rules,
	}
}

// Invariants returns the VCQ pool properties: per-rank CQ limit,
// allocation/accounting consistency (the "no double free" theorem: no
// schedule of operations, including double frees, can corrupt the pool),
// no aliased slots, and bounded drainability.
func (c VCQConfig) Invariants() []fsm.Invariant[VCQState] {
	c.validate()
	return []fsm.Invariant[VCQState]{
		fsm.Always("rank-cq-limit", func(s VCQState) bool {
			for r := 0; r < c.Ranks; r++ {
				for t := 0; t < c.TNIs; t++ {
					if s.Count[r][t] < 0 || s.Count[r][t] > 1 {
						return false
					}
				}
			}
			return true
		}),
		fsm.Always("cq-accounting", func(s VCQState) bool {
			// Per TNI: live handles, used slots, and rank counts agree.
			for t := 0; t < c.TNIs; t++ {
				held, used, count := 0, 0, 0
				for r := 0; r < c.Ranks; r++ {
					if s.Hold[r][t] >= 0 {
						held++
					}
					count += int(s.Count[r][t])
				}
				for cq := 0; cq < c.CQsPerTNI; cq++ {
					if s.Used[t][cq] {
						used++
					}
				}
				if held != used || used != count {
					return false
				}
			}
			return true
		}),
		fsm.Always("hold-implies-used", func(s VCQState) bool {
			for r := 0; r < c.Ranks; r++ {
				for t := 0; t < c.TNIs; t++ {
					if cq := s.Hold[r][t]; cq >= 0 && !s.Used[t][cq] {
						return false
					}
				}
			}
			return true
		}),
		fsm.Always("no-aliased-slot", func(s VCQState) bool {
			for t := 0; t < c.TNIs; t++ {
				var holders [vcqMax]int
				for r := 0; r < c.Ranks; r++ {
					if cq := s.Hold[r][t]; cq >= 0 {
						holders[cq]++
					}
				}
				for _, n := range holders {
					if n > 1 {
						return false
					}
				}
			}
			return true
		}),
		// From any state the pool can be fully drained and handles
		// discarded: one free per live handle, one double-free discard per
		// stale handle.
		fsm.EventuallyWithin("drainable", 2*c.Ranks*c.TNIs, func(s VCQState) bool {
			for r := 0; r < c.Ranks; r++ {
				for t := 0; t < c.TNIs; t++ {
					if s.Hold[r][t] >= 0 || s.Stale[r][t] >= 0 {
						return false
					}
				}
			}
			return true
		}),
	}
}
