package halo

import (
	"fmt"
	"math"
	"testing"

	"tofumd/internal/utofu"
)

// refInbox is a verbatim copy of the four-buffer Inbox that Inbox replaced:
// it allocates and registers all four round-robin buffers of section 3.4.
// Inbox must charge the same costs and keep the same capacities.
type refInbox struct {
	Bufs     [4][]byte
	Regions  [4]*utofu.MemRegion
	CapBytes int
}

func (ib *refInbox) Preregister(uts *utofu.System, owner, capBy int) float64 {
	var cost float64
	for i := range ib.Bufs {
		ib.Bufs[i] = make([]byte, capBy)
		region, c := uts.Register(owner, ib.Bufs[i])
		ib.Regions[i] = region
		cost += c
	}
	ib.CapBytes = capBy
	return cost
}

func (ib *refInbox) Ensure(uts *utofu.System, owner, need int, fixed bool) float64 {
	if ib.CapBytes >= need {
		return 0
	}
	if fixed {
		panic(fmt.Sprintf("halo: rank %d pre-registered inbox of %dB overflowed by message of %dB",
			owner, ib.CapBytes, need))
	}
	newCap := ib.CapBytes
	if newCap == 0 {
		newCap = 1024
	}
	for newCap < need {
		newCap *= 2
	}
	var cost float64
	for i := range ib.Bufs {
		if ib.Regions[i] != nil {
			uts.Deregister(ib.Regions[i])
		}
		ib.Bufs[i] = make([]byte, newCap)
		region, c := uts.Register(owner, ib.Bufs[i])
		ib.Regions[i] = region
		cost += c
	}
	ib.CapBytes = newCap
	return cost
}

// TestInboxMatchesFourBufferReference runs one fixed sequence on Inbox and
// on the four-buffer reference: preregister, an in-capacity no-op, growth
// from zero, two doublings and a fixed-inbox overflow. Every cost must be
// bit-equal and every capacity equal, and Inbox must hold exactly one
// registered region, CapBytes long, with the one it replaced deregistered.
func TestInboxMatchesFourBufferReference(t *testing.T) {
	uts, refUts := testUTofu(t), testUTofu(t)
	type step struct {
		name  string
		inbox int // 0 is the pre-registered inbox, 1 the growing one
		pre   int // Preregister capacity; 0 calls Ensure
		need  int
		fixed bool
		panic bool
	}
	steps := []step{
		{name: "preregister", inbox: 0, pre: 4096},
		{name: "in-capacity", inbox: 0, need: 4096, fixed: true},
		{name: "growth from zero", inbox: 1, need: 3000},
		{name: "in-capacity after growth", inbox: 1, need: 1},
		{name: "first doubling", inbox: 1, need: 5000},
		{name: "second doubling", inbox: 1, need: 16384},
		{name: "fixed overflow", inbox: 0, need: 4097, fixed: true, panic: true},
	}
	var got [2]Inbox
	var want [2]refInbox
	run := func(f func() float64) (cost float64, panicked any) {
		defer func() { panicked = recover() }()
		return f(), nil
	}
	for _, s := range steps {
		ib, ref := &got[s.inbox], &want[s.inbox]
		old := ib.Region
		gotCost, gotPanic := run(func() float64 {
			if s.pre > 0 {
				return ib.Preregister(uts, s.inbox, s.pre)
			}
			return ib.Ensure(uts, s.inbox, s.need, s.fixed)
		})
		wantCost, wantPanic := run(func() float64 {
			if s.pre > 0 {
				return ref.Preregister(refUts, s.inbox, s.pre)
			}
			return ref.Ensure(refUts, s.inbox, s.need, s.fixed)
		})
		if (gotPanic != nil) != s.panic || fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
			t.Fatalf("%s: panic %v, reference %v", s.name, gotPanic, wantPanic)
		}
		if math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("%s: cost %v, reference %v", s.name, gotCost, wantCost)
		}
		if ib.CapBytes != ref.CapBytes {
			t.Fatalf("%s: cap %d, reference %d", s.name, ib.CapBytes, ref.CapBytes)
		}
		if ib.Region == nil || len(ib.Region.Buf) != ib.CapBytes {
			t.Fatalf("%s: inbox does not hold one region of %d bytes", s.name, ib.CapBytes)
		}
		if r, ok := uts.Lookup(ib.Region.STADD); !ok || r != ib.Region {
			t.Fatalf("%s: region not registered", s.name)
		}
		if old != nil && old != ib.Region {
			if _, ok := uts.Lookup(old.STADD); ok {
				t.Fatalf("%s: replaced region still registered", s.name)
			}
		}
	}
}
