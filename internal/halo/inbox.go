package halo

import (
	"fmt"

	"tofumd/internal/utofu"
)

// Inbox is a set of four round-robin registered receive buffers
// (section 3.4, Fig. 10). Under the pre-registered scheme they are sized to
// the theoretical maximum once; otherwise they grow via Ensure, paying the
// registration cost each time. Next hands out the buffers in turn; a Msg
// aimed at one reads its payload from it after Engine.RunRound.
type Inbox struct {
	Bufs     [4][]byte
	Regions  [4]*utofu.MemRegion
	CapBytes int
	// Seq counts the regions Next has handed out.
	Seq int
}

// Next returns the region the inbox's next message lands in, rotating
// round-robin over the four buffers.
func (ib *Inbox) Next() *utofu.MemRegion {
	r := ib.Regions[ib.Seq%len(ib.Regions)]
	ib.Seq++
	return r
}

// Preregister sizes and registers all four round-robin buffers once,
// returning the setup cost in virtual seconds.
func (ib *Inbox) Preregister(uts *utofu.System, owner, capBy int) float64 {
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

// Ensure grows (and re-registers) the inbox to hold at least need bytes,
// returning the registration cost to charge the owning rank. A fixed inbox
// was pre-registered at its theoretical maximum during setup and must never
// grow: a breach means the sizing estimate was wrong — fail loudly.
func (ib *Inbox) Ensure(uts *utofu.System, owner, need int, fixed bool) float64 {
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
