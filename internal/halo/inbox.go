package halo

import (
	"fmt"

	"tofumd/internal/utofu"
)

// InboxSlots is the number of round-robin receive buffers the paper
// registers per neighbor (section 3.4, Fig. 10). Inbox charges that many
// registrations but holds one buffer: a bulk-synchronous round lands and
// unpacks each inbox's one message before the next round starts, so no two
// slots are ever live at once.
const InboxSlots = 4

// Inbox is a registered receive buffer (section 3.4, Fig. 10). Under the
// pre-registered scheme it is sized to the theoretical maximum once;
// otherwise it grows via Ensure, paying the registration cost each time.
// Either way every registration is charged InboxSlots times, the paper's
// four round-robin buffers. A Msg aimed at Region reads its payload from it
// after Engine.RunRound, and a sender that aims before packing may pack
// into it (Msg.Dest).
type Inbox struct {
	// Region is the registered buffer; nil until the first registration.
	Region *utofu.MemRegion
	// CapBytes is the buffer's length, len(Region.Buf).
	CapBytes int
}

// Preregister (re)registers the inbox as one fresh capBy-byte buffer,
// returning the setup cost in virtual seconds: one registration cost per
// slot, added in slot order.
func (ib *Inbox) Preregister(uts *utofu.System, owner, capBy int) float64 {
	if ib.Region != nil {
		uts.Deregister(ib.Region)
	}
	region, c := uts.Register(owner, make([]byte, capBy))
	ib.Region, ib.CapBytes = region, capBy
	var cost float64
	for range InboxSlots {
		cost += c
	}
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
	return ib.Preregister(uts, owner, newCap)
}
