package halo

import "tofumd/internal/slab"

// Round is one bulk-synchronous round's messages, the container every
// consumer aims, packs, runs and unpacks: Msgs in issue order, which is the
// slice Engine.RunRound takes, and the same messages indexed by sender and
// by receiver, so that packing and unpacking stay linear in the message
// count. Reset takes the records from a slab, so a Round reused round after
// round allocates only when it outgrows every earlier one. An app whose
// links do not change between rounds aims a Round once and replays it,
// rewriting only each message's Data and ReadyAt.
type Round struct {
	slab  slab.Slab[Msg]
	room  []*Msg
	Msgs  []*Msg
	BySrc [][]*Msg
	ByDst [][]*Msg
	// Epoch is the app's stamp of when it aimed the round, so it can tell a
	// replayable round from a stale one; Reset zeroes it.
	Epoch uint64
}

// NewRound returns an empty round over ranks ranks.
func NewRound(ranks int) *Round {
	return &Round{BySrc: make([][]*Msg, ranks), ByDst: make([][]*Msg, ranks)}
}

// Reset empties the round and makes room for up to n messages.
func (b *Round) Reset(n int) {
	b.Epoch = 0
	b.room = b.slab.Take(n)
	b.Msgs = b.room[:0]
	for i := range b.ByDst {
		b.BySrc[i], b.ByDst[i] = b.BySrc[i][:0], b.ByDst[i][:0]
	}
}

// Add stores m as the round's next message and returns the stored copy,
// which the caller may still adjust (everything but Src and Dst).
func (b *Round) Add(m Msg) *Msg {
	p := b.room[len(b.Msgs)]
	*p = m
	b.Msgs = b.room[:len(b.Msgs)+1]
	b.BySrc[p.Src] = append(b.BySrc[p.Src], p)
	b.ByDst[p.Dst] = append(b.ByDst[p.Dst], p)
	return p
}
