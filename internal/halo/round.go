package halo

import (
	"tofumd/internal/slab"
	"tofumd/internal/threadpool"
)

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

// Run takes the aimed round b through the rest of section 3.4's message
// path on pool: pack(src) for every sender, in one region; stamp, if not
// nil, on the caller; RunRound on the caller while the other workers run
// unpack(dst) for every receiver (no region when unpack is nil); then,
// after the join, settle(dst), if not nil, for every receiver in rank
// order. Senders pack every uTofu payload at its Dest, so the round beside
// the unpacks writes no payload byte; a pack task charges only its own
// sender's clock and the unpacks none, so stamp and settle apply every
// other charge in the same order at any worker count.
func (e *Engine) Run(pool *threadpool.Pool, t Transport, b *Round, pack func(src int), stamp func(), unpack, settle func(dst int)) {
	pool.ForEach(len(b.BySrc), pack)
	if stamp != nil {
		stamp()
	}
	n := len(b.ByDst)
	if unpack == nil {
		n = 0 // the round runs alone, in no region
	}
	pool.ForEachBeside(n, unpack, func() { e.RunRound(t, b.Msgs) })
	if settle != nil {
		for dst := range b.ByDst {
			settle(dst)
		}
	}
}
