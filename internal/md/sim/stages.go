package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// packThreading returns the threading mode used for message packing and
// unpacking: parallelized by the comm threads under the fine-grained
// scheme, serial otherwise.
func (s *Simulation) packThreading() machine.Threading {
	if s.Var.CommThreads > 1 {
		return machine.Pool
	}
	return machine.Serial
}

// commRounds enumerates the bulk-synchronous rounds of one halo operation:
// a single {-1, 0} for p2p, or one (Dim, Iter) pair per 3-stage round.
func (s *Simulation) commRounds() []halo.RoundKey {
	return halo.Rounds(s.Var.Pattern, s.shells)
}

// inRound reports whether link l belongs to round k.
func inRound(l *link, k halo.RoundKey) bool {
	return halo.InRound(l.stage3Dim, l.stage3Iter, k)
}

// linksOfRound returns the send links of rank r belonging to round k, in
// deterministic order.
func linksOfRound(r *Rank, k halo.RoundKey) []*link {
	var out []*link
	for _, l := range r.sendLinks {
		if inRound(l, k) {
			out = append(out, l)
		}
	}
	return out
}

// batch collects a round's messages with a per-receiver index so unpacking
// stays linear in the message count.
type batch struct {
	msgs  []*rmsg
	byDst [][]*rmsg
}

func (s *Simulation) newBatch() *batch {
	return &batch{byDst: make([][]*rmsg, len(s.ranks))}
}

func (b *batch) add(m *rmsg) {
	b.msgs = append(b.msgs, m)
	b.byDst[m.dst.ID] = append(b.byDst[m.dst.ID], m)
}

// --- border stage -----------------------------------------------------

// doBorder rebuilds the ghost regions: send lists are derived from the
// sub-box geometry, atoms are shipped, and receivers append ghosts and
// record the recv_ptr offsets. Under the pre-registered scheme the offsets
// are piggybacked back to the senders (section 3.4).
func (s *Simulation) doBorder() {
	// A fresh plan re-arms transiently degraded neighbor links; health
	// quarantine is sticky and survives the rebuild (only ProbeHealth
	// re-arms a quarantined link or TNI).
	s.fb.Reset()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ClearGhosts()
		r.resetPlan()
	})
	if s.Var.Pattern == halo.P2P {
		s.buildP2PSendLists()
	}
	for _, k := range s.commRounds() {
		if s.Var.Pattern == halo.ThreeStage {
			s.build3StageSendLists(k)
		}
		s.borderRound(k)
	}
	if s.Var.Preregistered {
		s.piggybackOffsets()
	}
}

// buildP2PSendLists fills every p2p link's send list from the rank's local
// atoms, via border bins when the geometry permits (section 3.5.2).
func (s *Simulation) buildP2PSendLists() {
	s.forRanks(func(id int) {
		r := s.ranks[id]
		a := r.Atoms
		if r.binOK {
			byDir := make(map[vec.I3]*link, len(r.sendLinks))
			for _, l := range r.sendLinks {
				byDir[l.dir] = l
			}
			for i := 0; i < a.NLocal; i++ {
				bin := r.qual.Bin(a.X[i])
				for _, d := range r.binDirs[bin] {
					if l := byDir[d]; l != nil {
						l.sendList = append(l.sendList, int32(i))
					}
				}
			}
		} else {
			for _, l := range r.sendLinks {
				for i := 0; i < a.NLocal; i++ {
					if r.qual.Qualifies(a.X[i], l.dir) {
						l.sendList = append(l.sendList, int32(i))
					}
				}
			}
		}
		r.Clock += s.M.Cost.BorderDecideTime(a.NLocal, r.binOK)
	})
}

// build3StageSendLists fills the send lists of round k: iteration 0 scans
// locals plus the ghosts of earlier dimensions; iteration k>0 forwards the
// ghosts received on the same-direction link of iteration k-1.
func (s *Simulation) build3StageSendLists(k halo.RoundKey) {
	if k.Iter == 0 {
		s.forRanks(func(id int) {
			s.ranks[id].dimGhostMark = s.ranks[id].Atoms.Total()
		})
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		a := r.Atoms
		scanned := 0
		for _, l := range linksOfRound(r, k) {
			l.sendList = l.sendList[:0]
			sign := l.dir.Comp(k.Dim)
			qualify := func(i int) bool {
				x := a.X[i].Comp(k.Dim)
				if sign > 0 {
					return x >= r.Hi.Comp(k.Dim)-s.ghCut
				}
				return x < r.Lo.Comp(k.Dim)+s.ghCut
			}
			if k.Iter == 0 {
				for i := 0; i < r.dimGhostMark; i++ {
					if qualify(i) {
						l.sendList = append(l.sendList, int32(i))
					}
				}
				scanned += r.dimGhostMark
			} else if prev := r.findRecvLink(k.Dim, k.Iter-1, l.dir); prev != nil {
				start, count := prev.ghostRange()
				for i := start; i < start+count; i++ {
					if qualify(i) {
						l.sendList = append(l.sendList, int32(i))
					}
				}
				scanned += count
			}
		}
		r.Clock += s.M.Cost.BorderDecideTime(scanned, false)
	})
}

// findRecvLink locates the rank's receive link of a 3-stage round.
func (r *Rank) findRecvLink(dim, iter int, dir vec.I3) *link {
	for _, l := range r.recvLinks {
		if l.stage3Dim == dim && l.stage3Iter == iter && l.dir == dir {
			return l
		}
	}
	return nil
}

// borderRound packs, ships and unpacks the border messages of one round.
func (s *Simulation) borderRound(k halo.RoundKey) {
	packTh := s.packThreading()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, l := range linksOfRound(r, k) {
			l.sendBuf = encodeBorder(l.sendBuf, r.Atoms.ID, r.Atoms.Type, r.Atoms.X, l.sendList, l.shift)
			bytes += len(l.sendBuf)
		}
		r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
	})
	b := s.newBatch()
	for _, r := range s.ranks {
		for _, l := range linksOfRound(r, k) {
			if s.Var.Transport == halo.TransportUTofu {
				s.ensureInbox(l.dst, l.inbox, len(l.sendBuf))
			}
			b.add(&rmsg{
				src: r, dst: l.dst, link: l, res: l.fwd, dstThread: l.rev.thread,
				data: l.sendBuf, known: false, inboxDst: inboxFwd,
				readyAt: r.Clock,
			})
		}
	}
	s.runRound(b.msgs)
	s.deliverToInboxes(b.msgs)
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, m := range b.byDst[id] {
			l := m.link
			recs := decodeBorder(m.data)
			l.recvStart = r.Atoms.Total()
			l.recvCount = len(recs)
			l.seq++
			for _, rec := range recs {
				r.Atoms.AddGhost(rec.id, rec.typ, rec.pos)
			}
			bytes += len(m.data)
		}
		r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
	})
}

// deliverToInboxes copies payloads into the uTofu receive buffers, making
// the round-robin rotation functional: the receiver decodes from its own
// registered buffer, not the sender's scratch.
func (s *Simulation) deliverToInboxes(msgs []*rmsg) {
	if s.Var.Transport != halo.TransportUTofu {
		return
	}
	for _, m := range msgs {
		if m.link == nil || m.inboxDst == inboxXArray {
			continue
		}
		ib := m.link.inbox
		if m.inboxDst == inboxRev {
			ib = m.link.revInbox
		}
		buf := ib.Bufs[m.link.seq%4]
		copy(buf, m.data)
		m.data = buf[:len(m.data)]
	}
}

// piggybackOffsets ships each receiver's ghost offset (recv_ptr) back to
// the sender as an 8-byte descriptor immediate. Functionally the shared
// link struct already carries the offset; this round charges its time.
func (s *Simulation) piggybackOffsets() {
	b := s.newBatch()
	for _, r := range s.ranks {
		for _, l := range r.recvLinks {
			b.add(&rmsg{
				src: r, dst: l.src, link: l, res: l.rev, dstThread: l.fwd.thread,
				data: make([]byte, 8), known: true, inboxDst: inboxRev,
				readyAt: r.Clock,
			})
		}
	}
	s.runRound(b.msgs)
}

// --- forward stage ----------------------------------------------------

// doForward updates ghost positions from their owners: positions packed per
// send list, shipped over the variant's transport, and written into the
// receiver's position array — directly via RDMA under the pre-registered
// scheme (no unpack copy), via receive buffers otherwise.
func (s *Simulation) doForward() {
	packTh := s.packThreading()
	for _, k := range s.commRounds() {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, l := range linksOfRound(r, k) {
				l.sendBuf = encodePositions(l.sendBuf, r.Atoms.X, l.sendList, l.shift)
				bytes += len(l.sendBuf)
			}
			r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
		})
		b := s.newBatch()
		for _, r := range s.ranks {
			for _, l := range linksOfRound(r, k) {
				m := &rmsg{
					src: r, dst: l.dst, link: l, res: l.fwd, dstThread: l.rev.thread,
					data: l.sendBuf, known: true,
					readyAt: r.Clock,
				}
				if s.Var.Preregistered {
					m.inboxDst = inboxXArray
					m.dstOff = l.recvStart * posBytes
				} else {
					m.inboxDst = inboxFwd
					if s.Var.Transport == halo.TransportUTofu {
						s.ensureInbox(l.dst, l.inbox, len(l.sendBuf))
					}
				}
				b.add(m)
			}
		}
		s.runRound(b.msgs)
		s.deliverToInboxes(b.msgs)
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, m := range b.byDst[id] {
				l := m.link
				decodePositions(m.data, r.Atoms.X, l.recvStart, l.recvCount)
				l.seq++
				if !s.Var.Preregistered {
					bytes += len(m.data)
				}
			}
			if bytes > 0 {
				r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
			}
		})
	}
}

// --- reverse stage ----------------------------------------------------

// doReverse returns ghost forces to their owners (Newton's 3rd law): each
// ghost holder packs the force range of its ghosts and the owner
// accumulates into the send-list atoms. 3-stage runs its rounds in reverse
// order so forwarded contributions cascade home.
func (s *Simulation) doReverse() {
	packTh := s.packThreading()
	rounds := s.commRounds()
	for i := len(rounds) - 1; i >= 0; i-- {
		k := rounds[i]
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, l := range r.recvLinks {
				if !inRound(l, k) {
					continue
				}
				l.revBuf = encodeVectors(l.revBuf, r.Atoms.F, l.recvStart, l.recvCount)
				bytes += len(l.revBuf)
			}
			r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
		})
		b := s.newBatch()
		for _, r := range s.ranks {
			for _, l := range r.recvLinks {
				if !inRound(l, k) {
					continue
				}
				if s.Var.Transport == halo.TransportUTofu {
					s.ensureInbox(l.src, l.revInbox, len(l.revBuf))
				}
				b.add(&rmsg{
					src: r, dst: l.src, link: l, res: l.rev, dstThread: l.fwd.thread,
					data: l.revBuf, known: true, inboxDst: inboxRev,
					readyAt: r.Clock,
				})
			}
		}
		s.runRound(b.msgs)
		s.deliverToInboxes(b.msgs)
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, m := range b.byDst[id] {
				decodeAddVectors(m.data, r.Atoms.F, m.link.sendList)
				m.link.seq++
				bytes += len(m.data)
			}
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
		})
	}
}

// --- EAM scalar exchanges (charged inside the pair stage) --------------

// reverseScalar sends ghost scalar contributions (EAM densities) home.
func (s *Simulation) reverseScalar(arr func(*Rank) []float64) {
	packTh := s.packThreading()
	rounds := s.commRounds()
	for i := len(rounds) - 1; i >= 0; i-- {
		k := rounds[i]
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, l := range r.recvLinks {
				if !inRound(l, k) {
					continue
				}
				l.revBuf = encodeScalarRange(l.revBuf, arr(r), l.recvStart, l.recvCount)
				bytes += len(l.revBuf)
			}
			r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
		})
		b := s.newBatch()
		for _, r := range s.ranks {
			for _, l := range r.recvLinks {
				if !inRound(l, k) {
					continue
				}
				if s.Var.Transport == halo.TransportUTofu {
					s.ensureInbox(l.src, l.revInbox, len(l.revBuf))
				}
				b.add(&rmsg{
					src: r, dst: l.src, link: l, res: l.rev, dstThread: l.fwd.thread,
					data: l.revBuf, known: true, inboxDst: inboxRev,
					readyAt: r.Clock,
				})
			}
		}
		s.runRound(b.msgs)
		s.deliverToInboxes(b.msgs)
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, m := range b.byDst[id] {
				decodeAddScalars(m.data, arr(r), m.link.sendList)
				m.link.seq++
				bytes += len(m.data)
			}
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
		})
	}
}

// forwardScalar distributes an owner scalar (EAM embedding derivative) to
// ghosts.
func (s *Simulation) forwardScalar(arr func(*Rank) []float64) {
	packTh := s.packThreading()
	for _, k := range s.commRounds() {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, l := range linksOfRound(r, k) {
				l.sendBuf = encodeScalars(l.sendBuf, arr(r), l.sendList)
				bytes += len(l.sendBuf)
			}
			r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
		})
		b := s.newBatch()
		for _, r := range s.ranks {
			for _, l := range linksOfRound(r, k) {
				if s.Var.Transport == halo.TransportUTofu {
					s.ensureInbox(l.dst, l.inbox, len(l.sendBuf))
				}
				b.add(&rmsg{
					src: r, dst: l.dst, link: l, res: l.fwd, dstThread: l.rev.thread,
					data: l.sendBuf, known: true, inboxDst: inboxFwd,
					readyAt: r.Clock,
				})
			}
		}
		s.runRound(b.msgs)
		s.deliverToInboxes(b.msgs)
		s.forRanks(func(id int) {
			r := s.ranks[id]
			bytes := 0
			for _, m := range b.byDst[id] {
				l := m.link
				decodeScalars(m.data, arr(r), l.recvStart, l.recvCount)
				l.seq++
				bytes += len(m.data)
			}
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
		})
	}
}

// --- exchange stage -----------------------------------------------------

// doExchange migrates atoms that left their sub-box to their new owners.
// Exchange traffic is cold-path (reneighbor steps only) and flows over MPI
// in every variant, as the optimized artifact leaves it untouched.
func (s *Simulation) doExchange() {
	s.forRanks(func(id int) {
		r := s.ranks[id]
		a := r.Atoms
		a.ClearGhosts() // stale ghosts are rebuilt by the following border
		for dst := range r.exchScratch {
			delete(r.exchScratch, dst)
		}
		for i := a.NLocal - 1; i >= 0; i-- {
			x := s.dec.WrapPosition(a.X[i])
			a.X[i] = x
			if x.X >= r.Lo.X && x.X < r.Hi.X &&
				x.Y >= r.Lo.Y && x.Y < r.Hi.Y &&
				x.Z >= r.Lo.Z && x.Z < r.Hi.Z {
				continue
			}
			owner := s.M.Map.RankID(s.dec.OwnerCoord(x))
			if owner == r.ID {
				continue
			}
			r.exchScratch[owner] = append(r.exchScratch[owner],
				exchRecord{id: a.ID[i], typ: a.Type[i], pos: x, vel: a.V[i]})
			a.RemoveLocal(i)
		}
		r.Clock += s.M.Cost.ScanTime(a.NLocal)
	})
	b := s.newBatch()
	payloads := map[*rmsg][]exchRecord{}
	for _, r := range s.ranks {
		dsts := make([]int, 0, len(r.exchScratch))
		for d := range r.exchScratch {
			dsts = append(dsts, d)
		}
		sortInts(dsts)
		for _, d := range dsts {
			recs := r.exchScratch[d]
			m := &rmsg{
				src: r, dst: s.ranks[d],
				data: encodeExchange(nil, recs), known: false,
				readyAt: r.Clock + s.M.Cost.PackTime(units.Bytes(len(recs)*exchBytes), machine.Serial),
			}
			b.add(m)
			payloads[m] = recs
		}
	}
	if len(b.msgs) == 0 {
		return
	}
	savedTransport := s.Var.Transport
	s.Var.Transport = halo.TransportMPI
	s.runRound(b.msgs)
	s.Var.Transport = savedTransport
	for _, m := range b.msgs {
		recs := payloads[m]
		for _, rec := range recs {
			m.dst.Atoms.AddLocal(rec.id, rec.typ, rec.pos, rec.vel)
		}
		m.dst.Clock += s.M.Cost.UnpackTime(units.Bytes(len(recs)*exchBytes), machine.Serial)
	}
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// --- neighbor build and forces -----------------------------------------

// neighborMode selects the list flavor for the variant and Newton setting.
func (s *Simulation) neighborMode() neighbor.Mode {
	if !s.Cfg.NewtonOn || s.Cfg.Potential.NeedsFullList() {
		return neighbor.Full
	}
	if s.Var.Pattern == halo.P2P {
		return neighbor.HalfShell
	}
	return neighbor.HalfNewton
}

// buildNeighborLists rebuilds every rank's list and records hold positions.
func (s *Simulation) buildNeighborLists() {
	mode := s.neighborMode()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.NL = neighbor.Build(r.Atoms, s.ghCut, mode)
		r.XHold = append(r.XHold[:0], r.Atoms.X[:r.Atoms.NLocal]...)
		r.Clock += s.M.Cost.NeighTime(r.Atoms.Total(), r.NL.Candidates, s.Var.ComputeThreading)
	})
	s.Rebuilds++
}

// computeForces evaluates the potential, including the EAM mid-pair
// exchanges when applicable. Per-rank energy and virial contributions are
// stored for the thermo output.
func (s *Simulation) computeForces() {
	th := s.Var.ComputeThreading
	if mb, ok := s.Cfg.Potential.(potential.ManyBody); ok {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			r.Atoms.ZeroForces()
			r.Atoms.ZeroRho()
			n := mb.AccumulateRho(r.Atoms, r.NL)
			r.Clock += s.M.Cost.EAMPassTime(n, th)
		})
		// Interior atoms (never shipped as ghosts) have complete densities
		// before the exchange; with OverlapEAM their embedding evaluation
		// hides behind the reverse-scalar round (section 3.1's overlap).
		var preComm []float64
		if s.Var.OverlapEAM {
			preComm = s.snapshotClocks()
		}
		s.reverseScalar(func(r *Rank) []float64 { return r.Atoms.Rho })
		s.forRanks(func(id int) {
			r := s.ranks[id]
			embed := mb.FinishRho(r.Atoms)
			r.peLocal = embed
			if s.Var.OverlapEAM {
				boundary := r.boundaryLocalCount()
				interior := r.Atoms.NLocal - boundary
				overlapped := preComm[id] + s.M.Cost.EAMEmbedTime(interior, th)
				if overlapped > r.Clock {
					r.Clock = overlapped
				}
				r.Clock += s.M.Cost.EAMEmbedTime(boundary, th)
			} else {
				r.Clock += s.M.Cost.EAMEmbedTime(r.Atoms.NLocal, th)
			}
		})
		s.forwardScalar(func(r *Rank) []float64 { return r.Atoms.Fp })
		s.forRanks(func(id int) {
			r := s.ranks[id]
			res := mb.ComputeForce(r.Atoms, r.NL)
			r.peLocal += res.PotentialEnergy
			r.virLocal = res.Virial
			r.Clock += s.M.Cost.EAMPassTime(res.Interactions, th)
		})
		return
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ZeroForces()
		res := s.Cfg.Potential.Compute(r.Atoms, r.NL)
		r.peLocal = res.PotentialEnergy
		r.virLocal = res.Virial
		r.Clock += s.M.Cost.PairTime(res.Interactions, th)
	})
}
