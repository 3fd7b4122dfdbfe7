package sim

import (
	"sort"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// --- the halo-operation runner -----------------------------------------

// haloOp describes one ghost operation over the static link graph. The
// section 3.4 message path — pack, one bulk-synchronous round per stage,
// unpack — is the same for every operation; only the payload, the sending
// side and the landing place differ, and those are the fields here.
type haloOp struct {
	// rev sends from the ghost holder back to the owner: every link's rev
	// side, the rounds in reverse order so forwarded contributions cascade
	// home. Otherwise the owner sends on the fwd side.
	rev bool
	// known marks length-known payloads (forward/reverse reuse the border
	// lists); unknown-length messages pay the MPI two-step protocol.
	known bool
	// direct lands the payload in the receiver's pre-registered position
	// array at the link's ghost offset: the put, or the engine's copy of an
	// MPI fallback, is the unpack, so there is no inbox, no unpack charge
	// and no unpack call.
	direct bool
	// unpackIfAny skips the unpack region of a rank that received no bytes
	// in a round; without it the region opens regardless.
	unpackIfAny bool
	// pack encodes sender r's payload for l into buf; unpack applies the
	// received data on receiver r.
	pack   func(r *Rank, l *link, buf []byte) []byte
	unpack func(r *Rank, l *link, data []byte)
}

// links returns the links on which rank r is the operation's sender.
func (op haloOp) links(r *Rank) []*link {
	if op.rev {
		return r.recvLinks
	}
	return r.sendLinks
}

// runOp executes the operation over every round of the variant's pattern.
func (s *Simulation) runOp(op haloOp) {
	for i, k := range s.plan.Rounds {
		if op.rev {
			k = s.plan.Rounds[len(s.plan.Rounds)-1-i]
		}
		s.runOpRound(op, k)
	}
}

// runOpRound packs, ships and unpacks the operation's messages of round k.
func (s *Simulation) runOpRound(op haloOp, k halo.RoundKey) {
	packTh := s.Var.PackThreading()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, l := range op.links(r) {
			if l.inRound(k) {
				sd := l.side(op.rev)
				sd.buf = op.pack(r, l, sd.buf)
				bytes += len(sd.buf)
			}
		}
		r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
	})
	b := s.batch
	b.reset(len(s.links))
	for _, r := range s.ranks {
		for _, l := range op.links(r) {
			if !l.inRound(k) {
				continue
			}
			m := b.add(l.msg(op.rev, op.known))
			if op.direct {
				m.Region, m.DstOff = s.xRegion[m.Dst], l.recvStart*posBytes
			} else if s.Var.Transport == halo.TransportUTofu {
				ib := &l.side(op.rev).inbox
				s.ensureInbox(s.ranks[m.Dst], ib, len(m.Data))
				m.Region = ib.Next()
			}
			// Stamped after ensureInbox: a registration on a self-link (the
			// rank's own periodic image) delays its own send.
			m.ReadyAt = r.Clock
		}
	}
	s.eng.RunRound(s.Var.Transport, b.wire)
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, m := range b.byDst[id] {
			if !op.direct {
				op.unpack(r, m.link, m.Data)
			}
			bytes += len(m.Data)
		}
		if !op.direct && (bytes > 0 || !op.unpackIfAny) {
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
		}
	})
}

// --- the five operations -----------------------------------------------

// borderOp ships id/type/position records of the send lists; receivers
// append them as ghosts and record the recv_ptr range. Lengths are not yet
// known to the receiver.
var borderOp = haloOp{
	pack: func(r *Rank, l *link, buf []byte) []byte {
		return encodeBorder(buf, r.Atoms.ID, r.Atoms.Type, r.Atoms.X, l.sendList, l.shift)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		recs := decodeBorder(data)
		l.recvStart, l.recvCount = r.Atoms.Total(), len(recs)
		for _, rec := range recs {
			r.Atoms.AddGhost(rec.id, rec.typ, rec.pos)
		}
	},
}

// forwardOp updates ghost positions from their owners, written into the
// receiver's position array: by the round itself under the pre-registered
// scheme (a put, or the engine landing an MPI fallback, writes the ghost
// slots), decoded from the receive buffers otherwise.
func forwardOp(direct bool) haloOp {
	return haloOp{
		known: true, direct: direct, unpackIfAny: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return encodePositions(buf, r.Atoms.X, l.sendList, l.shift)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			decodePositions(data, r.Atoms.X, l.recvStart, l.recvCount)
		},
	}
}

// reverseOp returns ghost forces to their owners (Newton's 3rd law): each
// ghost holder packs the force range of its ghosts and the owner
// accumulates into the send-list atoms.
var reverseOp = haloOp{
	rev: true, known: true,
	pack: func(r *Rank, l *link, buf []byte) []byte {
		return encodeVectors(buf, r.Atoms.F, l.recvStart, l.recvCount)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		decodeAddVectors(data, r.Atoms.F, l.sendList)
	},
}

// scalarReverseOp sends ghost scalar contributions (EAM densities) home.
func scalarReverseOp(arr func(*Rank) []float64) haloOp {
	return haloOp{
		rev: true, known: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return halo.EncodeScalars(buf, arr(r), l.recvStart, l.recvCount)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			decodeAddScalars(data, arr(r), l.sendList)
		},
	}
}

// scalarForwardOp distributes an owner scalar (EAM embedding derivative)
// to ghosts. It always lands in the forward inbox: only the position array
// is pre-registered for direct writes.
func scalarForwardOp(arr func(*Rank) []float64) haloOp {
	return haloOp{
		known: true,
		pack: func(r *Rank, l *link, buf []byte) []byte {
			return encodeScalars(buf, arr(r), l.sendList)
		},
		unpack: func(r *Rank, l *link, data []byte) {
			halo.DecodeScalars(data, arr(r), l.recvStart, l.recvCount)
		},
	}
}

// doForward is the forward stage of an ordinary step.
func (s *Simulation) doForward() { s.runOp(forwardOp(s.Var.Preregistered)) }

// doReverse is the reverse stage of a Newton-on step.
func (s *Simulation) doReverse() { s.runOp(reverseOp) }

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
	for _, k := range s.plan.Rounds {
		if s.Var.Pattern == halo.ThreeStage {
			s.build3StageSendLists(k)
		}
		s.runOpRound(borderOp, k)
	}
	if s.Var.Preregistered {
		// The exchange and the ghosts appended above only move X if it
		// outgrew its reserve; re-take the registered view so forward puts
		// keep landing in the live array (its size, and so the region's
		// bounds, are unchanged).
		for _, r := range s.ranks {
			s.xRegion[r.ID].Buf = r.positionBytes()
		}
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
				byDir[l.spec.Dir] = l
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
					if r.qual.Qualifies(a.X[i], l.spec.Dir) {
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
		for _, l := range r.sendLinks {
			if !l.inRound(k) {
				continue
			}
			l.sendList = l.sendList[:0]
			sign := l.spec.Dir.Comp(k.Dim)
			qualify := func(i int) bool {
				x := a.X[i].Comp(k.Dim)
				if sign > 0 {
					return x >= r.Hi.Comp(k.Dim)-s.ghCut
				}
				return x < r.Lo.Comp(k.Dim)+s.ghCut
			}
			start, count := 0, r.dimGhostMark
			if k.Iter > 0 {
				prev := r.findRecvLink(halo.RoundKey{Dim: k.Dim, Iter: k.Iter - 1}, l.spec.Dir)
				if prev == nil {
					continue
				}
				start, count = prev.recvStart, prev.recvCount
			}
			for i := start; i < start+count; i++ {
				if qualify(i) {
					l.sendList = append(l.sendList, int32(i))
				}
			}
			scanned += count
		}
		r.Clock += s.M.Cost.BorderDecideTime(scanned, false)
	})
}

// findRecvLink locates the rank's receive link of a 3-stage round.
func (r *Rank) findRecvLink(k halo.RoundKey, dir vec.I3) *link {
	for _, l := range r.recvLinks {
		if l.inRound(k) && l.spec.Dir == dir {
			return l
		}
	}
	return nil
}

// piggybackOffsets ships each receiver's ghost offset (recv_ptr) back to
// the sender as an 8-byte descriptor immediate. Functionally the shared
// link struct already carries the offset; this round charges its time. It
// has no codec and no pack/unpack charge, so it is not a haloOp.
func (s *Simulation) piggybackOffsets() {
	b := s.batch
	b.reset(len(s.links))
	for _, r := range s.ranks {
		for _, l := range r.recvLinks {
			m := b.add(l.msg(true, true))
			m.Data, m.Region, m.ReadyAt = make([]byte, 8), l.rev.inbox.Next(), r.Clock
		}
	}
	s.eng.RunRound(s.Var.Transport, b.wire)
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
	b := s.batch
	pairs := 0
	for _, r := range s.ranks {
		pairs += len(r.exchScratch)
	}
	b.reset(pairs)
	for _, r := range s.ranks {
		dsts := make([]int, 0, len(r.exchScratch))
		for d := range r.exchScratch {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			data := encodeExchange(nil, r.exchScratch[d])
			b.add(rmsg{Msg: halo.Msg{
				Src: r.ID, Dst: d, Data: data,
				ReadyAt: r.Clock + s.M.Cost.PackTime(units.Bytes(len(data)), machine.Serial),
			}})
		}
	}
	s.eng.RunRound(halo.TransportMPI, b.wire)
	for _, m := range b.msgs {
		dst := s.ranks[m.Dst]
		for _, rec := range decodeExchange(m.Data) {
			dst.Atoms.AddLocal(rec.id, rec.typ, rec.pos, rec.vel)
		}
		dst.Clock += s.M.Cost.UnpackTime(units.Bytes(len(m.Data)), machine.Serial)
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
		s.runOp(scalarReverseOp(func(r *Rank) []float64 { return r.Atoms.Rho }))
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
		s.runOp(scalarForwardOp(func(r *Rank) []float64 { return r.Atoms.Fp }))
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
