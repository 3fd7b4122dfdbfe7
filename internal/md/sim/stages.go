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
// section 3.4 message path — aim, pack, one bulk-synchronous round per
// stage, unpack — is the same for every operation; only the payload, the
// sending side, the landing place and whether the aimed rounds are kept
// for replay differ, and those are the fields here.
type haloOp struct {
	// rev sends from the ghost holder back to the owner: every link's rev
	// side, the rounds in reverse order so forwarded contributions cascade
	// home. Otherwise the owner sends on the fwd side.
	rev bool
	// known marks length-known payloads (forward/reverse reuse the border
	// lists); unknown-length messages pay the MPI two-step protocol.
	known bool
	// direct lands the payload in the receiver's pre-registered position
	// array at the link's ghost offset: the sender packs straight into the
	// ghost slots, the round charges the put and copies nothing (or lands
	// an MPI fallback there), so there is no inbox, no unpack charge and no
	// unpack.
	direct bool
	// unpackIfAny skips the unpack charge of a rank that received no bytes
	// in a round; without it the charge applies regardless.
	unpackIfAny bool
	// plan names the rounds the operation aims once per plan epoch and
	// replays; adHoc aims them afresh on every run.
	plan opPlan
	// recBytes is the payload's size per record: a message carries one
	// record per send-list atom, or per ghost of the receive range when
	// rev. Its length is known before packing, so it is aimed first.
	recBytes int
	// pack encodes sender r's payload for l into dst, growing it, and
	// returns it: dst is where the payload lands (the receiver's ghost
	// slots or inbox) under uTofu, the side's scratch under MPI. view, set
	// in its place, returns a payload that already lies contiguous in r's
	// own arrays; under MPI the round sends it from there. unpack applies
	// the received data on receiver r.
	pack   func(r *Rank, l *link, dst []byte) []byte
	view   func(r *Rank, l *link) []byte
	unpack func(r *Rank, l *link, data []byte)
}

// links returns the links on which rank r is the operation's sender.
func (op haloOp) links(r *Rank) []*link {
	if op.rev {
		return r.recvLinks
	}
	return r.sendLinks
}

// size returns the payload length of the operation's message on l.
func (op haloOp) size(l *link) int {
	if op.rev {
		return l.recvCount * op.recBytes
	}
	return len(l.sendList) * op.recBytes
}

// payload writes sender r's payload of the message m aimed on l and
// returns it. An aimed message (uTofu, where m.Region is set) is written at
// its destination, a view copied there, so its bytes have landed before the
// round runs. Under MPI the payload is the view itself or the side's
// scratch, the only payload kept on the side.
func (op haloOp) payload(r *Rank, l *link, m *halo.Msg) []byte {
	if m.Region != nil {
		if op.view == nil {
			return op.pack(r, l, m.Dest())
		}
		v := op.view(r, l)
		dst := m.Dest()[:len(v)]
		copy(dst, v)
		return dst
	}
	if op.view != nil {
		return op.view(r, l)
	}
	sd := l.side(op.rev)
	sd.buf = op.pack(r, l, sd.buf)
	return sd.buf
}

// runOp executes the operation over every round of the variant's pattern.
// then, if not nil, is the rank-local work that needs only the operation's
// bytes: it runs on every rank once the rank has unpacked the last round,
// beside that round's timing, and charges no clock (its caller does, after
// the join).
func (s *Simulation) runOp(op haloOp, then func(r *Rank)) {
	for i := range s.plan.Rounds {
		s.runOpRound(op, i, then)
	}
}

// runOpRound runs the operation's i-th round, the plan's i-th (counted
// from the end when rev), through Engine.Run; then runs only on the last
// round, beside its timing. A round is aimed once per plan epoch and
// replayed until the epoch advances (border, TNI re-plan, inbox
// registration). The round's tasks are bound once (roundTasks); the
// operation and then are handed to them here. The stamp charges each link
// side's pending inbox registration (none on a replay) and stamps ReadyAt;
// the workers unpack each receiver's messages and run then on it, and
// settle charges the unpacks.
func (s *Simulation) runOpRound(op haloOp, i int, then func(r *Rank)) {
	last := len(s.plan.Rounds) - 1
	k := s.plan.Rounds[i]
	if op.rev {
		k = s.plan.Rounds[last-i]
	}
	if i < last {
		then = nil
	}
	t := s.tasks[op.plan][i]
	if op.plan != adHoc && t.b.Epoch == s.epoch {
		s.replays[op.plan]++
	} else {
		s.aims[op.plan]++
		s.aimRound(op, k, t.b)
	}
	t.op, t.then = op, then
	unpack, settle := t.unpack, t.settle
	if op.direct {
		settle = nil
		if then == nil {
			unpack = nil
		}
	}
	s.eng.Run(s.pool, s.Var.Transport, t.b, t.pack, t.stamp, unpack, settle)
}

// roundTasks are Engine.Run's tasks for one (plan, round) pair, bound once
// at setup so that running a round allocates no closure. runOpRound hands
// them the operation and its follow-on work then (nil but on the last
// round) before each run; every task reads them from here.
type roundTasks struct {
	s    *Simulation
	b    *halo.Round
	op   haloOp
	then func(r *Rank)
	// pack, stamp, unpack and settle are the bound methods below.
	pack, unpack, settle func(id int)
	stamp                func()
}

// bindRound returns the tasks of round b.
func (s *Simulation) bindRound(b *halo.Round) *roundTasks {
	t := &roundTasks{s: s, b: b}
	t.pack, t.stamp, t.unpack, t.settle = t.packRank, t.stampAll, t.unpackRank, t.settleRank
	return t
}

// packRank writes sender id's payloads and charges their packing.
func (t *roundTasks) packRank(id int) {
	s := t.s
	r := s.ranks[id]
	bytes := 0
	for _, m := range t.b.BySrc[id] {
		m.Data = t.op.payload(r, &s.links[m.Link], m)
		bytes += len(m.Data)
	}
	r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), s.Var.PackThreading())
}

// stampAll charges each message's pending inbox registration and stamps
// its ReadyAt from the sender's clock.
func (t *roundTasks) stampAll() {
	s := t.s
	for _, m := range t.b.Msgs {
		// Charged before the stamp: a registration on a self-link (the
		// rank's own periodic image) delays its own send.
		sd := s.links[m.Link].side(t.op.rev)
		s.chargeRegistration(s.ranks[m.Dst], sd.reg)
		sd.reg = 0
		m.ReadyAt = s.ranks[m.Src].Clock
	}
}

// unpackRank applies receiver id's messages, unless the operation landed
// them directly, and runs then on it.
func (t *roundTasks) unpackRank(id int) {
	s := t.s
	r := s.ranks[id]
	if !t.op.direct {
		for _, m := range t.b.ByDst[id] {
			t.op.unpack(r, &s.links[m.Link], m.Data)
		}
	}
	if t.then != nil {
		t.then(r)
	}
}

// settleRank charges receiver id's unpacking.
func (t *roundTasks) settleRank(id int) {
	s := t.s
	bytes := 0
	for _, m := range t.b.ByDst[id] {
		bytes += len(m.Data)
	}
	if bytes > 0 || !t.op.unpackIfAny {
		s.ranks[id].Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), s.Var.PackThreading())
	}
}

// opRound returns the round plan p's i-th round is aimed in.
func (s *Simulation) opRound(p opPlan, i int) *halo.Round {
	if p == adHoc {
		return s.round
	}
	return s.plans[p][i]
}

// aimRound builds the operation's messages of round k into b and aims
// them, growing each inbox to its payload's length and keeping the cost on
// the link side; a planned b is stamped with the epoch that holds after the
// growths, so it replays until the next border, re-plan or registration.
func (s *Simulation) aimRound(op haloOp, k halo.RoundKey, b *halo.Round) {
	b.Reset(len(s.links) / len(s.plan.Rounds)) // every round holds as many links
	for _, r := range s.ranks {
		for _, l := range op.links(r) {
			if !l.inRound(k) {
				continue
			}
			m := b.Add(l.msg(op.rev, op.known))
			switch {
			case op.direct:
				m.Region, m.DstOff = s.xRegion[m.Dst], l.recvStart*posBytes
			case s.Var.Transport == halo.TransportUTofu:
				sd := l.side(op.rev)
				sd.reg = s.growInbox(&sd.inbox, m.Dst, op.size(l))
				m.Region = sd.inbox.Region
			}
		}
	}
	if op.plan != adHoc {
		b.Epoch = s.epoch
	}
}

// --- the five operations -----------------------------------------------

// borderOp ships id/type/position records of the send lists; receivers
// append them as ghosts and record the recv_ptr range. Lengths are not yet
// known to the receiver.
var borderOp = haloOp{
	recBytes: borderBytes,
	pack: func(r *Rank, l *link, dst []byte) []byte {
		return encodeBorder(dst, r.Atoms.ID, r.Atoms.Type, r.Atoms.X, l.sendList, l.shift)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		recs := decodeBorder(data)
		l.recvStart, l.recvCount = r.Atoms.Total(), len(recs)
		for _, rec := range recs {
			r.Atoms.AddGhost(rec.id, rec.typ, rec.pos)
		}
	},
}

// forwardOp updates ghost positions from their owners, decoded from the
// receive buffers into the receiver's position array.
var forwardOp = haloOp{
	known: true, unpackIfAny: true, recBytes: posBytes, plan: fwdPlan,
	pack: func(r *Rank, l *link, dst []byte) []byte {
		return encodePositions(dst, r.Atoms.X, l.sendList, l.shift)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		decodePositions(data, r.Atoms.X, l.recvStart, l.recvCount)
	},
}

// directForwardOp is forwardOp under the pre-registered scheme: the sender
// itself packs X+shift straight into the receiver's ghost slots, which the
// round then charges (and an MPI fallback lands on).
var directForwardOp = func() haloOp {
	op := forwardOp
	op.direct = true
	return op
}()

// forward returns the variant's forward operation.
func (s *Simulation) forward() haloOp {
	if s.Var.Preregistered {
		return directForwardOp
	}
	return forwardOp
}

// reverseOp returns ghost forces to their owners (Newton's 3rd law): each
// ghost holder's force range of its ghosts is contiguous in its force
// array, so it needs no packing. Under uTofu the holder copies it from F
// straight into the owner's inbox inside the pack region, and the round
// finds it landed; under MPI the owner reads the holder's F itself. The
// owner accumulates into the send-list atoms.
var reverseOp = haloOp{
	rev: true, known: true, recBytes: posBytes, plan: revPlan,
	view: func(r *Rank, l *link) []byte {
		return halo.V3Bytes(r.Atoms.F[l.recvStart : l.recvStart+l.recvCount])
	},
	unpack: func(r *Rank, l *link, data []byte) {
		decodeAddVectors(data, r.Atoms.F, l.sendList)
	},
}

// scalarReverseOp sends ghost EAM density contributions home.
var scalarReverseOp = haloOp{
	rev: true, known: true, recBytes: halo.F64Bytes, plan: scalarRevPlan,
	pack: func(r *Rank, l *link, dst []byte) []byte {
		return halo.EncodeScalars(dst, r.Atoms.Rho, l.recvStart, l.recvCount)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		decodeAddScalars(data, r.Atoms.Rho, l.sendList)
	},
}

// scalarForwardOp distributes the owners' EAM embedding derivatives to
// their ghosts. It always lands in the forward inbox: only the position
// array is pre-registered for direct writes.
var scalarForwardOp = haloOp{
	known: true, recBytes: halo.F64Bytes, plan: scalarFwdPlan,
	pack: func(r *Rank, l *link, dst []byte) []byte {
		return encodeScalars(dst, r.Atoms.Fp, l.sendList)
	},
	unpack: func(r *Rank, l *link, data []byte) {
		halo.DecodeScalars(data, r.Atoms.Fp, l.recvStart, l.recvCount)
	},
}

// --- border stage -----------------------------------------------------

// doBorder rebuilds the ghost regions: send lists are derived from the
// sub-box geometry, atoms are shipped, and receivers append ghosts and
// record the recv_ptr offsets; then runs on every rank beside the last
// round, once its ghosts are complete. Under the pre-registered scheme the
// offsets are piggybacked back to the senders (section 3.4).
func (s *Simulation) doBorder(then func(r *Rank)) {
	// A fresh plan re-arms transiently degraded neighbor links; health
	// quarantine is sticky and survives the rebuild (only ProbeHealth
	// re-arms a quarantined link or TNI).
	s.fb.Reset()
	s.epoch++
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ClearGhosts()
		r.resetPlan()
	})
	if s.Var.Pattern == halo.P2P {
		s.buildP2PSendLists()
	}
	for i, k := range s.plan.Rounds {
		if s.Var.Pattern == halo.ThreeStage {
			s.build3StageSendLists(k)
		}
		s.runOpRound(borderOp, i, then)
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

// recvPtrDescriptor is the 8-byte payload of every recv_ptr descriptor.
// A put and an MPI-fallback landing only read it, so one array serves all.
var recvPtrDescriptor [8]byte

// piggybackOffsets ships each receiver's ghost offset (recv_ptr) back to
// the sender as an 8-byte descriptor immediate. Functionally the shared
// link struct already carries the offset; this round charges its time. It
// has no codec and no pack/unpack charge, so it is not a haloOp.
func (s *Simulation) piggybackOffsets() {
	b := s.round
	b.Reset(len(s.links))
	for _, r := range s.ranks {
		for _, l := range r.recvLinks {
			m := b.Add(l.msg(true, true))
			m.Data, m.Region, m.ReadyAt = recvPtrDescriptor[:], l.rev.inbox.Region, r.Clock
		}
	}
	s.eng.RunRound(s.Var.Transport, b.Msgs)
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
	b := s.round
	pairs := 0
	for _, r := range s.ranks {
		pairs += len(r.exchScratch)
	}
	b.Reset(pairs)
	for _, r := range s.ranks {
		dsts := make([]int, 0, len(r.exchScratch))
		for d := range r.exchScratch {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			data := encodeExchange(nil, r.exchScratch[d])
			b.Add(halo.Msg{
				Src: r.ID, Dst: d, Link: -1, Data: data,
				ReadyAt: r.Clock + s.M.Cost.PackTime(units.Bytes(len(data)), machine.Serial),
			})
		}
	}
	s.eng.RunRound(halo.TransportMPI, b.Msgs)
	for _, m := range b.Msgs {
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

// buildNeighborList rebuilds rank r's list and records its hold
// positions. It needs only r's atoms, so a rebuild runs it beside the
// border's last round; it charges no clock (the neigh stage does).
func (s *Simulation) buildNeighborList(r *Rank) {
	if r.NL == nil {
		r.NL = new(neighbor.List)
	}
	r.NL.Rebuild(r.Atoms, s.ghCut, s.neighborMode())
	r.XHold = append(r.XHold[:0], r.Atoms.X[:r.Atoms.NLocal]...)
}

// firstForcePass runs rank r's first force pass: the whole pair kernel, or
// the EAM density accumulation, which records its kept pairs in r.kept for
// the force pass. It needs only r's atoms and list, so it runs beside the
// round that completes r's ghosts (forward, or border on a rebuild); it
// charges no clock and leaves the pass's interaction count in r.pairs for
// finishForces.
func (s *Simulation) firstForcePass(r *Rank) {
	r.Atoms.ZeroForces()
	if mb, ok := s.Cfg.Potential.(potential.ManyBody); ok {
		r.Atoms.ZeroRho()
		r.pairs = mb.AccumulateRhoKept(r.Atoms, r.NL, &r.kept)
		return
	}
	res := s.Cfg.Potential.Compute(r.Atoms, r.NL)
	r.peLocal = res.PotentialEnergy
	r.virLocal = res.Virial
	r.pairs = res.Interactions
}

// finishForces charges every rank's first force pass and, for EAM, runs
// the rest: the density exchange with the embedding beside its last round,
// then the derivative exchange with the force pass beside its last round.
// The force pass replays the density pass's kept mask: neither exchange
// moves a position or rebuilds a list.
func (s *Simulation) finishForces() {
	th := s.Var.ComputeThreading
	mb, ok := s.Cfg.Potential.(potential.ManyBody)
	if !ok {
		for _, r := range s.ranks {
			r.Clock += s.M.Cost.PairTime(r.pairs, th)
		}
		return
	}
	chargePass := func() {
		for _, r := range s.ranks {
			r.Clock += s.M.Cost.EAMPassTime(r.pairs, th)
		}
	}
	chargePass()
	s.runOp(scalarReverseOp, func(r *Rank) {
		r.peLocal = mb.FinishRho(r.Atoms)
	})
	for _, r := range s.ranks {
		r.Clock += s.M.Cost.EAMEmbedTime(r.Atoms.NLocal, th)
	}
	s.runOp(scalarForwardOp, func(r *Rank) {
		res := mb.ComputeForceKept(r.Atoms, r.NL, r.kept)
		r.peLocal += res.PotentialEnergy
		r.virLocal = res.Virial
		r.pairs = res.Interactions
	})
	chargePass()
}
