package tofu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"tofumd/internal/des"
	"tofumd/internal/faultinject"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// refFabric runs a round the way the fabric did with three event kinds per
// transfer: a seed event per non-empty FIFO, issue and transmit as separate
// events, and every delivery's receive completion as an arrive event. It
// borrows a Fabric for the static tables, the round tables, the fault model
// and the recorder, and takes over its queue's handler. The method bodies
// are verbatim copies of that implementation, which ran on one logical
// process c of a sharded engine; only the type of c, the receiver type, the
// tag-kind names and the arrive event's scheduling call differ: it was sent
// to the process owning the receive context, which with one process is the
// sending one, so ScheduleTagAt schedules it identically.
type refFabric struct {
	*Fabric
	// recvFree[slot] is when the slot's receive context is free again.
	recvFree []float64
}

const (
	refIssue uint32 = iota
	refTransmit
	refArrive
)

const refMaxTagIndex = 1 << 30

// newRefFabric wraps a fabric, taking over its queue.
func newRefFabric(f *Fabric) *refFabric {
	r := &refFabric{Fabric: f}
	f.q.SetHandler(func(tag uint32) { r.handle(f.q, tag) })
	return r
}

func refPackTag(idx int, kind uint32) uint32 { return uint32(idx)<<2 | kind }

func (f *refFabric) schedule(c *des.Queue, t float64, tag uint32) {
	if err := c.ScheduleTagAt(t, tag); err != nil {
		panic("tofu: " + err.Error())
	}
}

func (f *refFabric) handle(c *des.Queue, tag uint32) {
	idx := int(tag >> 2)
	switch tag & 3 {
	case refIssue:
		f.issue(c, idx)
	case refTransmit:
		f.transmit(c, idx)
	case refArrive:
		f.arrive(c, idx)
	}
}

func (f *refFabric) RunRound(transfers []*Transfer, iface Interface) error {
	if len(transfers) == 0 {
		return nil
	}
	p := &f.Params
	if n := f.q.Pending(); n != 0 {
		f.countAbandoned(n)
		return fmt.Errorf("tofu: %d events stranded from a previous round at round start (%d abandoned)", n, n)
	}
	f.q.Reset()
	for i := range f.tniFree {
		f.tniFree[i] = 0
		f.tniLastVCQ[i] = -1
	}
	f.Faults.BeginRound()

	threads := 1
	for _, tr := range transfers {
		if tr.TNI < 0 || tr.TNI >= p.TNIsPerNode {
			panic(fmt.Sprintf("tofu: transfer TNI %d out of range", tr.TNI))
		}
		if tr.Thread < 0 || tr.DstThread < 0 {
			panic(fmt.Sprintf("tofu: transfer thread %d / receive thread %d out of range", tr.Thread, tr.DstThread))
		}
		tr.Dropped, tr.Nacked = false, false
		threads = max(threads, tr.Thread+1, tr.DstThread+1)
	}
	slots := len(f.nodeOfRank) * threads
	if slots >= refMaxTagIndex || len(transfers) >= refMaxTagIndex {
		panic(fmt.Sprintf("tofu: round of %d transfers over %d thread slots exceeds the event tag range", len(transfers), slots))
	}
	f.round, f.iface, f.threads = transfers, iface, threads
	f.gap, f.sendOv, f.recvOv = p.InjectGap(iface), p.SendOverhead(iface), p.RecvOverhead(iface)
	f.recvFree = zeroed(f.recvFree, slots)
	f.tracing = f.Rec.Enabled()
	if f.tracing {
		f.msgEvs = zeroed(f.msgEvs, len(transfers))
		f.msgSet = zeroed(f.msgSet, len(transfers))
	}

	f.fifo = zeroed(f.fifo, slots+1)
	f.head = zeroed(f.head, slots)
	f.order = zeroed(f.order, len(transfers))
	for _, tr := range transfers {
		f.fifo[tr.Src*threads+tr.Thread+1]++
	}
	for k := 0; k < slots; k++ {
		f.fifo[k+1] += f.fifo[k]
	}
	copy(f.head, f.fifo)
	for i, tr := range transfers {
		k := tr.Src*threads + tr.Thread
		f.order[f.head[k]] = int32(i)
		f.head[k]++
	}
	copy(f.head, f.fifo)

	fifos := 0
	for k := 0; k < slots; k++ {
		if f.fifo[k] < f.fifo[k+1] {
			f.schedule(f.q, 0, refPackTag(k, refIssue))
			fifos++
		}
	}
	budget := 8*len(transfers) + 8*fifos + 64
	_, runErr := f.q.RunBudget(budget)
	f.flushTrace()
	f.round = nil
	if runErr != nil {
		n := f.q.Pending()
		f.countAbandoned(n)
		return fmt.Errorf("tofu: round did not drain (%d events abandoned): %w", n, runErr)
	}
	if n := f.q.Pending(); n != 0 {
		f.countAbandoned(n)
		return fmt.Errorf("tofu: %d events abandoned at end of round", n)
	}
	return nil
}

func (f *refFabric) issue(c *des.Queue, k int) {
	pos := f.head[k]
	if pos == f.fifo[k+1] {
		return
	}
	idx := int(f.order[pos])
	tr := f.round[idx]
	start := c.Now()
	if tr.ReadyAt > start {
		f.schedule(c, tr.ReadyAt, refPackTag(k, refIssue))
		return
	}
	f.head[k] = pos + 1
	if f.met != nil {
		f.met.stall[f.iface].Observe(start - tr.ReadyAt)
	}
	cost := f.gap + f.sendOv
	if tr.TwoStep {
		cost += f.gap // separate length message
	}
	if pos > f.fifo[k] && f.round[f.order[pos-1]].VCQ != tr.VCQ {
		cost += f.Params.VCQSwitchOverhead
	}
	done := start + cost
	tr.IssueDone = done
	if f.tracing {
		f.msgEvs[idx].IssueStart = f.RecBase + start
	}
	f.schedule(c, done, refPackTag(idx, refTransmit))
	f.schedule(c, done, refPackTag(k, refIssue))
}

func (f *refFabric) transmit(c *des.Queue, idx int) {
	p := &f.Params
	tr := f.round[idx]
	iface := f.iface
	srcNode, dstNode := f.nodeOfRank[tr.Src], f.nodeOfRank[tr.Dst]
	tni := int(srcNode)*p.TNIsPerNode + tr.TNI

	txStart := c.Now()
	if f.tniFree[tni] > txStart {
		txStart = f.tniFree[tni]
	}
	fo := f.Faults.Judge(tr.Src, tr.Dst, iface == IfaceUTofu, txStart)
	if iface == IfaceUTofu {
		abs := f.RecBase + txStart
		if f.Faults.TNIFailed(tr.TNI, abs) ||
			f.Faults.LinkFailed(tr.Src, tr.Dst, abs) ||
			f.Faults.RankFailed(tr.Src, abs) || f.Faults.RankFailed(tr.Dst, abs) {
			fo.Drop, fo.Nack = true, false
		}
	}
	if fo.Stall > 0 {
		txStart += fo.Stall
		if f.met != nil {
			f.met.faultStalls.Inc()
		}
	}
	engine := p.TNIEngineGap
	wire := f.WireTime(units.Bytes(tr.Bytes)) * fo.WireFactor
	busy := engine
	if wire > busy {
		busy = wire
	}
	vcqSwitch := f.tniLastVCQ[tni] >= 0 && f.tniLastVCQ[tni] != tr.VCQ
	if vcqSwitch {
		busy += p.TNIVCQSwitchGap
	}
	txDone := txStart + busy
	f.tniFree[tni] = txDone
	f.tniLastVCQ[tni] = tr.VCQ

	hops := f.hops(srcNode, dstNode)
	if f.met != nil {
		f.met.msgs[tr.TNI].Inc()
		f.met.bytes[tr.TNI].Add(int64(tr.Bytes))
		if vcqSwitch {
			f.met.switches[tr.TNI].Inc()
		}
		f.met.hops[iface].Observe(float64(hops))
	}

	if srcNode == dstNode {
		tr.Arrival = txDone + p.BaseLatency/2
	} else {
		lat := f.Latency(hops)
		if iface == IfaceMPI && units.Bytes(tr.Bytes) > p.MPIEagerLimit {
			lat += 2 * f.Latency(hops)
		}
		if tr.IsGet {
			lat += f.Latency(hops)
		}
		tr.Arrival = txDone + lat
	}
	if f.tracing {
		b, ev := f.RecBase, &f.msgEvs[idx]
		*ev = trace.MessageEvent{
			Src: tr.Src, Dst: tr.Dst, SrcNode: int(srcNode),
			TNI: tr.TNI, VCQ: tr.VCQ, Thread: tr.Thread, DstThread: tr.DstThread,
			Bytes: tr.Bytes, Hops: hops, Iface: iface.String(),
			TwoStep: tr.TwoStep, IsGet: tr.IsGet, VCQSwitch: vcqSwitch,
			Attempt: tr.Attempt,
			ReadyAt: b + tr.ReadyAt, IssueStart: ev.IssueStart,
			IssueDone: b + tr.IssueDone, TxStart: b + txStart, TxDone: b + txDone,
		}
	}
	if fo.Failed() {
		tr.Dropped, tr.Nacked = fo.Drop, fo.Nack
		if fo.Drop {
			tr.Arrival = 0
		}
		tr.RecvComplete = 0
		if f.met != nil {
			if fo.Drop {
				f.met.drops.Inc()
			} else {
				f.met.nacks.Inc()
			}
		}
		if f.tracing {
			ev := &f.msgEvs[idx]
			ev.Dropped, ev.Nacked = tr.Dropped, tr.Nacked
			if tr.Nacked {
				ev.Arrival = f.RecBase + tr.Arrival
			}
			f.msgSet[idx] = true
		}
		return
	}
	f.schedule(c, tr.Arrival, refPackTag(idx, refArrive))
}

func (f *refFabric) arrive(c *des.Queue, idx int) {
	p := &f.Params
	tr := f.round[idx]
	ctx := tr.Dst*f.threads + tr.DstThread
	if tr.IsGet {
		ctx = tr.Src*f.threads + tr.Thread
	}
	cost := f.recvOv
	if !p.CacheInjection {
		cost += p.CacheMissPenalty
	}
	if tr.TwoStep {
		cost += f.recvOv // match the length message too
	}
	start := c.Now()
	if free := f.recvFree[ctx]; free > start {
		start = free
	}
	tr.RecvComplete = start + cost
	f.recvFree[ctx] = tr.RecvComplete
	if f.tracing {
		ev := &f.msgEvs[idx]
		ev.Arrival = f.RecBase + tr.Arrival
		ev.RecvComplete = f.RecBase + tr.RecvComplete
		f.msgSet[idx] = true
	}
}

// refCase is one family of randomized rounds for TestRoundMatchesReference.
type refCase struct {
	name  string
	iface Interface
	// faults, when set, gives both fabrics a fault model from this spec.
	faults *faultinject.Spec
	// ready draws a transfer's ReadyAt; nil means every ReadyAt is 0.
	ready []float64
	// uniform makes every rank send the same sizes on the same directions
	// to receive context 0, so equal arrival and issue-done times meet on
	// shared contexts; otherwise sizes, routes and contexts are random.
	uniform bool
}

// randomRound draws one round from rng. The transfer list is shuffled, so
// the caller's order is neither rank order nor the order of issue.
func randomRound(f *Fabric, c refCase, rng *rand.Rand) []*Transfer {
	dirs := []vec.I3{{X: 1}, {X: -1}, {X: 2}, {X: -2}, {Y: 1}, {Y: -2}, {Z: 1}, {Z: -1}}
	sizes := []int{64, 64, 256, 1024, int(f.Params.MPIEagerLimit) + 8}
	var out []*Transfer
	for r := 0; r < f.Map.Ranks(); r++ {
		if c.uniform {
			for i, d := range dirs[2:] {
				tr := &Transfer{Src: r, Dst: f.Map.NeighborRank(r, d), TNI: i % 6, VCQ: r << 3, Thread: i % 2, Bytes: 256}
				if c.ready != nil {
					tr.ReadyAt = c.ready[i%len(c.ready)]
				}
				out = append(out, tr)
			}
			continue
		}
		for n := rng.IntN(7); n > 0; n-- {
			dst := f.Map.NeighborRank(r, dirs[rng.IntN(len(dirs))])
			if rng.IntN(8) == 0 {
				dst = rng.IntN(f.Map.Ranks())
			}
			tr := &Transfer{
				Src: r, Dst: dst,
				TNI: rng.IntN(6), VCQ: r<<3 | rng.IntN(3),
				Thread: rng.IntN(3), DstThread: rng.IntN(3),
				Bytes:   sizes[rng.IntN(len(sizes))],
				TwoStep: rng.IntN(4) == 0, IsGet: rng.IntN(5) == 0,
			}
			if c.ready != nil {
				tr.ReadyAt = c.ready[rng.IntN(len(c.ready))]
			}
			out = append(out, tr)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestRoundMatchesReference holds the fabric's round, after the inert
// SetParallel(1, 2 or 4), to the three-event reference bit for bit: every
// timing output, every failure flag and the recorded trace, over several
// consecutive rounds of one fabric (so retransmit-style reuse of the round
// tables and per-round fault streams are covered too).
func TestRoundMatchesReference(t *testing.T) {
	staggered := []float64{0, 0, 0.2e-6, 0.5e-6, 1e-6, 3e-6}
	cases := []refCase{
		{name: "random-utofu", iface: IfaceUTofu},
		{name: "random-mpi", iface: IfaceMPI},
		{name: "random-ready", iface: IfaceUTofu, ready: staggered},
		{name: "uniform", iface: IfaceUTofu, uniform: true},
		{name: "uniform-ready", iface: IfaceMPI, uniform: true, ready: []float64{0, 0.3e-6}},
		{name: "faults", iface: IfaceUTofu, ready: staggered, faults: &faultinject.Spec{
			Seed: 3, Drop: 0.1, Nack: 0.1, StallProb: 0.2, StallTime: 0.7e-6,
			DegradeProb: 0.3, DegradeFactor: 3, DegradeWindow: 1e-3,
		}},
	}
	for _, c := range cases {
		for _, lps := range []int{1, 2, 4} {
			for seed := uint64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s/lps=%d/seed=%d", c.name, lps, seed)
				got := testFabric(t, vec.I3{X: 3, Y: 2, Z: 2})
				want := testFabric(t, vec.I3{X: 3, Y: 2, Z: 2})
				if err := got.SetParallel(lps); err != nil {
					t.Fatal(err)
				}
				for _, f := range []*Fabric{got, want} {
					if c.faults != nil {
						f.Faults = faultinject.New(*c.faults)
					}
					f.Rec = trace.NewRecorder()
				}
				ref := newRefFabric(want)
				for round := uint64(0); round < 3; round++ {
					a := randomRound(got, c, rand.New(rand.NewPCG(seed, round)))
					b := randomRound(want, c, rand.New(rand.NewPCG(seed, round)))
					got.RecBase = float64(round) * 1e-3
					want.RecBase = got.RecBase
					if err := got.RunRound(a, c.iface); err != nil {
						t.Fatalf("%s: round %d: %v", name, round, err)
					}
					if err := ref.RunRound(b, c.iface); err != nil {
						t.Fatalf("%s: reference round %d: %v", name, round, err)
					}
					for i := range a {
						x, y := a[i], b[i]
						if math.Float64bits(x.IssueDone) != math.Float64bits(y.IssueDone) ||
							math.Float64bits(x.Arrival) != math.Float64bits(y.Arrival) ||
							math.Float64bits(x.RecvComplete) != math.Float64bits(y.RecvComplete) ||
							x.Dropped != y.Dropped || x.Nacked != y.Nacked {
							t.Fatalf("%s: round %d transfer %d: got (%v, %v, %v, drop %v, nack %v), reference (%v, %v, %v, drop %v, nack %v)",
								name, round, i, x.IssueDone, x.Arrival, x.RecvComplete, x.Dropped, x.Nacked,
								y.IssueDone, y.Arrival, y.RecvComplete, y.Dropped, y.Nacked)
						}
					}
				}
				if !reflect.DeepEqual(got.Rec.Messages(), want.Rec.Messages()) {
					t.Fatalf("%s: recorded messages differ from the reference", name)
				}
			}
		}
	}
}

// TestRoundEventsPerTransfer pins the round's event count, after the inert
// SetParallel(1, 2 or 4): with every transfer packed at round start a
// fault-free round runs exactly one event per transfer, and ready-waits add
// at most one more each.
func TestRoundEventsPerTransfer(t *testing.T) {
	for _, lps := range []int{1, 2, 4} {
		f := testFabric(t, vec.I3{X: 3, Y: 2, Z: 2})
		if err := f.SetParallel(lps); err != nil {
			t.Fatal(err)
		}
		events := func(trs []*Transfer, iface Interface) int64 {
			st, _ := f.ParallelStats()
			before := st.TotalEvents()
			if err := f.RunRound(trs, iface); err != nil {
				t.Fatal(err)
			}
			st, _ = f.ParallelStats()
			return st.TotalEvents() - before
		}
		for _, iface := range []Interface{IfaceUTofu, IfaceMPI} {
			trs := mixedRound(f)
			for _, tr := range trs {
				tr.ReadyAt = 0
			}
			if got := events(trs, iface); got != int64(len(trs)) {
				t.Errorf("SetParallel(%d), %v: packed round ran %d events for %d transfers, want one each", lps, iface, got, len(trs))
			}
		}
		trs := goldenRounds[0].mk(f) // staggered ReadyAt
		if got := events(trs, IfaceUTofu); got <= int64(len(trs)) || got > 2*int64(len(trs)) {
			t.Errorf("SetParallel(%d): staggered round ran %d events for %d transfers, want more than one and at most two each", lps, got, len(trs))
		}
	}
}
