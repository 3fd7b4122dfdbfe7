package tofu

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

func testFabric(t *testing.T, shape vec.I3) *Fabric {
	t.Helper()
	tr, err := topo.NewTorus3D(shape)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(tr, topo.DefaultBlock, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	return NewFabric(m, DefaultParams())
}

func TestPutLatencyMatchesTofuD(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	// The TofuD paper reports 0.49us minimal one-sided latency.
	got := f.PutLatency(1, 8)
	if math.Abs(got-0.49e-6) > 0.05e-6 {
		t.Errorf("PutLatency(1 hop, 8B) = %v, want ~0.49us", got)
	}
}

func TestWireTime(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	got := f.WireTime(6800)
	if math.Abs(got-1e-6) > 1e-12 {
		t.Errorf("WireTime(6800B at 6.8GB/s) = %v, want 1us", got)
	}
}

func TestSingleThreadInjectionSerializes(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	// Rank 0 sends 13 small messages from one thread on one TNI.
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0}) // off-node
	var trs []*Transfer
	for i := 0; i < 13; i++ {
		trs = append(trs, &Transfer{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 64})
	}
	f.RunRound(trs, IfaceUTofu)
	p := f.Params
	per := p.UTofuInjectGap + p.UTofuPutOverhead
	wantLast := 13 * per
	if math.Abs(trs[12].IssueDone-wantLast) > 1e-9 {
		t.Errorf("13th IssueDone = %v, want %v", trs[12].IssueDone, wantLast)
	}
	// Arrivals must be strictly increasing (same route, serialized).
	for i := 1; i < len(trs); i++ {
		if trs[i].Arrival <= trs[i-1].Arrival {
			t.Errorf("arrival %d (%v) not after %d (%v)", i, trs[i].Arrival, i-1, trs[i-1].Arrival)
		}
	}
}

func TestParallelThreadsInjectConcurrently(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	mk := func(thread, tni int, n int) []*Transfer {
		var out []*Transfer
		for i := 0; i < n; i++ {
			out = append(out, &Transfer{Src: 0, Dst: dst, TNI: tni, VCQ: 100 + thread, Thread: thread, Bytes: 64})
		}
		return out
	}
	// 12 messages on one thread vs 12 messages over 6 threads/TNIs.
	single := mk(0, 0, 12)
	f.RunRound(single, IfaceUTofu)
	lastSingle := maxArrival(single)

	var parallel []*Transfer
	for th := 0; th < 6; th++ {
		parallel = append(parallel, mk(th, th, 2)...)
	}
	f.RunRound(parallel, IfaceUTofu)
	lastParallel := maxArrival(parallel)

	if lastParallel >= lastSingle {
		t.Errorf("parallel injection (%v) not faster than single thread (%v)", lastParallel, lastSingle)
	}
}

func maxArrival(trs []*Transfer) float64 {
	var m float64
	for _, tr := range trs {
		if tr.Arrival > m {
			m = tr.Arrival
		}
	}
	return m
}

func TestMPISlowerThanUTofu(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	mk := func() []*Transfer {
		var out []*Transfer
		for i := 0; i < 13; i++ {
			out = append(out, &Transfer{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 512})
		}
		return out
	}
	u := mk()
	f.RunRound(u, IfaceUTofu)
	m := mk()
	f.RunRound(m, IfaceMPI)
	if maxArrival(m) <= maxArrival(u) {
		t.Errorf("MPI round (%v) not slower than uTofu (%v)", maxArrival(m), maxArrival(u))
	}
}

func TestVCQSwitchOverheadCharged(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	// Same VCQ six times vs alternating VCQs six times, one thread.
	same := make([]*Transfer, 6)
	for i := range same {
		same[i] = &Transfer{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 64}
	}
	f.RunRound(same, IfaceUTofu)
	alt := make([]*Transfer, 6)
	for i := range alt {
		alt[i] = &Transfer{Src: 0, Dst: dst, TNI: i % 6, VCQ: 1 + i%6, Thread: 0, Bytes: 64}
	}
	f.RunRound(alt, IfaceUTofu)
	if alt[5].IssueDone <= same[5].IssueDone {
		t.Errorf("VCQ-switching issue time (%v) not slower than same-VCQ (%v)",
			alt[5].IssueDone, same[5].IssueDone)
	}
}

func TestTNIVCQSwitchGapCharged(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	// Two threads drive TNI 0 concurrently so their commands interleave at
	// the engine. Pinned: both threads share one VCQ (the engine never
	// switches). Spray: each thread has its own VCQ, so the interleaved
	// engine alternates VCQs and pays the switch gap on nearly every
	// command. Thread-side costs are identical in both rounds — each thread
	// sticks to a single VCQ — isolating the engine-side charge.
	mk := func(vcqOf func(thread int) int) []*Transfer {
		var out []*Transfer
		for i := 0; i < 8; i++ {
			for th := 0; th < 2; th++ {
				out = append(out, &Transfer{
					Src: 0, Dst: dst, TNI: 0, VCQ: vcqOf(th), Thread: th, Bytes: 64,
				})
			}
		}
		return out
	}
	pinned := mk(func(int) int { return 1 })
	f.RunRound(pinned, IfaceUTofu)
	spray := mk(func(th int) int { return 1 + th })
	f.RunRound(spray, IfaceUTofu)
	if maxArrival(spray) <= maxArrival(pinned) {
		t.Errorf("two-VCQ spray round (%v) not slower than VCQ-pinned round (%v)",
			maxArrival(spray), maxArrival(pinned))
	}
}

func TestRecorderCapturesTransfers(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	rec := trace.NewRecorder()
	f.Rec = rec
	f.RecBase = 3e-6
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	trs := []*Transfer{
		{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 64},
		{Src: 0, Dst: dst, TNI: 0, VCQ: 2, Thread: 0, Bytes: 128},
	}
	f.RunRound(trs, IfaceUTofu)
	msgs := rec.Messages()
	if len(msgs) != 2 {
		t.Fatalf("recorded %d messages, want 2", len(msgs))
	}
	sawSwitch := false
	for _, m := range msgs {
		if m.ReadyAt < f.RecBase || m.IssueStart < m.ReadyAt ||
			m.IssueDone < m.IssueStart || m.TxDone < m.TxStart ||
			m.Arrival < m.TxDone || m.RecvComplete < m.Arrival {
			t.Errorf("timing chain out of order: %+v", m)
		}
		if m.Hops != f.Map.Hops(0, dst) {
			t.Errorf("hops = %d, want %d", m.Hops, f.Map.Hops(0, dst))
		}
		if m.Iface != "utofu" {
			t.Errorf("iface = %q", m.Iface)
		}
		if m.VCQSwitch {
			sawSwitch = true
		}
	}
	if !sawSwitch {
		t.Error("no VCQSwitch recorded for the alternating-VCQ transfer")
	}
}

func TestTNIEngineContention(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	// Ranks 0 and 1 share node 0. Both send big messages; same TNI
	// serializes on the wire, different TNIs do not.
	dst0 := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	dst1 := f.Map.NeighborRank(1, vec.I3{X: 2, Y: 0, Z: 0})
	const big = 680000 // 100us of wire time
	shared := []*Transfer{
		{Src: 0, Dst: dst0, TNI: 0, VCQ: 1, Thread: 0, Bytes: big},
		{Src: 1, Dst: dst1, TNI: 0, VCQ: 2, Thread: 0, Bytes: big},
	}
	f.RunRound(shared, IfaceUTofu)
	sharedLast := maxArrival(shared)
	split := []*Transfer{
		{Src: 0, Dst: dst0, TNI: 0, VCQ: 1, Thread: 0, Bytes: big},
		{Src: 1, Dst: dst1, TNI: 1, VCQ: 2, Thread: 0, Bytes: big},
	}
	f.RunRound(split, IfaceUTofu)
	splitLast := maxArrival(split)
	if sharedLast <= splitLast {
		t.Errorf("shared-TNI round (%v) not slower than split-TNI (%v)", sharedLast, splitLast)
	}
	// The shared round serializes two 100us wire times.
	if sharedLast < 2*f.WireTime(big) {
		t.Errorf("shared-TNI last arrival %v < 2 wire times %v", sharedLast, 2*f.WireTime(big))
	}
}

func TestHopsIncreaseLatency(t *testing.T) {
	f := testFabric(t, vec.I3{X: 6, Y: 6, Z: 6})
	near := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0}) // 1 node hop
	far := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 2, Z: 1})  // 3 node hops
	a := []*Transfer{{Src: 0, Dst: near, TNI: 0, VCQ: 1, Bytes: 64}}
	f.RunRound(a, IfaceUTofu)
	b := []*Transfer{{Src: 0, Dst: far, TNI: 0, VCQ: 1, Bytes: 64}}
	f.RunRound(b, IfaceUTofu)
	if b[0].Arrival <= a[0].Arrival {
		t.Errorf("3-hop arrival (%v) not after 1-hop (%v)", b[0].Arrival, a[0].Arrival)
	}
	wantDelta := 2 * f.Params.HopLatency
	gotDelta := b[0].Arrival - a[0].Arrival
	if math.Abs(gotDelta-wantDelta) > 1e-9 {
		t.Errorf("hop delta = %v, want %v", gotDelta, wantDelta)
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	intra := f.Map.NeighborRank(0, vec.I3{X: 1, Y: 0, Z: 0}) // same node (2x2x1 block)
	inter := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	a := []*Transfer{{Src: 0, Dst: intra, TNI: 0, VCQ: 1, Bytes: 64}}
	f.RunRound(a, IfaceUTofu)
	b := []*Transfer{{Src: 0, Dst: inter, TNI: 0, VCQ: 1, Bytes: 64}}
	f.RunRound(b, IfaceUTofu)
	if a[0].Arrival >= b[0].Arrival {
		t.Errorf("intra-node (%v) not cheaper than inter-node (%v)", a[0].Arrival, b[0].Arrival)
	}
}

func TestTwoStepCostsExtra(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	one := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: 256}}
	f.RunRound(one, IfaceMPI)
	two := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: 256, TwoStep: true}}
	f.RunRound(two, IfaceMPI)
	if two[0].RecvComplete <= one[0].RecvComplete {
		t.Errorf("two-step (%v) not slower than combined (%v)", two[0].RecvComplete, one[0].RecvComplete)
	}
}

func TestRendezvousForLargeMPIMessages(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	small := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: 1024}}
	f.RunRound(small, IfaceMPI)
	big := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: int(f.Params.MPIEagerLimit) + 1}}
	f.RunRound(big, IfaceMPI)
	// Beyond pure bandwidth, the big message pays an extra round trip.
	deltaWire := f.WireTime(f.Params.MPIEagerLimit+1) - f.WireTime(1024)
	extra := (big[0].Arrival - small[0].Arrival) - deltaWire
	if extra < f.Latency(1) {
		t.Errorf("rendezvous extra latency %v < one round %v", extra, f.Latency(1))
	}
}

func TestReadyAtDelaysInjection(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	trs := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: 64, ReadyAt: 5e-6}}
	f.RunRound(trs, IfaceUTofu)
	if trs[0].IssueDone < 5e-6 {
		t.Errorf("IssueDone %v before ReadyAt", trs[0].IssueDone)
	}
}

func TestRunRoundDeterministic(t *testing.T) {
	f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
	mk := func() []*Transfer {
		var out []*Transfer
		for r := 0; r < 16; r++ {
			for i := 0; i < 5; i++ {
				dst := f.Map.NeighborRank(r, vec.I3{X: 2, Y: 2, Z: 0})
				out = append(out, &Transfer{Src: r, Dst: dst, TNI: i % 6, VCQ: r*8 + i, Thread: i % 3, Bytes: 100 * (i + 1)})
			}
		}
		return out
	}
	a := mk()
	f.RunRound(a, IfaceUTofu)
	b := mk()
	f.RunRound(b, IfaceUTofu)
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].IssueDone != b[i].IssueDone {
			t.Fatalf("transfer %d differs between identical rounds", i)
		}
	}
}

func TestAllreduceTimeGrowsWithRanks(t *testing.T) {
	f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
	t16 := f.AllreduceTime(16, 8, IfaceMPI)
	t256 := f.AllreduceTime(256, 8, IfaceMPI)
	t147k := f.AllreduceTime(147456, 8, IfaceMPI)
	if !(t16 < t256 && t256 < t147k) {
		t.Errorf("allreduce times not increasing: %v %v %v", t16, t256, t147k)
	}
	if f.AllreduceTime(1, 8, IfaceMPI) != 0 {
		t.Error("single-rank allreduce should be free")
	}
}

func TestBarrierAndBcast(t *testing.T) {
	f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
	if f.BarrierTime(64, IfaceMPI) <= 0 {
		t.Error("barrier time not positive")
	}
	if f.BcastTime(1, 100, IfaceMPI) != 0 {
		t.Error("single-rank bcast should be free")
	}
	if f.BcastTime(64, 100, IfaceMPI) <= 0 {
		t.Error("bcast time not positive")
	}
}

func TestRunRoundEmptyNoop(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	f.RunRound(nil, IfaceUTofu) // must not panic
}

func TestBadTNIPanics(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range TNI did not panic")
		}
	}()
	f.RunRound([]*Transfer{{Src: 0, Dst: 1, TNI: 99, Bytes: 8}}, IfaceUTofu)
}

// A negative thread id has no slot in the round's dense per-thread state; it
// must be refused up front like an out-of-range TNI, not surface as an index
// panic inside an event handler.
func TestNegativeThreadPanics(t *testing.T) {
	for _, tr := range []*Transfer{
		{Src: 0, Dst: 1, Thread: -1, Bytes: 8},
		{Src: 0, Dst: 1, DstThread: -2, Bytes: 8},
	} {
		func() {
			f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tofu: transfer thread") {
					t.Errorf("Thread %d / DstThread %d: recovered %q, want the fabric's range panic", tr.Thread, tr.DstThread, msg)
				}
			}()
			f.RunRound([]*Transfer{tr}, IfaceUTofu)
		}()
	}
}

func TestCacheInjectionSavesReceiveTime(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	withCI := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: 256}}
	f.RunRound(withCI, IfaceUTofu)

	p := DefaultParams()
	p.CacheInjection = false
	f2 := NewFabric(f.Map, p)
	withoutCI := []*Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: 256}}
	f2.RunRound(withoutCI, IfaceUTofu)

	want := p.CacheMissPenalty
	got := withoutCI[0].RecvComplete - withCI[0].RecvComplete
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cache-miss penalty = %v, want %v", got, want)
	}
}

// With a fault model attached, dropped transfers must be marked, never
// complete, and be counted; the round must stay deterministic.
func TestRunRoundFaultDrops(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	f.Faults = faultinject.New(faultinject.Spec{Seed: 7, Drop: 0.4})
	reg := metrics.New()
	f.SetMetrics(reg)
	rec := trace.NewRecorder()
	f.Rec = rec
	mk := func() []*Transfer {
		var trs []*Transfer
		dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
		for i := 0; i < 32; i++ {
			trs = append(trs, &Transfer{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 64})
		}
		return trs
	}
	trs := mk()
	f.RunRound(trs, IfaceUTofu)
	dropped := 0
	for i, tr := range trs {
		if tr.Dropped {
			dropped++
			if tr.RecvComplete != 0 || tr.Arrival != 0 {
				t.Errorf("dropped transfer %d has completion times: arr=%v recv=%v",
					i, tr.Arrival, tr.RecvComplete)
			}
		} else if tr.RecvComplete <= 0 {
			t.Errorf("delivered transfer %d has no completion", i)
		}
	}
	if dropped == 0 {
		t.Fatal("no transfer dropped at rate 0.4 over 32 transfers")
	}
	if got := reg.Counter("fabric_faults", "drops").Value(); got != int64(dropped) {
		t.Errorf("drop counter = %d, want %d", got, dropped)
	}
	// Dropped messages still appear in the trace, flagged.
	flagged := 0
	for _, m := range rec.Messages() {
		if m.Dropped {
			flagged++
		}
	}
	if flagged != dropped {
		t.Errorf("trace has %d dropped messages, want %d", flagged, dropped)
	}

	// Determinism: a fresh fabric with the same spec drops the same set.
	f2 := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	f2.Faults = faultinject.New(faultinject.Spec{Seed: 7, Drop: 0.4})
	trs2 := mk()
	f2.RunRound(trs2, IfaceUTofu)
	for i := range trs {
		if trs[i].Dropped != trs2[i].Dropped || trs[i].RecvComplete != trs2[i].RecvComplete {
			t.Fatalf("replay diverged at transfer %d", i)
		}
	}
}

// NACKs must only hit the one-sided interface; MPI rounds see them as
// clean deliveries.
func TestRunRoundNackSparesMPI(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	f.Faults = faultinject.New(faultinject.Spec{Seed: 5, Nack: 0.9})
	dst := f.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
	var trs []*Transfer
	for i := 0; i < 16; i++ {
		trs = append(trs, &Transfer{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 64})
	}
	f.RunRound(trs, IfaceMPI)
	for i, tr := range trs {
		if tr.Nacked {
			t.Errorf("MPI transfer %d NACKed", i)
		}
		if tr.RecvComplete <= 0 {
			t.Errorf("MPI transfer %d did not complete", i)
		}
	}
	f.RunRound(trs, IfaceUTofu)
	nacked := 0
	for _, tr := range trs {
		if tr.Nacked {
			nacked++
		}
	}
	if nacked == 0 {
		t.Error("no uTofu transfer NACKed at rate 0.9")
	}
}

// A transient stall delays the TNI; a degradation window stretches wire
// time. Both must only ever push completions later, never lose them.
func TestRunRoundStallAndDegradeDelayOnly(t *testing.T) {
	base := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	mk := func() []*Transfer {
		dst := base.Map.NeighborRank(0, vec.I3{X: 2, Y: 0, Z: 0})
		var trs []*Transfer
		for i := 0; i < 16; i++ {
			trs = append(trs, &Transfer{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Thread: 0, Bytes: 4096})
		}
		return trs
	}
	clean := mk()
	base.RunRound(clean, IfaceUTofu)

	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	f.Faults = faultinject.New(faultinject.Spec{Seed: 2,
		StallProb: 0.5, StallTime: 3e-6,
		DegradeProb: 0.9, DegradeFactor: 4, DegradeWindow: 1e-3})
	faulty := mk()
	f.RunRound(faulty, IfaceUTofu)
	slower := false
	for i := range faulty {
		if faulty[i].RecvComplete <= 0 {
			t.Fatalf("transfer %d lost under stall/degrade faults", i)
		}
		if faulty[i].RecvComplete < clean[i].RecvComplete-1e-12 {
			t.Errorf("transfer %d faster under faults: %v < %v",
				i, faulty[i].RecvComplete, clean[i].RecvComplete)
		}
		if faulty[i].RecvComplete > clean[i].RecvComplete+1e-12 {
			slower = true
		}
	}
	if !slower {
		t.Error("stall+degrade faults changed nothing")
	}
}

// goldenRound is one round whose timing outputs are pinned bit for bit. The
// hashes were captured at the commit before the fabric's round state moved
// from maps and closures to dense slices and tagged events. The three built
// on mixedRound were re-pinned when its thread-2 get became a put, read from
// the fabric that still modeled gets, before that path was deleted.
type goldenRound struct {
	name   string
	iface  Interface
	faults string
	mk     func(f *Fabric) []*Transfer
	want   uint64
}

// roundHash folds every timing output of a round into one FNV-1a value.
func roundHash(trs []*Transfer) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, tr := range trs {
		word(math.Float64bits(tr.IssueDone))
		word(math.Float64bits(tr.Arrival))
		word(math.Float64bits(tr.RecvComplete))
		flags := uint64(0)
		if tr.Dropped {
			flags |= 1
		}
		if tr.Nacked {
			flags |= 2
		}
		word(flags)
	}
	return h.Sum64()
}

var goldenRounds = []goldenRound{
	{
		// The ready-wait path: heads that are not packed yet when their
		// thread reaches them (at round start and mid-queue), next to ones
		// that are, on two threads per rank.
		name: "staggered-ready", iface: IfaceUTofu, want: 0x7e92329ef655484d,
		mk: func(f *Fabric) []*Transfer {
			var out []*Transfer
			for r := 0; r < f.Map.Ranks(); r++ {
				xp := f.Map.NeighborRank(r, vec.I3{X: 2})
				zm := f.Map.NeighborRank(r, vec.I3{Z: -1})
				for i, ready := range []float64{0.4e-6, 3e-6, 0.5e-6, 3e-6, 9e-6} {
					out = append(out, &Transfer{Src: r, Dst: xp, TNI: r % 6, VCQ: r<<3 | 1, Thread: 0, Bytes: 64 * (i + 1), ReadyAt: ready})
				}
				out = append(out,
					&Transfer{Src: r, Dst: zm, TNI: (r + 1) % 6, VCQ: r<<3 | 2, Thread: 1, DstThread: 1, Bytes: 256},
					&Transfer{Src: r, Dst: zm, TNI: (r + 1) % 6, VCQ: r<<3 | 2, Thread: 1, DstThread: 1, Bytes: 256, ReadyAt: float64(r%5) * 1e-6},
				)
			}
			return out
		},
	},
	{
		// Only thread 5 issues and polls: threads 0..4 have no FIFO.
		name: "sparse-thread-5", iface: IfaceUTofu, want: 0x1491504c258cdddd,
		mk: func(f *Fabric) []*Transfer {
			var out []*Transfer
			for r := 0; r < f.Map.Ranks(); r += 2 {
				yp := f.Map.NeighborRank(r, vec.I3{Y: 2})
				in := f.Map.NeighborRank(r, vec.I3{X: 1})
				out = append(out,
					&Transfer{Src: r, Dst: yp, TNI: 5, VCQ: r<<3 | 5, Thread: 5, DstThread: 5, Bytes: 512},
					&Transfer{Src: r, Dst: in, TNI: 5, VCQ: r<<3 | 5, Thread: 5, DstThread: 5, Bytes: 96},
				)
			}
			return out
		},
	},
	{
		name: "mixed-twostep-mpi", iface: IfaceMPI, want: 0x505bb746dd57457f,
		mk: func(f *Fabric) []*Transfer {
			trs := mixedRound(f)
			for i, tr := range trs {
				tr.TwoStep = i%3 == 0
				if i%7 == 0 {
					tr.Bytes = int(f.Params.MPIEagerLimit) + 1 + i
				}
			}
			return trs
		},
	},
	{
		name: "mixed-utofu", iface: IfaceUTofu, want: 0x380e8596f3a8c95d,
		mk: mixedRound,
	},
	{
		// VCQ 0 is a legal id: the first command of a thread or a TNI pays
		// no switch, and 0 -> 1 -> 0 pays one each time.
		name: "vcq-zero", iface: IfaceUTofu, want: 0x2722be4805259b95,
		mk: func(f *Fabric) []*Transfer {
			var out []*Transfer
			for r := 0; r < f.Map.Ranks(); r += 3 {
				xm := f.Map.NeighborRank(r, vec.I3{X: -2})
				for _, vcq := range []int{0, 0, 1, 0} {
					out = append(out, &Transfer{Src: r, Dst: xm, TNI: 2, VCQ: vcq, Thread: 0, Bytes: 128})
				}
			}
			return out
		},
	},
	{
		name: "faults-drop-nack", iface: IfaceUTofu, faults: "drop=0.2,nack=0.2,seed=11", want: 0x6454e7fd46970eb9,
		mk: mixedRound,
	},
}

// TestGoldenRounds holds the fabric's virtual-time results to the pinned
// bits, after the inert SetParallel(1, 2 or 3).
func TestGoldenRounds(t *testing.T) {
	for _, g := range goldenRounds {
		for _, lps := range []int{1, 2, 3} {
			f := testFabric(t, vec.I3{X: 3, Y: 2, Z: 2})
			if err := f.SetParallel(lps); err != nil {
				t.Fatal(err)
			}
			if g.faults != "" {
				spec, err := faultinject.ParseSpec(g.faults)
				if err != nil {
					t.Fatal(err)
				}
				f.Faults = faultinject.New(spec)
			}
			trs := g.mk(f)
			if err := f.RunRound(trs, g.iface); err != nil {
				t.Fatalf("%s after SetParallel(%d): %v", g.name, lps, err)
			}
			if got := roundHash(trs); got != g.want {
				t.Errorf("%s after SetParallel(%d): round hash %#016x, want %#016x", g.name, lps, got, g.want)
			}
			if g.faults != "" {
				failed := 0
				for _, tr := range trs {
					if tr.Failed() {
						failed++
					}
				}
				if failed == 0 || failed == len(trs) {
					t.Errorf("%s: %d of %d transfers failed, want some but not all", g.name, failed, len(trs))
				}
			}
		}
	}
}

// The round path is allocation-free in steady state: with metrics and Rec
// off, every round after the first reuses the fabric's dense tables and the
// engine's queue arenas.
func TestRunRoundDoesNotAllocate(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	trs := mixedRound(f)
	run := func() {
		if err := f.RunRound(trs, IfaceUTofu); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("RunRound allocates %.1f per round in steady state, want 0", avg)
	}
}
