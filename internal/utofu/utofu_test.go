package utofu

import (
	"bytes"
	"strings"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/vec"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	tr, err := topo.NewTorus3D(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(tr, topo.DefaultBlock, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(tofu.NewFabric(m, tofu.DefaultParams()))
}

func TestCreateVCQOnePerRankPerTNI(t *testing.T) {
	s := testSystem(t)
	v, err := s.CreateVCQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rank != 0 || v.TNI != 0 {
		t.Errorf("VCQ identity %+v", v)
	}
	if _, err := s.CreateVCQ(0, 0); err == nil {
		t.Error("second CQ on same (rank, TNI) allowed; default policy is one")
	}
	// After freeing, the CQ can be reacquired.
	if err := s.FreeVCQ(v); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateVCQ(0, 0); err != nil {
		t.Errorf("reacquire after free: %v", err)
	}
}

func TestFreeVCQSlotFullyReusable(t *testing.T) {
	s := testSystem(t)
	v, err := s.CreateVCQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cq := v.CQ
	if err := s.FreeVCQ(v); err != nil {
		t.Fatal(err)
	}
	// The freed slot must be reallocatable with fresh identity and work for
	// a real put (the CQ binding is live again).
	v2, err := s.CreateVCQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2.CQ != cq {
		t.Errorf("reacquired CQ %d, want the freed slot %d", v2.CQ, cq)
	}
	if v2.Tag == v.Tag {
		t.Error("reacquired VCQ reuses the freed VCQ's tag; contention accounting would alias them")
	}
	region, _ := s.Register(5, make([]byte, 16))
	p := &Put{VCQ: v2, DstSTADD: region.STADD, Src: []byte{1, 2, 3}}
	if err := s.ExecuteRound([]*Put{p}); err != nil {
		t.Fatalf("put through reacquired VCQ: %v", err)
	}
}

func TestFreeVCQDoubleFreeRejected(t *testing.T) {
	s := testSystem(t)
	v, _ := s.CreateVCQ(0, 0)
	if err := s.FreeVCQ(v); err != nil {
		t.Fatal(err)
	}
	if err := s.FreeVCQ(v); err == nil {
		t.Fatal("double free accepted")
	}
	// The accounting must be intact: exactly one CQ acquirable again.
	if _, err := s.CreateVCQ(0, 0); err != nil {
		t.Fatalf("reacquire after double-free attempt: %v", err)
	}
	if _, err := s.CreateVCQ(0, 0); err == nil {
		t.Error("double free corrupted the one-CQ-per-(rank,TNI) accounting")
	}
}

func TestFreeVCQForeignRejected(t *testing.T) {
	s1, s2 := testSystem(t), testSystem(t)
	v, _ := s1.CreateVCQ(0, 0)
	if err := s2.FreeVCQ(v); err == nil {
		t.Error("foreign VCQ freed")
	}
	if err := s2.FreeVCQ(nil); err == nil {
		t.Error("nil VCQ freed")
	}
}

func TestFreedVCQCannotIssue(t *testing.T) {
	s := testSystem(t)
	v, _ := s.CreateVCQ(0, 0)
	region, _ := s.Register(5, make([]byte, 16))
	if err := s.FreeVCQ(v); err != nil {
		t.Fatal(err)
	}
	p := &Put{VCQ: v, DstSTADD: region.STADD, Src: []byte{1}}
	if err := s.ExecuteRound([]*Put{p}); err == nil {
		t.Error("put through freed VCQ accepted")
	}
	g := &Get{VCQ: v, SrcSTADD: region.STADD, Dst: make([]byte, 1)}
	if err := s.ExecuteGetRound([]*Get{g}); err == nil {
		t.Error("get through freed VCQ accepted")
	}
}

func TestFourRanksSixTNIsUseAllCQs(t *testing.T) {
	s := testSystem(t)
	// The node hosting ranks 0,1 and the rank-grid (0,1,0),(1,1,0) ranks
	// can allocate 4 ranks x 6 TNIs = 24 CQs (section 3.3).
	node0Ranks := []int{}
	for id := 0; id < s.Fab.Map.Ranks(); id++ {
		if n, _ := s.Fab.Map.NodeOf(id); n == 0 {
			node0Ranks = append(node0Ranks, id)
		}
	}
	if len(node0Ranks) != 4 {
		t.Fatalf("node 0 hosts %d ranks, want 4", len(node0Ranks))
	}
	count := 0
	for _, r := range node0Ranks {
		for tni := 0; tni < 6; tni++ {
			if _, err := s.CreateVCQ(r, tni); err != nil {
				t.Fatalf("rank %d TNI %d: %v", r, tni, err)
			}
			count++
		}
	}
	if count != 24 {
		t.Errorf("allocated %d CQs, want 24", count)
	}
}

func TestCreateVCQBadTNI(t *testing.T) {
	s := testSystem(t)
	if _, err := s.CreateVCQ(0, 6); err == nil {
		t.Error("TNI 6 accepted; only 0..5 exist")
	}
	if _, err := s.CreateVCQ(0, -1); err == nil {
		t.Error("TNI -1 accepted")
	}
}

func TestRegisterLookupDeregister(t *testing.T) {
	s := testSystem(t)
	buf := make([]byte, 128)
	r, cost := s.Register(3, buf)
	if cost != s.Fab.Params.RegistrationCost {
		t.Errorf("registration cost = %v", cost)
	}
	got, ok := s.Lookup(r.STADD)
	if !ok || got != r {
		t.Error("Lookup failed after Register")
	}
	s.Deregister(r)
	if _, ok := s.Lookup(r.STADD); ok {
		t.Error("Lookup succeeded after Deregister")
	}
}

// TestLookupAfterDeregister pins the edges of the STADD-indexed table: 0 is
// never issued, nothing past the last STADD resolves, a deregistered entry
// stays dead while its neighbours live, and a put to it fails as it would
// to any unregistered STADD.
func TestLookupAfterDeregister(t *testing.T) {
	s := testSystem(t)
	var regions []*MemRegion
	for rank := range 3 {
		r, _ := s.Register(rank, make([]byte, 64))
		regions = append(regions, r)
	}
	gone := regions[1]
	s.Deregister(gone)
	s.Deregister(gone) // a second deregistration is a no-op
	last := regions[len(regions)-1].STADD
	for _, c := range []struct {
		name  string
		stadd uint64
	}{{"zero", 0}, {"past the last", last + 1}, {"far past the last", last + 1<<40}, {"deregistered", gone.STADD}} {
		if r, ok := s.Lookup(c.stadd); ok || r != nil {
			t.Errorf("Lookup(%s STADD %d) = %v, %v; want nil, false", c.name, c.stadd, r, ok)
		}
	}
	for _, r := range []*MemRegion{regions[0], regions[2]} {
		if got, ok := s.Lookup(r.STADD); !ok || got != r {
			t.Errorf("Lookup(%d) lost a live region after its neighbour was deregistered", r.STADD)
		}
	}
	if next, _ := s.Register(0, make([]byte, 8)); next.STADD <= last {
		t.Errorf("STADD %d reissued; want one past %d", next.STADD, last)
	}

	vcq, err := s.CreateVCQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = s.ExecuteRound([]*Put{{VCQ: vcq, DstSTADD: gone.STADD, Src: []byte("x")}})
	if err == nil || !strings.Contains(err.Error(), "unregistered STADD") {
		t.Errorf("put to a deregistered region: err = %v, want unregistered STADD", err)
	}
}

func TestPutDeliversPayload(t *testing.T) {
	s := testSystem(t)
	dstBuf := make([]byte, 64)
	region, _ := s.Register(5, dstBuf)
	vcq, err := s.CreateVCQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("ghost atoms here")
	p := &Put{VCQ: vcq, DstSTADD: region.STADD, DstOff: 8, Src: payload}
	if err := s.ExecuteRound([]*Put{p}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dstBuf[8:8+len(payload)], payload) {
		t.Errorf("payload not delivered: %q", dstBuf[8:8+len(payload)])
	}
	if p.Arrival <= 0 || p.RecvComplete <= p.Arrival {
		t.Errorf("timing outputs: arrival=%v recv=%v", p.Arrival, p.RecvComplete)
	}
}

func TestPutOutOfBoundsRejected(t *testing.T) {
	s := testSystem(t)
	region, _ := s.Register(5, make([]byte, 16))
	vcq, _ := s.CreateVCQ(0, 0)
	p := &Put{VCQ: vcq, DstSTADD: region.STADD, DstOff: 10, Src: make([]byte, 10)}
	if err := s.ExecuteRound([]*Put{p}); err == nil {
		t.Error("out-of-bounds put accepted")
	}
	p2 := &Put{VCQ: vcq, DstSTADD: 9999, Src: []byte{1}}
	if err := s.ExecuteRound([]*Put{p2}); err == nil {
		t.Error("unregistered STADD accepted")
	}
}

func TestPiggybackOnlyMessageHasWireCost(t *testing.T) {
	s := testSystem(t)
	region, _ := s.Register(5, make([]byte, 16))
	vcq, _ := s.CreateVCQ(0, 0)
	p := &Put{VCQ: vcq, DstSTADD: region.STADD, HasPiggyback: true, Piggyback: 42}
	if err := s.ExecuteRound([]*Put{p}); err != nil {
		t.Fatal(err)
	}
	if p.Arrival <= 0 {
		t.Error("piggyback-only put has no arrival time")
	}
}

func TestExecuteRoundEmpty(t *testing.T) {
	s := testSystem(t)
	if err := s.ExecuteRound(nil); err != nil {
		t.Errorf("empty round: %v", err)
	}
}

func TestRoundSerializesPerThread(t *testing.T) {
	s := testSystem(t)
	region, _ := s.Register(7, make([]byte, 1024))
	vcq, _ := s.CreateVCQ(0, 0)
	var puts []*Put
	for i := 0; i < 5; i++ {
		puts = append(puts, &Put{VCQ: vcq, Thread: 0, DstSTADD: region.STADD, DstOff: i * 8, Src: []byte{byte(i)}})
	}
	if err := s.ExecuteRound(puts); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(puts); i++ {
		if puts[i].IssueDone <= puts[i-1].IssueDone {
			t.Errorf("put %d issued no later than put %d", i, i-1)
		}
	}
}

func TestGetFetchesRemoteBytes(t *testing.T) {
	s := testSystem(t)
	remote := make([]byte, 64)
	copy(remote[16:], []byte("remote payload"))
	region, _ := s.Register(9, remote)
	vcq, err := s.CreateVCQ(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 14)
	g := &Get{VCQ: vcq, SrcSTADD: region.STADD, SrcOff: 16, Dst: dst}
	if err := s.ExecuteGetRound([]*Get{g}); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "remote payload" {
		t.Errorf("got %q", dst)
	}
	if g.Complete <= 0 {
		t.Error("no completion time")
	}
}

func TestGetRoundTripSlowerThanPut(t *testing.T) {
	s := testSystem(t)
	region, _ := s.Register(9, make([]byte, 64))
	vcq, _ := s.CreateVCQ(0, 0)
	p := &Put{VCQ: vcq, DstSTADD: region.STADD, Src: make([]byte, 32)}
	if err := s.ExecuteRound([]*Put{p}); err != nil {
		t.Fatal(err)
	}
	g := &Get{VCQ: vcq, SrcSTADD: region.STADD, Dst: make([]byte, 32)}
	if err := s.ExecuteGetRound([]*Get{g}); err != nil {
		t.Fatal(err)
	}
	if g.Complete <= p.RecvComplete {
		t.Errorf("get (%v) not slower than put (%v): the request must round trip",
			g.Complete, p.RecvComplete)
	}
}

// Under a lossy fabric, every put must still deliver its payload (via
// retransmission), attempts must be visible, and retransmits counted.
func TestPutRetransmitsUntilDelivered(t *testing.T) {
	s := testSystem(t)
	s.Fab.Faults = faultinject.New(faultinject.Spec{Seed: 7, Drop: 0.3})
	reg := metrics.New()
	s.SetMetrics(reg)
	dstBuf := make([]byte, 32*8)
	region, _ := s.Register(5, dstBuf)
	vcq, _ := s.CreateVCQ(0, 0)
	var puts []*Put
	for i := 0; i < 32; i++ {
		puts = append(puts, &Put{VCQ: vcq, DstSTADD: region.STADD, DstOff: i * 8,
			Src: []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}})
	}
	if err := s.ExecuteRound(puts); err != nil {
		t.Fatal(err)
	}
	maxAttempts := 0
	for i, p := range puts {
		if p.Failed {
			t.Fatalf("put %d failed permanently at drop rate 0.3 with backoff", i)
		}
		if p.Attempts < 1 {
			t.Errorf("put %d attempts = %d", i, p.Attempts)
		}
		if p.Attempts > maxAttempts {
			maxAttempts = p.Attempts
		}
		if dstBuf[i*8] != byte(i) {
			t.Errorf("put %d payload not delivered", i)
		}
	}
	if maxAttempts < 2 {
		t.Error("no put was retransmitted at drop rate 0.3 over 32 puts")
	}
	if got := reg.Counter("utofu_retransmits", "put").Value(); got == 0 {
		t.Error("retransmit counter is zero")
	}
	// Retransmitted completions must still be monotone and positive.
	for i, p := range puts {
		if p.RecvComplete <= 0 || p.Arrival <= 0 {
			t.Errorf("put %d timing outputs: arrival=%v recv=%v", i, p.Arrival, p.RecvComplete)
		}
	}
}

// At a drop rate near 1 the retransmit budget runs out: the put must report
// permanent failure and leave the destination region untouched.
func TestPutPermanentFailureLeavesRegionUntouched(t *testing.T) {
	s := testSystem(t)
	s.Fab.Faults = faultinject.New(faultinject.Spec{Seed: 3, Drop: 0.99})
	reg := metrics.New()
	s.SetMetrics(reg)
	dstBuf := make([]byte, 64)
	for i := range dstBuf {
		dstBuf[i] = 0xEE
	}
	region, _ := s.Register(5, dstBuf)
	vcq, _ := s.CreateVCQ(0, 0)
	var puts []*Put
	for i := 0; i < 8; i++ {
		puts = append(puts, &Put{VCQ: vcq, DstSTADD: region.STADD, DstOff: i * 8,
			Src: []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}})
	}
	if err := s.ExecuteRound(puts); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, p := range puts {
		if !p.Failed {
			continue
		}
		failed++
		if p.FailedAt <= 0 {
			t.Errorf("put %d failed with FailedAt=%v", i, p.FailedAt)
		}
		if p.Attempts != s.Fab.Params.MaxRetransmits+1 {
			t.Errorf("put %d failed after %d attempts, want %d",
				i, p.Attempts, s.Fab.Params.MaxRetransmits+1)
		}
		for j := 0; j < 8; j++ {
			if dstBuf[i*8+j] != 0xEE {
				t.Fatalf("failed put %d mutated its destination", i)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no put failed at drop rate 0.99")
	}
	if got := reg.Counter("utofu_failures", "put").Value(); got != int64(failed) {
		t.Errorf("failure counter = %d, want %d", got, failed)
	}
}

// MRQ-overflow NACKs are retried the same way as drops.
func TestGetRetransmitsOnNack(t *testing.T) {
	s := testSystem(t)
	s.Fab.Faults = faultinject.New(faultinject.Spec{Seed: 11, Nack: 0.3})
	remote := make([]byte, 32*4)
	for i := range remote {
		remote[i] = byte(i)
	}
	region, _ := s.Register(9, remote)
	vcq, _ := s.CreateVCQ(0, 0)
	var gets []*Get
	for i := 0; i < 32; i++ {
		gets = append(gets, &Get{VCQ: vcq, SrcSTADD: region.STADD, SrcOff: i * 4, Dst: make([]byte, 4)})
	}
	if err := s.ExecuteGetRound(gets); err != nil {
		t.Fatal(err)
	}
	retried := false
	for i, g := range gets {
		if g.Failed {
			t.Fatalf("get %d failed permanently at nack rate 0.3", i)
		}
		if g.Attempts > 1 {
			retried = true
		}
		if !bytes.Equal(g.Dst, remote[i*4:i*4+4]) {
			t.Errorf("get %d fetched %v", i, g.Dst)
		}
	}
	if !retried {
		t.Error("no get was retransmitted at nack rate 0.3 over 32 gets")
	}
}

func TestGetBoundsChecked(t *testing.T) {
	s := testSystem(t)
	region, _ := s.Register(9, make([]byte, 16))
	vcq, _ := s.CreateVCQ(0, 0)
	g := &Get{VCQ: vcq, SrcSTADD: region.STADD, SrcOff: 10, Dst: make([]byte, 10)}
	if err := s.ExecuteGetRound([]*Get{g}); err == nil {
		t.Error("out-of-bounds get accepted")
	}
	g2 := &Get{VCQ: vcq, SrcSTADD: 404, Dst: make([]byte, 1)}
	if err := s.ExecuteGetRound([]*Get{g2}); err == nil {
		t.Error("unregistered STADD accepted")
	}
	if err := s.ExecuteGetRound(nil); err != nil {
		t.Errorf("empty get round: %v", err)
	}
}

// A fault-free put round allocates nothing from the second call on: the
// transfer records come from the fabric's slab and wave 0 runs on them
// directly.
func TestExecuteRoundDoesNotAllocate(t *testing.T) {
	s := testSystem(t)
	ranks := s.Fab.Map.Ranks()
	payload := make([]byte, 96)
	var puts []*Put
	regions := make([]*MemRegion, ranks)
	for r := range regions {
		regions[r], _ = s.Register(r, make([]byte, 2*len(payload)))
	}
	for r := 0; r < ranks; r++ {
		for tni := 0; tni < 2; tni++ {
			v, err := s.CreateVCQ(r, tni)
			if err != nil {
				t.Fatal(err)
			}
			dst := s.Fab.Map.NeighborRank(r, vec.I3{X: 2 - 3*tni})
			puts = append(puts, &Put{
				VCQ: v, Thread: tni, DstThread: tni,
				DstSTADD: regions[dst].STADD, DstOff: tni * len(payload), Src: payload,
			})
		}
	}
	run := func() {
		if err := s.ExecuteRound(puts); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("ExecuteRound allocates %.1f per round in steady state, want 0", avg)
	}
	for i, p := range puts {
		if p.Attempts != 1 || p.RecvComplete <= 0 {
			t.Fatalf("put %d: attempts %d, RecvComplete %v", i, p.Attempts, p.RecvComplete)
		}
	}
}
