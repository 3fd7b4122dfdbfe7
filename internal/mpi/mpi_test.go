package mpi

import (
	"bytes"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/vec"
)

func testComm(t *testing.T) *Comm {
	t.Helper()
	tr, err := topo.NewTorus3D(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(tr, topo.DefaultBlock, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	return NewComm(tofu.NewFabric(m, tofu.DefaultParams()))
}

func TestSize(t *testing.T) {
	c := testComm(t)
	if c.Size() != 32 {
		t.Errorf("Size = %d, want 32 (8 nodes x 4 ranks)", c.Size())
	}
}

func TestExchangeRoundDeliversData(t *testing.T) {
	c := testComm(t)
	m := &Message{Src: 0, Dst: 9, Tag: 1, Data: []byte("halo"), KnownLength: true}
	c.ExchangeRound([]*Message{m})
	if !bytes.Equal(m.Data, []byte("halo")) {
		t.Error("payload corrupted")
	}
	if m.RecvComplete <= 0 || m.IssueDone <= 0 {
		t.Errorf("timing not filled: issue=%v recv=%v", m.IssueDone, m.RecvComplete)
	}
}

// MPI stays a reliable transport under fault injection: every message of a
// lossy round must eventually complete, with attempts and the retransmit
// counter recording the retries. Rendezvous-sized messages exercise the
// re-driven RTS/CTS handshake.
func TestExchangeRoundRetriesDrops(t *testing.T) {
	c := testComm(t)
	c.Fab.Faults = faultinject.New(faultinject.Spec{Seed: 7, Drop: 0.3})
	reg := metrics.New()
	c.SetMetrics(reg)
	var msgs []*Message
	for i := 0; i < 16; i++ {
		size := 64
		if i%2 == 1 {
			size = 16 << 10 // above MPIEagerLimit: rendezvous protocol
		}
		msgs = append(msgs, &Message{Src: i % 4, Dst: 8 + i%8, Tag: i,
			Data: make([]byte, size), KnownLength: true})
	}
	c.ExchangeRound(msgs)
	retried := false
	for i, m := range msgs {
		if m.RecvComplete <= 0 || m.IssueDone <= 0 {
			t.Errorf("msg %d not completed: issue=%v recv=%v", i, m.IssueDone, m.RecvComplete)
		}
		if m.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Error("no message was retried at drop rate 0.3 over 16 messages")
	}
	if reg.Counter("mpi_p2p", "retransmits").Value() == 0 {
		t.Error("retransmit counter is zero")
	}
}

// A fault rate the retry budget cannot beat must fail loudly, not hang or
// silently drop: drop=0.99 with MPIRetryLimit=2 panics.
func TestExchangeRoundRetryLimitPanics(t *testing.T) {
	c := testComm(t)
	c.Fab.Params.MPIRetryLimit = 2
	c.Fab.Faults = faultinject.New(faultinject.Spec{Seed: 1, Drop: 0.99})
	defer func() {
		if recover() == nil {
			t.Error("starved exchange round did not panic")
		}
	}()
	var msgs []*Message
	for i := 0; i < 32; i++ {
		msgs = append(msgs, &Message{Src: 0, Dst: 9, Tag: i, Data: make([]byte, 64), KnownLength: true})
	}
	c.ExchangeRound(msgs)
}

func TestRecvWaitsForPostedReceive(t *testing.T) {
	c := testComm(t)
	early := &Message{Src: 0, Dst: 9, Data: make([]byte, 64), KnownLength: true}
	c.ExchangeRound([]*Message{early})
	late := &Message{Src: 0, Dst: 9, Data: make([]byte, 64), KnownLength: true, RecvReadyAt: 1e-3}
	c.ExchangeRound([]*Message{late})
	if late.RecvComplete < 1e-3 {
		t.Errorf("RecvComplete %v before receiver was ready", late.RecvComplete)
	}
	if early.RecvComplete >= 1e-3 {
		t.Errorf("early message RecvComplete %v unexpectedly large", early.RecvComplete)
	}
}

func TestUnknownLengthPaysTwoStep(t *testing.T) {
	c := testComm(t)
	known := &Message{Src: 0, Dst: 9, Data: make([]byte, 256), KnownLength: true}
	c.ExchangeRound([]*Message{known})
	unknown := &Message{Src: 0, Dst: 9, Data: make([]byte, 256)}
	c.ExchangeRound([]*Message{unknown})
	if unknown.RecvComplete <= known.RecvComplete {
		t.Errorf("unknown-length (%v) not slower than known-length (%v)",
			unknown.RecvComplete, known.RecvComplete)
	}
	// With message combine, the gap shrinks to the 8-byte header cost.
	c.CombineLength = true
	combined := &Message{Src: 0, Dst: 9, Data: make([]byte, 256)}
	c.ExchangeRound([]*Message{combined})
	if combined.RecvComplete >= unknown.RecvComplete {
		t.Errorf("combine (%v) not faster than two-step (%v)",
			combined.RecvComplete, unknown.RecvComplete)
	}
}

func TestAllreduceSum(t *testing.T) {
	c := testComm(t)
	contrib := make([][]float64, 4)
	for r := range contrib {
		contrib[r] = []float64{float64(r), 1}
	}
	out, tm, err := c.Allreduce(contrib, OpSum)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 6 || out[1] != 4 {
		t.Errorf("sum = %v", out)
	}
	if tm <= 0 {
		t.Errorf("allreduce time = %v", tm)
	}
}

func TestAllreduceMaxAndLor(t *testing.T) {
	c := testComm(t)
	contrib := [][]float64{{0, 3}, {5, 1}, {2, 2}}
	out, _, err := c.Allreduce(contrib, OpMax)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 || out[1] != 3 {
		t.Errorf("max = %v", out)
	}
	lor, _, err := c.Allreduce([][]float64{{0}, {0}, {7}}, OpLor)
	if err != nil {
		t.Fatal(err)
	}
	if lor[0] != 1 {
		t.Errorf("lor = %v", lor)
	}
	lor0, _, _ := c.Allreduce([][]float64{{0}, {0}}, OpLor)
	if lor0[0] != 0 {
		t.Errorf("lor of zeros = %v", lor0)
	}
}

func TestAllreduceErrors(t *testing.T) {
	c := testComm(t)
	if _, _, err := c.Allreduce(nil, OpSum); err == nil {
		t.Error("empty allreduce accepted")
	}
	if _, _, err := c.Allreduce([][]float64{{1}, {1, 2}}, OpSum); err == nil {
		t.Error("ragged allreduce accepted")
	}
}

func TestAllreduceTimeAtScale(t *testing.T) {
	c := testComm(t)
	small := c.AllreduceTimeAtScale(32, 8)
	big := c.AllreduceTimeAtScale(147456, 8)
	if big <= small {
		t.Errorf("scaled allreduce %v not larger than local %v", big, small)
	}
}

func TestSortMessagesDeterministic(t *testing.T) {
	msgs := []*Message{
		{Src: 2, Dst: 0, Tag: 1},
		{Src: 0, Dst: 2, Tag: 2},
		{Src: 0, Dst: 2, Tag: 1},
		{Src: 0, Dst: 1, Tag: 5},
	}
	SortMessages(msgs)
	want := [][3]int{{0, 1, 5}, {0, 2, 1}, {0, 2, 2}, {2, 0, 1}}
	for i, m := range msgs {
		if m.Src != want[i][0] || m.Dst != want[i][1] || m.Tag != want[i][2] {
			t.Fatalf("order[%d] = (%d,%d,%d), want %v", i, m.Src, m.Dst, m.Tag, want[i])
		}
	}
}

func TestEmptyRoundNoop(t *testing.T) {
	c := testComm(t)
	c.ExchangeRound(nil)
}

// A fault-free exchange round allocates nothing from the second call on.
func TestExchangeRoundDoesNotAllocate(t *testing.T) {
	c := testComm(t)
	payload := make([]byte, 128)
	var msgs []*Message
	for r := 0; r < c.Size(); r++ {
		for i, d := range []vec.I3{{X: 2}, {Y: -2}, {Z: 1}} {
			msgs = append(msgs, &Message{
				Src: r, Dst: c.Fab.Map.NeighborRank(r, d), Tag: i, Data: payload, KnownLength: i > 0,
			})
		}
	}
	run := func() { c.ExchangeRound(msgs) }
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("ExchangeRound allocates %.1f per round in steady state, want 0", avg)
	}
}
