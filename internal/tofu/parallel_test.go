package tofu

import (
	"fmt"
	"reflect"
	"testing"

	"tofumd/internal/metrics"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// mixedRound builds a round exercising every cost path: inter-node puts in
// both directions, intra-node puts, gets, MPI two-step sends, multiple
// threads/TNIs/VCQs and staggered ReadyAt times.
func mixedRound(f *Fabric) []*Transfer {
	var out []*Transfer
	for r := 0; r < f.Map.Ranks(); r++ {
		xp := f.Map.NeighborRank(r, vec.I3{X: 2})
		xm := f.Map.NeighborRank(r, vec.I3{X: -2})
		yp := f.Map.NeighborRank(r, vec.I3{Y: 2})
		in := f.Map.NeighborRank(r, vec.I3{X: 1}) // same node (2x2x1 block)
		out = append(out,
			&Transfer{Src: r, Dst: xp, TNI: r % 6, VCQ: r << 3, Thread: 0, Bytes: 64},
			&Transfer{Src: r, Dst: xm, TNI: (r + 1) % 6, VCQ: r<<3 | 1, Thread: 1, Bytes: 700},
			&Transfer{Src: r, Dst: yp, TNI: (r + 2) % 6, VCQ: r<<3 | 2, Thread: 2, Bytes: 128, IsGet: true},
			&Transfer{Src: r, Dst: in, TNI: (r + 3) % 6, VCQ: r<<3 | 3, Thread: 0, Bytes: 32, ReadyAt: 0.1e-6},
		)
	}
	return out
}

// TestParallelRoundBitIdentical is the fabric-level golden check of the
// sharded engine: the same round on one LP (a fresh fabric's serial loop)
// and on several LP counts must produce bit-identical per-transfer timings
// and the same trace, for both uTofu and MPI interfaces.
func TestParallelRoundBitIdentical(t *testing.T) {
	for _, iface := range []Interface{IfaceUTofu, IfaceMPI} {
		ref := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
		ref.Rec = trace.NewRecorder()
		refTrs := mixedRound(ref)
		if iface == IfaceMPI {
			for _, tr := range refTrs {
				tr.TwoStep = tr.Bytes > 256
			}
		}
		if err := ref.RunRound(refTrs, iface); err != nil {
			t.Fatalf("serial round (iface %v): %v", iface, err)
		}
		for _, lps := range []int{2, 4, 8} {
			f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
			if err := f.SetParallel(lps); err != nil {
				t.Fatalf("SetParallel(%d): %v", lps, err)
			}
			if got := f.Parallel(); got != lps {
				t.Fatalf("Parallel() = %d, want %d", got, lps)
			}
			f.Rec = trace.NewRecorder()
			trs := mixedRound(f)
			if iface == IfaceMPI {
				for _, tr := range trs {
					tr.TwoStep = tr.Bytes > 256
				}
			}
			if err := f.RunRound(trs, iface); err != nil {
				t.Fatalf("parallel round (%d LPs, iface %v): %v", lps, iface, err)
			}
			for i := range refTrs {
				a, b := refTrs[i], trs[i]
				if a.IssueDone != b.IssueDone || a.Arrival != b.Arrival || a.RecvComplete != b.RecvComplete {
					t.Fatalf("%d LPs iface %v: transfer %d timings differ: serial (%v,%v,%v) parallel (%v,%v,%v)",
						lps, iface, i, a.IssueDone, a.Arrival, a.RecvComplete, b.IssueDone, b.Arrival, b.RecvComplete)
				}
			}
			if !reflect.DeepEqual(ref.Rec.Messages(), f.Rec.Messages()) {
				t.Fatalf("%d LPs iface %v: trace message events differ from serial", lps, iface)
			}
		}
	}
}

// TestParallelRoundRepeatsDeterministic reruns the same parallel round and
// demands identical results: goroutine interleaving must not leak into the
// model.
func TestParallelRoundRepeatsDeterministic(t *testing.T) {
	f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
	if err := f.SetParallel(4); err != nil {
		t.Fatal(err)
	}
	a := mixedRound(f)
	if err := f.RunRound(a, IfaceUTofu); err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		b := mixedRound(f)
		if err := f.RunRound(b, IfaceUTofu); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Arrival != b[i].Arrival || a[i].IssueDone != b[i].IssueDone || a[i].RecvComplete != b[i].RecvComplete {
				t.Fatalf("rep %d: transfer %d differs between identical parallel rounds", rep, i)
			}
		}
	}
}

// TestParallelRoundDrains asserts the drain invariant the abandoned-events
// sweep introduced: a normal round leaves nothing on the engine and the
// des_abandoned_events counter stays zero.
func TestParallelRoundDrains(t *testing.T) {
	for _, lps := range []int{1, 4} {
		f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
		reg := metrics.New()
		f.SetMetrics(reg)
		if err := f.SetParallel(lps); err != nil {
			t.Fatal(err)
		}
		trs := mixedRound(f)
		if err := f.RunRound(trs, IfaceUTofu); err != nil {
			t.Fatalf("%d LPs: %v", lps, err)
		}
		if got := reg.Counter("des_abandoned_events", "total").Value(); got != 0 {
			t.Fatalf("%d LPs: des_abandoned_events = %v, want 0", lps, got)
		}
	}
}

// TestTalliedMetricsMatchPerTransfer holds the per-LP metric tallies to one
// update per transfer: after two rounds on 1, 2 and 4 LPs, the per-TNI
// counters and the hop histograms equal those of a registry fed from every
// recorded message.
func TestTalliedMetricsMatchPerTransfer(t *testing.T) {
	families := map[string]bool{
		"fabric_tni_msgs": true, "fabric_tni_bytes": true,
		"fabric_tni_vcq_switches": true, "fabric_msg_hops": true,
	}
	pick := func(reg *metrics.Registry) []metrics.FamilySnapshot {
		var out []metrics.FamilySnapshot
		for _, fam := range reg.Snapshot() {
			if families[fam.Name] {
				out = append(out, fam)
			}
		}
		return out
	}
	for _, lps := range []int{1, 2, 4} {
		f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
		if err := f.SetParallel(lps); err != nil {
			t.Fatal(err)
		}
		got := metrics.New()
		f.SetMetrics(got)
		f.Rec = trace.NewRecorder()
		want := metrics.New()
		(&Fabric{Params: f.Params}).SetMetrics(want)
		for _, iface := range []Interface{IfaceUTofu, IfaceMPI} {
			if err := f.RunRound(mixedRound(f), iface); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range f.Rec.Messages() {
			label := fmt.Sprintf("tni%d", m.TNI)
			want.Counter("fabric_tni_msgs", label).Inc()
			want.Counter("fabric_tni_bytes", label).Add(int64(m.Bytes))
			if m.VCQSwitch {
				want.Counter("fabric_tni_vcq_switches", label).Inc()
			}
			want.HistogramWith("fabric_msg_hops", m.Iface, nil).Observe(float64(m.Hops))
		}
		if g, w := pick(got), pick(want); !reflect.DeepEqual(g, w) {
			t.Errorf("%d LPs: tallied metrics\n%+v\nwant per-transfer\n%+v", lps, g, w)
		}
	}
}

// TestSetParallelClampsAndValidates covers the configuration surface: LP
// counts are clamped to the node count, a fresh fabric already runs (and
// profiles) on one LP, and every lps <= 1 means that same one LP.
func TestSetParallelClampsAndValidates(t *testing.T) {
	f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2}) // 8 nodes
	if err := f.SetParallel(64); err != nil {
		t.Fatal(err)
	}
	if got := f.Parallel(); got != 8 {
		t.Fatalf("Parallel() after SetParallel(64) on 8 nodes = %d, want 8", got)
	}

	// A fresh fabric reports one LP and a profile after its first round.
	fresh := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
	if got := fresh.Parallel(); got != 1 {
		t.Fatalf("Parallel() on a fresh fabric = %d, want 1", got)
	}
	freshTrs := mixedRound(fresh)
	if err := fresh.RunRound(freshTrs, IfaceUTofu); err != nil {
		t.Fatal(err)
	}
	freshStats, ok := fresh.ParallelStats()
	if !ok {
		t.Fatal("ParallelStats: ok = false on a fresh fabric")
	}
	if freshStats.TotalEvents() == 0 {
		t.Error("fresh fabric's round recorded no events")
	}

	// SetParallel(0) and SetParallel(1) are the same configuration as the
	// fresh fabric: identical timings, identical stats.
	for _, lps := range []int{0, 1} {
		if err := f.SetParallel(lps); err != nil {
			t.Fatal(err)
		}
		if got := f.Parallel(); got != 1 {
			t.Fatalf("Parallel() after SetParallel(%d) = %d, want 1", lps, got)
		}
		trs := mixedRound(f)
		if err := f.RunRound(trs, IfaceUTofu); err != nil {
			t.Fatal(err)
		}
		for i := range trs {
			a, b := freshTrs[i], trs[i]
			if a.IssueDone != b.IssueDone || a.Arrival != b.Arrival || a.RecvComplete != b.RecvComplete {
				t.Fatalf("SetParallel(%d): transfer %d timings differ from a fresh fabric", lps, i)
			}
		}
		if st, ok := f.ParallelStats(); !ok || !reflect.DeepEqual(st, freshStats) {
			t.Fatalf("SetParallel(%d): stats (ok=%v) %+v, want %+v", lps, ok, st, freshStats)
		}
	}
}
