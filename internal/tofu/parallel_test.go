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

// TestParallelRoundBitIdentical holds the frozen SetParallel knob inert: the
// same round on a fresh fabric and after SetParallel(2, 4 or 8) must produce
// bit-identical per-transfer timings and the same trace, for both uTofu and
// MPI interfaces.
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
			t.Fatalf("fresh round (iface %v): %v", iface, err)
		}
		for _, lps := range []int{2, 4, 8} {
			f := testFabric(t, vec.I3{X: 4, Y: 4, Z: 4})
			if err := f.SetParallel(lps); err != nil {
				t.Fatalf("SetParallel(%d): %v", lps, err)
			}
			f.Rec = trace.NewRecorder()
			trs := mixedRound(f)
			if iface == IfaceMPI {
				for _, tr := range trs {
					tr.TwoStep = tr.Bytes > 256
				}
			}
			if err := f.RunRound(trs, iface); err != nil {
				t.Fatalf("round after SetParallel(%d), iface %v: %v", lps, iface, err)
			}
			for i := range refTrs {
				a, b := refTrs[i], trs[i]
				if a.IssueDone != b.IssueDone || a.Arrival != b.Arrival || a.RecvComplete != b.RecvComplete {
					t.Fatalf("SetParallel(%d) iface %v: transfer %d timings differ: fresh (%v,%v,%v) set (%v,%v,%v)",
						lps, iface, i, a.IssueDone, a.Arrival, a.RecvComplete, b.IssueDone, b.Arrival, b.RecvComplete)
				}
			}
			if !reflect.DeepEqual(ref.Rec.Messages(), f.Rec.Messages()) {
				t.Fatalf("SetParallel(%d) iface %v: trace message events differ from a fresh fabric's", lps, iface)
			}
		}
	}
}

// TestParallelRoundRepeatsDeterministic reruns the same round after the
// inert SetParallel(4) and demands identical results: state kept between
// rounds must not leak into the model.
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
				t.Fatalf("rep %d: transfer %d differs between identical rounds", rep, i)
			}
		}
	}
}

// TestParallelRoundDrains asserts the drain invariant the abandoned-events
// sweep introduced: a normal round, after the inert SetParallel(1 or 4),
// leaves nothing on the queue and the des_abandoned_events counter stays
// zero.
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
			t.Fatalf("SetParallel(%d): %v", lps, err)
		}
		if n := f.q.Pending(); n != 0 {
			t.Fatalf("SetParallel(%d): %d events left on the queue", lps, n)
		}
		if got := reg.Counter("des_abandoned_events", "total").Value(); got != 0 {
			t.Fatalf("SetParallel(%d): des_abandoned_events = %v, want 0", lps, got)
		}
	}
}

// TestTalliedMetricsMatchPerTransfer holds the round's metric tally to one
// update per transfer: after two rounds, following the inert SetParallel(1,
// 2 or 4), the per-TNI counters and the hop histograms equal those of a
// registry fed from every recorded message.
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
			t.Errorf("SetParallel(%d): tallied metrics\n%+v\nwant per-transfer\n%+v", lps, g, w)
		}
	}
}

// TestSetParallelClampsAndValidates covers the frozen configuration
// surface: SetParallel accepts every count, including out-of-range ones,
// and leaves timings and the event profile exactly as on a fresh fabric.
func TestSetParallelClampsAndValidates(t *testing.T) {
	fresh := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
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
	for _, lps := range []int{-1, 0, 1, 4, 64} {
		f := testFabric(t, vec.I3{X: 2, Y: 2, Z: 2})
		if err := f.SetParallel(lps); err != nil {
			t.Fatalf("SetParallel(%d): %v", lps, err)
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
		if st, ok := f.ParallelStats(); !ok || st != freshStats {
			t.Fatalf("SetParallel(%d): stats (ok=%v) %+v, want %+v", lps, ok, st, freshStats)
		}
	}
}
