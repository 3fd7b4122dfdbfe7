package halo

import (
	"bytes"
	"fmt"
	"testing"

	"tofumd/internal/metrics"
	"tofumd/internal/threadpool"
)

// TestRunPhases holds Engine.Run to its phase order at 1, 2 and 4 workers:
// every sender packs in place at its Dest before the serial stamp, which
// stamps ReadyAt; every receiver unpacks its landed bytes exactly once;
// settle runs after the round, in rank order, and sees the clocks the
// round advanced. A nil unpack opens only the pack region, and a non-nil
// one the pack region and one region beside the round (pool_regions).
func TestRunPhases(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, withUnpack := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/unpack=%v", workers, withUnpack), func(t *testing.T) {
				e, fixture := engineFixture(t)
				ranks := len(fixture) / 3
				b := NewRound(ranks)
				b.Reset(len(fixture))
				payload := make(map[*Msg][]byte, len(fixture))
				for _, m := range fixture {
					p := b.Add(*m)
					payload[p], p.Data = m.Data, nil
				}
				pool := threadpool.New(workers)
				reg := metrics.New()
				pool.SetMetrics(reg)
				regions := reg.Counter("pool_regions", "dispatched")

				packed := make([]bool, ranks)
				pack := func(src int) {
					for _, m := range b.BySrc[src] {
						m.Data = append(m.Dest()[:0], payload[m]...)
					}
					*e.Clock(src) += 1e-6
					packed[src] = true
				}
				stamped := false
				stamp := func() {
					for src, ok := range packed {
						if !ok {
							t.Errorf("stamp ran before rank %d packed", src)
						}
					}
					for _, m := range b.Msgs {
						m.ReadyAt = *e.Clock(m.Src)
					}
					stamped = true
				}
				var unpack func(dst int)
				unpacked := make([]int, ranks)
				if withUnpack {
					unpack = func(dst int) {
						for _, m := range b.ByDst[dst] {
							if !bytes.Equal(m.Data, payload[m]) {
								t.Errorf("rank %d unpacked another payload from %d", dst, m.Src)
							}
						}
						unpacked[dst]++
					}
				}
				var order []int
				settle := func(dst int) {
					want := 1e-6
					for _, m := range b.ByDst[dst] {
						want = max(want, m.Complete)
					}
					for _, m := range b.BySrc[dst] {
						want = max(want, m.IssueDone)
					}
					if got := *e.Clock(dst); got != want || want <= 1e-6 {
						t.Errorf("rank %d settles at clock %v, want the round's %v", dst, got, want)
					}
					order = append(order, dst)
				}

				e.Run(pool, TransportUTofu, b, pack, stamp, unpack, settle)
				if !stamped {
					t.Error("stamp did not run")
				}
				want := 1 // pack region
				if withUnpack {
					want = 2 // and the unpacks beside the round
				}
				for dst, n := range unpacked {
					if n != want-1 {
						t.Errorf("rank %d unpacked %d times, want %d", dst, n, want-1)
					}
				}
				for i, dst := range order {
					if dst != i || len(order) != ranks {
						t.Fatalf("settle order %v, want every rank in rank order", order)
					}
				}
				if got := regions.Value(); got != int64(want) {
					t.Errorf("%d pool regions, want %d", got, want)
				}
			})
		}
	}
}
