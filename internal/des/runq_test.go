package des

import (
	"math/rand"
	"testing"
)

// TestRunQueueMatchesHeap drives an LP's run queue and the Engine's heap with
// the same interleavings of push and pop and requires the same pop sequence.
// The heap gets the full key (time, sendTime, src, seq) with sendTime the
// clock of an LP that advances to each popped time, so the test holds the
// key collapse to (time, seq) as well as the run structure. Nine pushes in
// ten land on a coarse grid of offsets from the clock, in bursts at one
// time, so ties dominate and one time recurs across several runs.
func TestRunQueueMatchesHeap(t *testing.T) {
	offsets := []float64{0, 0, 0.5, 1, 2}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q runQueue
		q.reset()
		var h eventHeap
		now, seq, pops := 0.0, uint64(0), 0
		push := func(tm float64) {
			seq++
			q.push(tm, seq, uint32(seq), nil)
			h.push(event{time: tm, sendTime: now, tag: uint32(seq), seq: seq})
		}
		pop := func() {
			gotT, gotTag, _ := q.pop()
			want := h.pop()
			if gotT != want.time || gotTag != want.tag {
				t.Fatalf("seed %d pop %d: run queue gave (%g, %d), heap (%g, %d)", seed, pops, gotT, gotTag, want.time, want.tag)
			}
			now = gotT
			pops++
		}
		// Run A at t, run B at u, run C at t: C must pop after all of A and
		// before anything of B.
		for _, tm := range []float64{1, 2, 1} {
			for i := 0; i < 3; i++ {
				push(tm)
			}
		}
		pop()
		push(1) // appends to C, the tail run
		push(3)
		push(1) // opens D behind C at the time on top
		for step := 0; step < 1500; step++ {
			if q.n != len(h) {
				t.Fatalf("seed %d step %d: run queue holds %d events, heap %d", seed, step, q.n, len(h))
			}
			if q.n > 0 && rng.Intn(5) < 2 {
				pop()
				continue
			}
			tm := now + offsets[rng.Intn(len(offsets))]
			if rng.Intn(10) == 0 {
				tm = now + rng.Float64()
			}
			for k := rng.Intn(4); k >= 0; k-- {
				push(tm)
			}
		}
		for q.n > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: run queue drained with %d events left in the heap", seed, len(h))
		}
	}
}

// Regression (the LP counterpart of TestPopReleasesEventClosure): a popped
// event's closure must not stay reachable from the LP's slot arena.
func TestLPPopReleasesEventClosure(t *testing.T) {
	p, err := NewParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	var wait func() bool
	func() {
		payload := new([1 << 20]byte)
		wait = collected(payload)
		p.LP(0).Schedule(1, func() { _ = payload[0] })
	}()
	p.Run()
	if !wait() {
		t.Errorf("popped event closure still reachable after Run (pending=%d)", p.Pending())
	}
}

// Regression (the LP counterpart of TestResetReleasesAbandonedEvents): Reset
// must drop the closures of events abandoned mid-round.
func TestLPResetReleasesAbandonedEvents(t *testing.T) {
	p, err := NewParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	var wait func() bool
	func() {
		payload := new([1 << 20]byte)
		wait = collected(payload)
		p.LP(1).Schedule(1, func() { _ = payload[0] })
		p.LP(1).Schedule(2, func() {})
	}()
	p.Reset()
	if !wait() {
		t.Errorf("abandoned event closure still reachable after Reset (pending=%d)", p.Pending())
	}
}

// The LP counterpart of TestScheduleRunDoesNotAllocate: with warm arenas a
// round of closure and tagged events allocates nothing. Each round spreads
// long same-time runs over 64 distinct times, pushed out of time order, and
// tagged chains that reschedule from inside the drain, so runs empty and are
// recycled while others are still live.
func TestLPScheduleRunDoesNotAllocate(t *testing.T) {
	p, err := NewParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	l := p.LP(0)
	p.SetHandler(func(l *LP, tag uint32) {
		if tag > 0 {
			if err := l.ScheduleTagAt(l.Now()+float64(tag&1), tag-1); err != nil {
				t.Error(err)
			}
		}
	})
	fn := func() {}
	round := func() {
		for j := 0; j < 64; j++ {
			tm := float64(j * 37 % 64)
			for k := 0; k < 16; k++ {
				if k%2 == 0 {
					l.Schedule(tm, fn)
				} else if err := l.ScheduleTagAt(tm, uint32(k)); err != nil {
					t.Error(err)
				}
			}
		}
		p.Run()
		p.Reset()
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("LP Schedule+Run allocates %.1f per round with warm arenas, want 0", avg)
	}
}
