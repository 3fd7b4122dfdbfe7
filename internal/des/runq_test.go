package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// lockstep drives a Queue's run queue and the Engine's heap with the same
// pushes and pops. The heap gets the full key (time, sendTime, src, seq)
// with sendTime a clock that advances to each popped time, so a match holds
// the key collapse to (time, seq) as well as the run structure.
type lockstep struct {
	q    runQueue
	h    eventHeap
	now  float64
	seq  uint64
	pops int
}

func newLockstep() *lockstep {
	l := &lockstep{}
	l.q.reset()
	return l
}

// push queues one event at tm, which must not be before the clock.
func (l *lockstep) push(tm float64) {
	l.seq++
	l.q.push(tm, l.seq, uint32(l.seq))
	l.h.push(event{time: tm, sendTime: l.now, seq: l.seq})
}

// pop takes the next event from both and reports a mismatch, or a
// difference in the number of events each still holds.
func (l *lockstep) pop() error {
	gotT, gotTag := l.q.pop()
	want := l.h.pop()
	if gotT != want.time || gotTag != uint32(want.seq) {
		return fmt.Errorf("pop %d: run queue gave (%g, %d), heap (%g, %d)", l.pops, gotT, gotTag, want.time, want.seq)
	}
	l.now = gotT
	l.pops++
	if l.q.n != len(l.h) {
		return fmt.Errorf("after pop %d: run queue holds %d events, heap %d", l.pops, l.q.n, len(l.h))
	}
	return nil
}

// drain pops both until the run queue is empty.
func (l *lockstep) drain() error {
	for l.q.n > 0 {
		if err := l.pop(); err != nil {
			return err
		}
	}
	if len(l.h) != 0 {
		return fmt.Errorf("run queue drained with %d events left in the heap", len(l.h))
	}
	return nil
}

// TestRunQueueMatchesHeap drives the run queue and the heap in lockstep and
// requires the same pop sequence. Nine pushes in ten land on a coarse grid
// of offsets from the clock, in bursts at one time, so ties dominate and
// one time recurs across several runs.
func TestRunQueueMatchesHeap(t *testing.T) {
	offsets := []float64{0, 0, 0.5, 1, 2}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newLockstep()
		pop := func() {
			if err := l.pop(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		// Run A at t, run B at u, run C at t: C must pop after all of A and
		// before anything of B.
		for _, tm := range []float64{1, 2, 1} {
			for i := 0; i < 3; i++ {
				l.push(tm)
			}
		}
		pop()
		l.push(1) // appends to C, the tail run
		l.push(3)
		l.push(1) // opens D behind C at the time on top
		for step := 0; step < 1500; step++ {
			if l.q.n > 0 && rng.Intn(5) < 2 {
				pop()
				continue
			}
			tm := l.now + offsets[rng.Intn(len(offsets))]
			if rng.Intn(10) == 0 {
				tm = l.now + rng.Float64()
			}
			for k := rng.Intn(4); k >= 0; k-- {
				l.push(tm)
			}
		}
		if err := l.drain(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// fuzzOffsets are the offsets from the clock a FuzzRunQueue push lands at:
// mostly a coarse grid, so times repeat across runs.
var fuzzOffsets = [16]float64{0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 2, 2, 3, 4, 5, 8, 0.125}

// FuzzRunQueue drives the run queue and the heap in lockstep with one
// byte-coded push/pop sequence and requires the same pop sequence. A byte b
// below 0x40 pops if an event is queued; otherwise b pushes (b>>4)&3 + 1
// events at the clock plus fuzzOffsets[b&15]. The queue is drained at the
// end.
func FuzzRunQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		l := newLockstep()
		for _, b := range ops {
			if b < 0x40 && l.q.n > 0 {
				if err := l.pop(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			tm := l.now + fuzzOffsets[b&15]
			for k := int(b>>4) & 3; k >= 0; k-- {
				l.push(tm)
			}
		}
		if err := l.drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// A popped event's slot is reused: a queue that never holds more than
// four events keeps an arena of four slots however many it runs.
func TestLPPopReleasesEventClosure(t *testing.T) {
	q := NewQueue()
	ran := 0
	q.SetHandler(func(uint32) { ran++ })
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			if err := q.ScheduleTagAt(q.Now()+float64(i%2), uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		q.Run()
	}
	if ran != 40 || len(q.rq.slots) != 4 {
		t.Errorf("ran %d events in an arena of %d slots, want 40 in 4", ran, len(q.rq.slots))
	}
}

// Reset drops the events abandoned mid-round: none of them runs later.
func TestLPResetReleasesAbandonedEvents(t *testing.T) {
	q := NewQueue()
	var got []uint32
	q.SetHandler(func(tag uint32) { got = append(got, tag) })
	for _, tag := range []uint32{1, 2} {
		if err := q.ScheduleTagAt(float64(tag), tag); err != nil {
			t.Fatal(err)
		}
	}
	q.Reset()
	if err := q.ScheduleTagAt(3, 3); err != nil {
		t.Fatal(err)
	}
	q.Run()
	if len(got) != 1 || got[0] != 3 || q.Pending() != 0 {
		t.Errorf("after Reset the handler saw %v with %d pending, want only tag 3", got, q.Pending())
	}
}

// The Queue counterpart of TestScheduleRunDoesNotAllocate: with warm arenas
// a round of events allocates nothing. Each round spreads long same-time
// runs over 64 distinct times, pushed out of time order, as chains that
// reschedule from inside the drain, so runs empty and are recycled while
// others are still live.
func TestLPScheduleRunDoesNotAllocate(t *testing.T) {
	q := NewQueue()
	s := newTagSched(q)
	// Step k reschedules step k-1, one time unit later for odd k.
	var steps [16]uint32
	for k := range steps {
		steps[k] = s.park(func() {
			if k > 0 {
				if err := q.ScheduleTagAt(q.Now()+float64(k&1), steps[k-1]); err != nil {
					t.Error(err)
				}
			}
		})
	}
	round := func() {
		for j := 0; j < 64; j++ {
			tm := float64(j * 37 % 64)
			for _, tag := range steps {
				if err := q.ScheduleTagAt(tm, tag); err != nil {
					t.Error(err)
				}
			}
		}
		q.Run()
		q.Reset()
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("Queue ScheduleTagAt+Run allocates %.1f per round with warm arenas, want 0", avg)
	}
}
