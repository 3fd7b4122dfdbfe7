package des

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []float64
	for _, tm := range []float64{3, 1, 2, 5, 4} {
		tm := tm
		e.Schedule(tm, func() { order = append(order, tm) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v, want 5", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	var e Engine
	var at float64 = -1
	e.Schedule(10, func() {
		e.Schedule(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 10 {
		t.Errorf("past event ran at %v, want clamped to 10", at)
	}
}

func TestCascadingEvents(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(e.Now()+1, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if e.Now() != 99 {
		t.Errorf("final time = %v, want 99", e.Now())
	}
}

func TestStepAndPending(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step returned false with events queued")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending after step = %d", e.Pending())
	}
	e.Run()
	if e.Step() {
		t.Error("Step returned true on empty queue")
	}
}

func TestReset(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Errorf("after Reset: now=%v pending=%d", e.Now(), e.Pending())
	}
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("engine unusable after Reset")
	}
}

func TestScheduleAtRejectsPast(t *testing.T) {
	var e Engine
	var errAt error
	e.Schedule(10, func() {
		errAt = e.ScheduleAt(5, func() { t.Error("past event ran") })
	})
	e.Run()
	if errAt == nil {
		t.Fatal("ScheduleAt(5) at now=10 returned nil error")
	}
	if e.Pending() != 0 {
		t.Errorf("rejected event was queued anyway: pending=%d", e.Pending())
	}
}

func TestScheduleAtAccepts(t *testing.T) {
	var e Engine
	ran := false
	if err := e.ScheduleAt(3, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(0, func() {}); err != nil {
		t.Errorf("ScheduleAt(now) rejected: %v", err)
	}
	e.Run()
	if !ran {
		t.Error("accepted event never ran")
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
}

// collected reports whether the garbage collector reclaims *p within a few
// GC cycles. The finalizer write is synchronized by runtime.GC: each cycle
// runs pending finalizers before the next check.
func collected(p *[1 << 20]byte) func() bool {
	done := make(chan struct{})
	runtime.SetFinalizer(p, func(*[1 << 20]byte) { close(done) })
	return func() bool {
		for i := 0; i < 10; i++ {
			runtime.GC()
			select {
			case <-done:
				return true
			default:
			}
		}
		return false
	}
}

// Regression: Pop used to shrink the heap slice without zeroing the vacated
// slot, so every executed event's closure stayed reachable from the backing
// array until overwritten — for the fabric that meant whole payload slices
// surviving a round.
func TestPopReleasesEventClosure(t *testing.T) {
	var e Engine
	var wait func() bool
	func() {
		payload := new([1 << 20]byte)
		wait = collected(payload)
		e.Schedule(1, func() { _ = payload[0] })
	}()
	e.Run()
	if !wait() {
		t.Errorf("popped event closure still reachable after Run (pending=%d)", e.Pending())
	}
}

// Regression: Reset used to keep the backing array contents (e.pq[:0]), so
// events abandoned mid-round were retained across rounds.
func TestResetReleasesAbandonedEvents(t *testing.T) {
	var e Engine
	var wait func() bool
	func() {
		payload := new([1 << 20]byte)
		wait = collected(payload)
		e.Schedule(1, func() { _ = payload[0] })
	}()
	e.Reset()
	if !wait() {
		t.Errorf("abandoned event closure still reachable after Reset (pending=%d)", e.Pending())
	}
}

// Regression: Run used to livelock on a scheduling cycle — an event that
// reschedules itself at Now spins forever. RunBudget must stop and name the
// stuck virtual time.
func TestRunBudgetStopsLivelock(t *testing.T) {
	var e Engine
	var tick func()
	tick = func() { e.Schedule(e.Now(), tick) }
	e.Schedule(5, tick)
	_, err := e.RunBudget(100)
	if err == nil {
		t.Fatal("RunBudget returned nil on a scheduling cycle")
	}
	be, ok := err.(*BudgetError)
	if !ok {
		t.Fatalf("error type = %T, want *BudgetError", err)
	}
	if be.NextAt != 5 || be.Now != 5 {
		t.Errorf("BudgetError names t=%g (now %g), want the stuck time 5", be.NextAt, be.Now)
	}
	if be.Pending == 0 || e.Pending() == 0 {
		t.Errorf("pending = %d/%d, want the cycle's event still queued", be.Pending, e.Pending())
	}
}

func TestRunBudgetCompletesUnderBudget(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	final, err := e.RunBudget(1000)
	if err != nil {
		t.Fatalf("RunBudget failed on a finite workload: %v", err)
	}
	if count != 10 || final != 9 {
		t.Errorf("count=%d final=%g, want 10 events ending at t=9", count, final)
	}
}

func TestRunBudgetZeroIsUnbounded(t *testing.T) {
	var e Engine
	count := 0
	for i := 0; i < 500; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	if _, err := e.RunBudget(0); err != nil {
		t.Fatalf("RunBudget(0) errored: %v", err)
	}
	if count != 500 {
		t.Errorf("count = %d, want all 500 (budget 0 means unbounded)", count)
	}
}

// The event is held at 40 bytes: every sift step copies whole events, and a
// 56-byte layout measured slower.
func TestEventIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 40", got)
	}
}

// The Queue's run-queue slot is a tag and a link, 8 bytes with no pointer:
// the slot arena is never scanned by the garbage collector and a slot store
// needs no write barrier.
func TestQueueSlotIs8BytesWithoutPointers(t *testing.T) {
	typ := reflect.TypeOf(qslot{})
	if got := typ.Size(); got != 8 {
		t.Errorf("qslot is %d bytes, want 8", got)
	}
	for i := 0; i < typ.NumField(); i++ {
		// Bool through Complex128 are the scalar kinds, none a pointer.
		if f := typ.Field(i); f.Type.Kind() > reflect.Complex128 {
			t.Errorf("qslot.%s is a %s: the slot arena must hold no pointer", f.Name, f.Type)
		}
	}
}

// Guard for the monomorphic-heap fix: container/heap's interface{} Push/Pop
// boxed one event per schedule. With warm capacity a schedule+run cycle must
// not allocate at all.
func TestScheduleRunDoesNotAllocate(t *testing.T) {
	var e Engine
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(float64(i), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1024; i++ {
			e.Schedule(float64(i&15), fn)
		}
		e.Run()
	})
	if avg != 0 {
		t.Errorf("Schedule+Run allocates %.1f per round with warm capacity, want 0", avg)
	}
}

// Property: regardless of scheduling order, execution is monotone in time.
func TestMonotoneExecutionProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var e Engine
		var ran []float64
		for _, tv := range times {
			tm := float64(tv)
			e.Schedule(tm, func() { ran = append(ran, tm) })
		}
		e.Run()
		return sort.Float64sAreSorted(ran)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
