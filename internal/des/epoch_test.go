package des

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestEventQueueOrdering: the 4-ary heap must deliver events in
// (time, seq) order under a randomized push/pop workload; a simple
// sorted reference is the oracle.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	// Deterministic LCG so the test is reproducible.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state
	}
	var seq uint64
	pushed := 0
	var lastTime float64
	var lastSeq uint64
	popped := 0
	check := func(e event) {
		if e.time < lastTime || (e.time == lastTime && e.seq < lastSeq) {
			t.Fatalf("pop %d out of order: (%v,%d) after (%v,%d)", popped, e.time, e.seq, lastTime, lastSeq)
		}
		lastTime, lastSeq = e.time, e.seq
		popped++
	}
	for i := 0; i < 5000; i++ {
		r := next()
		if r%3 != 0 || q.len() == 0 {
			seq++
			// Coarse times force (time, seq) ties.
			q.push(event{time: float64(r % 64), seq: seq})
			pushed++
		} else {
			lastTime, lastSeq = 0, 0 // interleaved pops only check monotone within drains
			e := q.pop()
			_ = e
			popped++
		}
	}
	// Drain and verify total order.
	lastTime, lastSeq = math.Inf(-1), 0
	for q.len() > 0 {
		check(q.pop())
	}
}

// TestReheapRestoresSeqOrderOnTimeCollapse: when a uniform time shift
// collapses two distinct event times into a tie, the (time, seq)
// invariant must be re-established so equal-time events pop in
// schedule order — the exact hazard Rebase guards against by calling
// reheap.
func TestReheapRestoresSeqOrderOnTimeCollapse(t *testing.T) {
	var q eventQueue
	q.push(event{time: 10, seq: 1})
	q.push(event{time: 5, seq: 2}) // becomes the root: earlier time, later seq
	// A rounding collapse makes both times equal; the old layout now
	// violates (time, seq): root seq 2 above child seq 1.
	for i := range q.a {
		q.a[i].time = 5
	}
	q.reheap()
	if e := q.pop(); e.seq != 1 {
		t.Fatalf("first pop seq %d, want 1 (schedule order on a time tie)", e.seq)
	}
	if e := q.pop(); e.seq != 2 {
		t.Fatalf("second pop seq %d, want 2", e.seq)
	}
}

// TestRebaseShiftsPendingEvents: rebasing folds the offset into the
// base, shifts queued events, keeps AbsNow and event order, and
// notifies hooks.
func TestRebaseShiftsPendingEvents(t *testing.T) {
	s := New()
	var fired []float64
	var hookShift float64
	s.OnRebase(func(shift float64) { hookShift = shift })
	s.Schedule(1, func() {
		if got := s.Rebase(); got != 1 {
			t.Fatalf("Rebase returned %v, want 1", got)
		}
		if s.Now() != 0 || s.Base() != 1 || s.AbsNow() != 1 {
			t.Fatalf("after rebase: now=%v base=%v", s.Now(), s.Base())
		}
	})
	s.Schedule(3, func() { fired = append(fired, s.Now(), s.AbsNow()) })
	s.Run()
	if hookShift != 1 {
		t.Fatalf("rebase hook saw shift %v, want 1", hookShift)
	}
	// The 3 s event fires at in-epoch offset 2, absolute time 3.
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("post-rebase event fired at %v, want offset 2 / abs 3", fired)
	}
}

// TestAdvanceTo: jumps the clock without draining events, and refuses
// to jump past one.
func TestAdvanceTo(t *testing.T) {
	s := New()
	s.AdvanceTo(5)
	if s.Now() != 5 {
		t.Fatalf("Now = %v after AdvanceTo(5)", s.Now())
	}
	s.Schedule(10, func() {})
	s.AdvanceTo(15) // exactly at the pending event is fine
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo past a pending event did not panic")
			}
		}()
		s.AdvanceTo(16)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo into the past did not panic")
			}
		}()
		s.AdvanceTo(1)
	}()
}

// TestAdvanceBaseIteratedAddition: the closed-form jump must perform
// the same float64 additions a per-round loop would.
func TestAdvanceBaseIteratedAddition(t *testing.T) {
	s := New()
	delta := 0.080903773833333303 // a realistic non-dyadic round period
	s.AdvanceBase(delta, 1000)
	want := 0.0
	for i := 0; i < 1000; i++ {
		want += delta
	}
	if s.Base() != want {
		t.Fatalf("AdvanceBase accumulated %x, want %x",
			math.Float64bits(s.Base()), math.Float64bits(want))
	}
}

// TestScheduleAuxPendingReal: auxiliary events run like any other but
// are excluded from PendingReal, and each is called with the sequence
// number ScheduleAux returned for it.
func TestScheduleAuxPendingReal(t *testing.T) {
	s := New()
	ran := 0
	var got uint64
	want := s.ScheduleAux(2, func(seq uint64) { ran++; got = seq })
	s.Schedule(1, func() { ran++ })
	if s.Pending() != 2 || s.PendingReal() != 1 {
		t.Fatalf("Pending=%d PendingReal=%d, want 2/1", s.Pending(), s.PendingReal())
	}
	s.Run()
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
	if want != 1 || got != want {
		t.Fatalf("aux event got sequence number %d, ScheduleAux returned %d; want 1", got, want)
	}
	if s.Pending() != 0 || s.PendingReal() != 0 {
		t.Fatalf("queue not drained: Pending=%d PendingReal=%d", s.Pending(), s.PendingReal())
	}
}

// TestShutdownReapsParkedProcesses: Shutdown must unwind parked
// processes (each holds a goroutine that would otherwise block
// forever) and leave the kernel resettable.
func TestShutdownReapsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	const n = 20
	for i := 0; i < n; i++ {
		cond := s.NewCond()
		s.Spawn("parked", 0, func(p *Process) {
			cond.Wait(p) // parks forever: nobody signals
		})
	}
	// Drive until the deadlock panic (all parked, queue empty).
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected deadlock panic")
			}
		}()
		s.Run()
	}()
	if s.Live() != n {
		t.Fatalf("Live = %d, want %d", s.Live(), n)
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", s.Live())
	}
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset after Shutdown: %v", err)
	}
	// The kernel still works after teardown.
	ok := false
	s.Spawn("fresh", 0, func(p *Process) {
		p.Sleep(1)
		ok = true
	})
	s.Run()
	if !ok {
		t.Fatal("post-shutdown process did not run")
	}
	// Goroutines unwind asynchronously; wait for the count to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownNeverStartedProcess: a process whose first activation
// never fired is reaped without running its body.
func TestShutdownNeverStartedProcess(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("late", 1000, func(p *Process) { ran = true })
	s.RunUntil(1) // the start event stays pending
	if s.Live() != 1 {
		t.Fatalf("Live = %d, want 1", s.Live())
	}
	s.Shutdown()
	if ran {
		t.Fatal("killed process body ran")
	}
	if s.Live() != 0 || s.Pending() != 0 {
		t.Fatalf("Shutdown left live=%d pending=%d", s.Live(), s.Pending())
	}
}
