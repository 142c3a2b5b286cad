package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(2.0, func() { got = append(got, 2) })
	s.Schedule(1.0, func() { got = append(got, 1) })
	s.Schedule(3.0, func() { got = append(got, 3) })
	end := s.Run()
	if end != 3.0 {
		t.Fatalf("end time = %v, want 3.0", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestScheduleTieBreakBySequence(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1.0, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: got %v", got)
		}
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NaN delay")
		}
	}()
	New().Schedule(math.NaN(), func() {})
}

func TestScheduleAt(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(1, func() {
		s.ScheduleAt(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Fatalf("event ran at %v, want 5", at)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(2, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.ScheduleAt(1, func() {})
	})
	s.Run()
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(10, func() { ran = true })
	end := s.RunUntil(5)
	if end != 5 {
		t.Fatalf("RunUntil returned %v, want 5", end)
	}
	if ran {
		t.Fatal("event beyond limit ran")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if !ran {
		t.Fatal("event did not run after resuming")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 100 {
			s.Schedule(0.5, rec)
		}
	}
	s.Schedule(0, rec)
	end := s.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if math.Abs(end-49.5) > 1e-9 {
		t.Fatalf("end = %v, want 49.5", end)
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.Schedule(1, func() { n++ })
	s.Schedule(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatal("first step failed")
	}
	if !s.Step() || n != 2 {
		t.Fatal("second step failed")
	}
	if s.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestProcessSleep(t *testing.T) {
	s := New()
	var wake []float64
	s.Spawn("sleeper", 0, func(p *Process) {
		p.Sleep(1)
		wake = append(wake, p.Now())
		p.Sleep(2.5)
		wake = append(wake, p.Now())
	})
	end := s.Run()
	if end != 3.5 {
		t.Fatalf("end = %v, want 3.5", end)
	}
	if len(wake) != 2 || wake[0] != 1 || wake[1] != 3.5 {
		t.Fatalf("wake times = %v", wake)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, 0, func(p *Process) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(1)
				}
			})
		}
		s.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("nondeterministic interleaving: run %d: %v vs %v", i, again, first)
			}
		}
	}
}

func TestProcessSpawnDelay(t *testing.T) {
	s := New()
	var started float64 = -1
	s.Spawn("late", 4.25, func(p *Process) { started = p.Now() })
	s.Run()
	if started != 4.25 {
		t.Fatalf("started at %v, want 4.25", started)
	}
}

func TestCondSignalThenWait(t *testing.T) {
	s := New()
	c := s.NewCond()
	var seen float64 = -1
	s.Schedule(1, func() { c.Signal() })
	s.Spawn("w", 2, func(p *Process) {
		c.Wait(p) // signal is already pending: returns immediately
		seen = p.Now()
	})
	s.Run()
	if seen != 2 {
		t.Fatalf("wait returned at %v, want 2 (pending signal)", seen)
	}
}

func TestCondWaitThenSignal(t *testing.T) {
	s := New()
	c := s.NewCond()
	var seen float64 = -1
	s.Spawn("w", 0, func(p *Process) {
		c.Wait(p)
		seen = p.Now()
	})
	s.Schedule(3, func() { c.Signal() })
	s.Run()
	if seen != 3 {
		t.Fatalf("wait returned at %v, want 3", seen)
	}
}

func TestCondDoubleWaiterPanics(t *testing.T) {
	s := New()
	c := s.NewCond()
	s.Spawn("w1", 0, func(p *Process) { c.Wait(p) })
	panicked := make(chan bool, 1)
	s.Spawn("w2", 1, func(p *Process) {
		defer func() {
			panicked <- recover() != nil
			// Re-park forever so the kernel doesn't see us finish oddly;
			// actually just finish: recover consumed the panic.
		}()
		c.Wait(p)
	})
	// w1 never gets signalled -> deadlock panic expected from Run.
	defer func() { recover() }()
	s.Run()
	if !<-panicked {
		t.Fatal("second waiter did not panic")
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := s.NewQueue()
	var got []int
	s.Spawn("reader", 0, func(p *Process) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	s.Schedule(1, func() { q.Put(10) })
	s.Schedule(2, func() { q.Put(20) })
	s.Schedule(2, func() { q.Put(30) })
	s.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueGetBeforePut(t *testing.T) {
	s := New()
	q := s.NewQueue()
	var at float64 = -1
	s.Spawn("reader", 0, func(p *Process) {
		q.Get(p)
		at = p.Now()
	})
	s.Schedule(7, func() { q.Put("x") })
	s.Run()
	if at != 7 {
		t.Fatalf("reader woke at %v, want 7", at)
	}
}

func TestQueueTryGet(t *testing.T) {
	s := New()
	q := s.NewQueue()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty returned ok")
	}
	q.Put(1)
	q.Put(2)
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v.(int) != 1 {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
}

func TestQueueMultipleReaders(t *testing.T) {
	s := New()
	q := s.NewQueue()
	var order []string
	for _, name := range []string{"r1", "r2"} {
		name := name
		s.Spawn(name, 0, func(p *Process) {
			q.Get(p)
			order = append(order, name)
		})
	}
	s.Schedule(1, func() { q.Put(1) })
	s.Schedule(2, func() { q.Put(2) })
	s.Run()
	if len(order) != 2 || order[0] != "r1" || order[1] != "r2" {
		t.Fatalf("reader order = %v, want [r1 r2]", order)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	s := New()
	b := s.NewBarrier(3)
	var times []float64
	for i, d := range []float64{1, 2, 3} {
		_ = i
		d := d
		s.Spawn("p", d, func(p *Process) {
			b.Arrive(p)
			times = append(times, p.Now())
		})
	}
	s.Run()
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for _, tm := range times {
		if tm != 3 {
			t.Fatalf("release at %v, want 3 (all released when last arrives)", tm)
		}
	}
	if b.Generation() != 1 {
		t.Fatalf("generation = %d", b.Generation())
	}
}

func TestBarrierReusable(t *testing.T) {
	s := New()
	b := s.NewBarrier(2)
	count := 0
	for i := 0; i < 2; i++ {
		s.Spawn("p", 0, func(p *Process) {
			for round := 0; round < 5; round++ {
				p.Sleep(1)
				b.Arrive(p)
			}
			count++
		})
	}
	s.Run()
	if count != 2 || b.Generation() != 5 {
		t.Fatalf("count=%d gen=%d", count, b.Generation())
	}
}

func TestBarrierSizeOne(t *testing.T) {
	s := New()
	b := s.NewBarrier(1)
	done := false
	s.Spawn("p", 0, func(p *Process) {
		b.Arrive(p)
		done = true
	})
	s.Run()
	if !done || b.Generation() != 1 {
		t.Fatal("size-1 barrier should pass through")
	}
}

func TestBarrierInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().NewBarrier(0)
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	c := s.NewCond()
	s.Spawn("stuck", 0, func(p *Process) { c.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s.Run()
}

func TestLiveCount(t *testing.T) {
	s := New()
	if s.Live() != 0 {
		t.Fatal("live != 0 initially")
	}
	s.Spawn("a", 0, func(p *Process) { p.Sleep(1) })
	if s.Live() != 1 {
		t.Fatalf("live = %d after spawn, want 1", s.Live())
	}
	s.Run()
	if s.Live() != 0 {
		t.Fatalf("live = %d after run, want 0", s.Live())
	}
}

// Property: for any set of non-negative delays, events fire in sorted
// order and the final clock equals the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		delays := make([]float64, len(raw))
		for i, r := range raw {
			delays[i] = float64(r) / 100.0
		}
		var fired []float64
		for _, d := range delays {
			d := d
			s.Schedule(d, func() { fired = append(fired, d) })
		}
		end := s.Run()
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		maxd := 0.0
		for _, d := range delays {
			if d > maxd {
				maxd = d
			}
		}
		return end == maxd && len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N sleeping processes with arbitrary schedules always finish,
// and the clock ends at the max cumulative sleep.
func TestPropertyProcessSleepTotals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 1 + rng.Intn(8)
		maxTotal := 0.0
		for i := 0; i < n; i++ {
			steps := 1 + rng.Intn(5)
			total := 0.0
			sleeps := make([]float64, steps)
			for j := range sleeps {
				sleeps[j] = float64(rng.Intn(100)) / 10.0
				total += sleeps[j]
			}
			if total > maxTotal {
				maxTotal = total
			}
			s.Spawn("p", 0, func(p *Process) {
				for _, d := range sleeps {
					p.Sleep(d)
				}
			})
		}
		end := s.Run()
		return math.Abs(end-maxTotal) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(float64(j%17), func() {})
		}
		s.Run()
	}
}

func TestReset(t *testing.T) {
	s := New()
	s.Spawn("p", 0, func(p *Process) { p.Sleep(3) })
	if err := s.Reset(); err == nil {
		t.Fatal("Reset accepted with pending events")
	}
	s.Run()
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatalf("Now after Reset = %v, want 0", s.Now())
	}
	// A second run on the reset kernel behaves like a fresh one.
	s.Spawn("q", 0, func(p *Process) { p.Sleep(2) })
	if end := s.Run(); end != 2 {
		t.Fatalf("second run ended at %v, want 2", end)
	}
}

func TestResetRefusesLiveProcess(t *testing.T) {
	s := New()
	c := s.NewCond()
	s.Spawn("waiter", 0, func(p *Process) { c.Wait(p) })
	s.Schedule(1, func() {}) // keep the queue non-empty so Run returns
	s.RunUntil(0.5)
	if err := s.Reset(); err == nil {
		t.Fatal("Reset accepted with a parked process")
	}
	c.Signal()
	s.Run()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
}
