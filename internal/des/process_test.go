package des

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runRecovered runs s to completion and returns the panic value the
// driver saw, or nil.
func runRecovered(s *Simulation) (r interface{}) {
	defer func() { r = recover() }()
	s.Run()
	return nil
}

// TestProcessPanicReraisedOnDriver: a panic in one process body
// surfaces on the goroutine running the kernel, named after the
// process, while its siblings stay parked; Shutdown then reaps them
// and the kernel hosts the next run. Fifty cycles must not grow the
// goroutine count.
func TestProcessPanicReraisedOnDriver(t *testing.T) {
	s := New()
	cycle := func() {
		c := s.NewCond()
		s.Spawn("waiter", 0, func(p *Process) { c.Wait(p) })
		s.Spawn("sleeper", 0, func(p *Process) { p.Sleep(10) })
		s.Spawn("boom", 0, func(p *Process) {
			p.Sleep(1)
			panic("kaboom")
		})
		r := runRecovered(s)
		msg, _ := r.(string)
		if !strings.Contains(msg, `des: process "boom" panicked: kaboom`) {
			t.Fatalf("driver saw %v, want the process panic", r)
		}
		if s.Now() != 1 {
			t.Fatalf("panic surfaced at t=%v, want 1", s.Now())
		}
		s.Shutdown()
		if s.Live() != 0 || s.Pending() != 0 {
			t.Fatalf("Shutdown left live=%d pending=%d", s.Live(), s.Pending())
		}
		if err := s.Reset(); err != nil {
			t.Fatalf("Reset after panic: %v", err)
		}
	}
	cycle()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		cycle()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew across panicking runs: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The kernel still runs processes normally.
	s.Spawn("fresh", 0, func(p *Process) { p.Sleep(2) })
	if end := s.Run(); end != 2 {
		t.Fatalf("post-panic run ended at %v, want 2", end)
	}
}

// TestShutdownUnwindsParkedBody: Shutdown returns a parked body from
// its blocking call by unwinding it — deferred calls run, the code
// after the call does not.
func TestShutdownUnwindsParkedBody(t *testing.T) {
	s := New()
	c := s.NewCond()
	deferred, resumed := false, false
	s.Spawn("parked", 0, func(p *Process) {
		defer func() { deferred = true }()
		c.Wait(p)
		resumed = true
	})
	s.Schedule(1, func() {})
	s.RunUntil(0.5)
	s.Shutdown()
	if !deferred || resumed {
		t.Fatalf("Shutdown unwind: deferred=%v resumed=%v, want true false", deferred, resumed)
	}
}

// TestQueuePutGetAllocs pins the message wakeup path at zero
// allocations once warm: a Put that wakes a parked reader, and the
// reader's Get, reuse the item and reader slots of the previous cycle.
func TestQueuePutGetAllocs(t *testing.T) {
	s := New()
	q := s.NewQueue()
	got := 0
	s.Spawn("reader", 0, func(p *Process) {
		for {
			q.Get(p)
			got++
		}
	})
	var v interface{} = &struct{}{}
	drain := func() {
		for s.Step() {
		}
	}
	drain() // the reader starts and parks in Get
	cycle := func() {
		q.Put(v)
		drain()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("Put/Get cycle allocates %v times, want 0", a)
	}
	if got != 4+101 {
		t.Fatalf("reader got %d items, want %d", got, 4+101)
	}
	s.Shutdown()
}

// TestQueueFIFOUnderChurn checks the queue against a plain slice
// model over random Put/TryGet interleavings, including long
// never-draining stretches that make the queue slide its live items
// to the front of its array.
func TestQueueFIFOUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := New().NewQueue()
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Phases bias toward growth, then toward draining.
		putBias := 6
		if (step/500)%2 == 1 {
			putBias = 4
		}
		if rng.Intn(10) < putBias {
			q.Put(next)
			model = append(model, next)
			next++
		} else {
			v, ok := q.TryGet()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: TryGet ok=%v with %d modelled items", step, ok, len(model))
			}
			if ok {
				if v.(int) != model[0] {
					t.Fatalf("step %d: got %v, want %d", step, v, model[0])
				}
				model = model[1:]
			}
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(model))
		}
	}
}

// TestQueueBoundedWithoutDraining: a queue whose consumer trails its
// producer never empties, so it never rewinds; its array must still
// stay proportional to the items it holds, not to the items it has
// ever carried.
func TestQueueBoundedWithoutDraining(t *testing.T) {
	q := New().NewQueue()
	for i := 0; i < 3; i++ {
		q.Put(i)
	}
	for i := 3; i < 100000; i++ {
		q.Put(i)
		if v, _ := q.TryGet(); v.(int) != i-3 {
			t.Fatalf("got %v, want %d", v, i-3)
		}
	}
	if c := cap(q.items.a); c > 16 {
		t.Fatalf("queue holding 3 items kept a %d-slot array", c)
	}
}
