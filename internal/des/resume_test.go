package des

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDirectResumeTieParks: a wakeup at the same time as a queued event
// parks, so the event scheduled first still runs first.
func TestDirectResumeTieParks(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(1, func() { order = append(order, "fn") })
	s.Spawn("p", 0, func(p *Process) {
		p.Sleep(1)
		order = append(order, "p")
	})
	s.Run()
	if want := []string{"fn", "p"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if s.DirectResumes() != 0 || s.Events() != 3 {
		t.Fatalf("events %d, direct %d; want 3, 0", s.Events(), s.DirectResumes())
	}
}

// TestDirectResumeRunUntilLimit: RunUntil resumes a wakeup at or below
// its limit directly; one past the limit parks and fires on the next
// run.
func TestDirectResumeRunUntilLimit(t *testing.T) {
	s := New()
	var woke []float64
	s.Spawn("p", 0, func(p *Process) {
		p.Sleep(1) // below the limit
		woke = append(woke, p.Now())
		p.Sleep(4) // exactly at the limit
		woke = append(woke, p.Now())
		p.Sleep(6) // past it
		woke = append(woke, p.Now())
	})
	if end := s.RunUntil(5); end != 5 {
		t.Fatalf("RunUntil(5) ended at %v", end)
	}
	if want := []float64{1, 5}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v before the limit, want %v", woke, want)
	}
	if s.Pending() != 1 || s.DirectResumes() != 2 {
		t.Fatalf("pending %d, direct %d after the first run; want 1, 2", s.Pending(), s.DirectResumes())
	}
	s.RunUntil(20)
	if want := []float64{1, 5, 11}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if s.Events() != 4 || s.DirectResumes() != 2 {
		t.Fatalf("events %d, direct %d; want 4, 2", s.Events(), s.DirectResumes())
	}
}

// TestDirectResumeNeverUnderStep: every wakeup is a step of its own.
func TestDirectResumeNeverUnderStep(t *testing.T) {
	s := New()
	s.Spawn("p", 0, func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
		}
	})
	steps := 0
	for s.Step() {
		steps++
		if s.Now() != float64(steps-1) {
			t.Fatalf("step %d ran at %v", steps, s.Now())
		}
	}
	if steps != 4 || s.Events() != 4 || s.DirectResumes() != 0 {
		t.Fatalf("%d steps, %d events, %d direct; want 4, 4, 0", steps, s.Events(), s.DirectResumes())
	}
}

// TestDirectResumeRunWindowStrict: RunWindow resumes directly only
// strictly below its limit; a wakeup at the limit parks for the next
// window, and the window count includes direct resumes.
func TestDirectResumeRunWindowStrict(t *testing.T) {
	s := New()
	var woke []float64
	s.Spawn("p", 0, func(p *Process) {
		p.Sleep(1)
		woke = append(woke, p.Now())
		p.Sleep(1) // lands on the limit
		woke = append(woke, p.Now())
	})
	if n := s.RunWindow(2); n != 2 {
		t.Fatalf("first window executed %d events, want 2", n)
	}
	if want := []float64{1}; !reflect.DeepEqual(woke, want) || s.Now() != 1 {
		t.Fatalf("woke at %v, clock %v after the window; want %v, 1", woke, s.Now(), want)
	}
	if tm, ok := s.PeekTime(); !ok || tm != 2 {
		t.Fatalf("pending wakeup at %v (%v), want 2", tm, ok)
	}
	if n := s.RunWindow(3); n != 1 {
		t.Fatalf("second window executed %d events, want 1", n)
	}
	if want := []float64{1, 2}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
	if s.DirectResumes() != 1 {
		t.Fatalf("direct %d, want 1", s.DirectResumes())
	}
}

// TestDirectResumeTraceSeesEveryEvent: with a Trace hook no process
// resumes directly, so the hook sees every event; the run is otherwise
// the same.
func TestDirectResumeTraceSeesEveryEvent(t *testing.T) {
	run := func(traced bool) (*Simulation, []float64) {
		s := New()
		var seen []float64
		if traced {
			s.Trace = func(t float64, _ string) { seen = append(seen, t) }
		}
		s.Spawn("p", 0, func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Sleep(1)
			}
		})
		s.Run()
		return s, seen
	}
	plain, _ := run(false)
	traced, seen := run(true)
	if want := []float64{0, 1, 2, 3}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("trace saw %v, want %v", seen, want)
	}
	if traced.DirectResumes() != 0 || plain.DirectResumes() != 3 {
		t.Fatalf("direct %d traced, %d plain; want 0, 3", traced.DirectResumes(), plain.DirectResumes())
	}
	if traced.Events() != plain.Events() || traced.Now() != plain.Now() {
		t.Fatalf("traced run %d events to t=%v, plain %d to t=%v",
			traced.Events(), traced.Now(), plain.Events(), plain.Now())
	}
}

// TestDirectResumeThreeProcessOrder: three processes sleeping and
// handing a value through a Queue resume in the (time, process) order
// worked out by hand below, with and without direct resume.
//
//	t=0     A, B, C start; A sleeps to 1, B waits on q, C sleeps to 1 (tied with A: parks)
//	t=1     A puts (B wakes at 1) and sleeps to 3; C sleeps to 1.25; B sleeps to 1.5
//	t=1.25  C sleeps to 1.375: ahead of B at 1.5, direct
//	t=1.5   B sleeps to 2: ahead of A at 3, direct; then to 5, parks
//	t=3     A ends; t=5 B ends
func TestDirectResumeThreeProcessOrder(t *testing.T) {
	want := []string{
		"0 A", "0 B", "0 C",
		"1 A", "1 C", "1 B",
		"1.25 C", "1.375 C",
		"1.5 B", "2 B",
		"3 A", "5 B",
	}
	for _, traced := range []bool{false, true} {
		s := New()
		if traced {
			s.Trace = func(float64, string) {}
		}
		var got []string
		log := func(p *Process) { got = append(got, fmt.Sprintf("%v %s", p.Now(), p.Name())) }
		q := s.NewQueue()
		s.Spawn("A", 0, func(p *Process) {
			log(p)
			p.Sleep(1)
			log(p)
			q.Put(1)
			p.Sleep(2)
			log(p)
		})
		s.Spawn("B", 0, func(p *Process) {
			log(p)
			q.Get(p)
			log(p)
			for _, d := range []float64{0.5, 0.5, 3} {
				p.Sleep(d)
				log(p)
			}
		})
		s.Spawn("C", 0, func(p *Process) {
			log(p)
			for _, d := range []float64{1, 0.25, 0.125} {
				p.Sleep(d)
				log(p)
			}
		})
		s.Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("traced=%v: order\n%v\nwant\n%v", traced, got, want)
		}
		direct := int64(2)
		if traced {
			direct = 0
		}
		if s.Events() != 12 || s.DirectResumes() != direct {
			t.Fatalf("traced=%v: %d events, %d direct; want 12, %d", traced, s.Events(), s.DirectResumes(), direct)
		}
	}
}

// TestResetClearsWorkCounters: the counters are per run.
func TestResetClearsWorkCounters(t *testing.T) {
	s := New()
	s.Spawn("p", 0, func(p *Process) { p.Sleep(1) })
	s.Run()
	if s.Events() != 2 || s.DirectResumes() != 1 {
		t.Fatalf("events %d, direct %d; want 2, 1", s.Events(), s.DirectResumes())
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != 0 || s.DirectResumes() != 0 {
		t.Fatalf("Reset left events %d, direct %d", s.Events(), s.DirectResumes())
	}
}
