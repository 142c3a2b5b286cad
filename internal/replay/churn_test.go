package replay

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// The churn tests pin the reuse contract a long-running server leans
// on: a session (or parallel engine) cycled through failed run → dirty
// rebuild → successful reuse hundreds of times must keep producing
// bit-identical results and must not accumulate goroutines — every
// failed run leaves process coroutines parked, each holding a
// goroutine, that only an explicit teardown reaps.

// cyclicStall builds a validation-passing deadlock: every rank Recvs
// from its cross partner before Sending, so all ranks park forever.
// With n divisible by 2 the partner spans partitions at any worker
// count that splits the rank range contiguously.
func cyclicStall(n int) trace.FoldedSource {
	bad := make([]*trace.Trace, n)
	for r := 0; r < n; r++ {
		peer := (r + n/2) % n
		bad[r] = &trace.Trace{Rank: r, Of: n, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: peer, Bytes: 8},
			{Kind: trace.KindSend, Peer: peer, Bytes: 8},
		}}
	}
	return fold(bad)
}

// waitGoroutines polls until the goroutine count drops to the budget
// or the deadline passes, returning the final count.
func waitGoroutines(budget int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	for {
		n := runtime.NumGoroutine()
		if n <= budget || time.Now().After(end) {
			return n
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionChurnGoroutineStability(t *testing.T) {
	const cycles = 200
	spec := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	good := sessionTraces()
	bad := cyclicStall(2)

	ref, err := RunSource(spec, good)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the session once before the baseline so the first rebuild's
	// allocations are not counted against the churn loop.
	if _, err := s.RunSource(spec, good); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < cycles; i++ {
		if _, err := s.RunSource(spec, bad); err == nil {
			t.Fatalf("cycle %d: stalled replay reported no error", i)
		}
		got, err := s.RunSource(spec, good)
		if err != nil {
			t.Fatalf("cycle %d: session unusable after failed run: %v", i, err)
		}
		if *got != *ref {
			t.Fatalf("cycle %d: post-churn result %+v differs from reference %+v", i, got, ref)
		}
	}

	if n := waitGoroutines(before+2, 5*time.Second); n > before+2 {
		t.Fatalf("goroutines grew under churn: %d before, %d after %d cycles", before, n, cycles)
	}
}

func TestSessionCloseThenReuse(t *testing.T) {
	spec := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.RunSource(spec, sessionTraces())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s.Close()
		got, err := s.RunSource(spec, sessionTraces())
		if err != nil {
			t.Fatalf("cycle %d: closed session did not rebuild: %v", i, err)
		}
		if *got != *ref {
			t.Fatalf("cycle %d: post-close result %+v differs from %+v", i, got, ref)
		}
	}
	if n := waitGoroutines(before+2, 5*time.Second); n > before+2 {
		t.Fatalf("goroutines grew across Close/reuse cycles: %d before, %d after", before, n)
	}
}

func TestParallelEngineChurnGoroutineStability(t *testing.T) {
	const cycles = 100
	spec := clusterSpec(t, 4)
	eng, err := NewParallelEngine(spec.Platform, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := heteroTraces(4, 1, 5)
	bad := cyclicStall(4)

	ref, err := RunSource(spec, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSource(spec, good); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < cycles; i++ {
		if _, err := eng.RunSource(spec, bad); err == nil {
			t.Fatalf("cycle %d: stalled partitioned replay reported no error", i)
		}
		got, err := eng.RunSource(spec, good)
		if err != nil {
			t.Fatalf("cycle %d: engine unusable after failed run: %v", i, err)
		}
		if got.PredictedSeconds != ref.PredictedSeconds ||
			got.ScatterSeconds != ref.ScatterSeconds ||
			got.ComputeSeconds != ref.ComputeSeconds ||
			got.GatherSeconds != ref.GatherSeconds {
			t.Fatalf("cycle %d: post-churn result %+v differs from serial reference %+v", i, got, ref)
		}
	}

	// The parallel engine fans out worker goroutines per window; allow
	// a small slack beyond the baseline, but no per-cycle growth.
	if n := waitGoroutines(before+4, 10*time.Second); n > before+4 {
		t.Fatalf("goroutines grew under churn: %d before, %d after %d cycles", before, n, cycles)
	}
}
