package des

import (
	"container/heap"
	"testing"
)

// boxedEvent / boxedHeap reproduce the previous event queue — a
// container/heap of *event boxes — as the baseline the slice-backed
// 4-ary queue is measured against. Every push allocates a box and
// every operation goes through the interface-typed heap.Interface
// methods.
type boxedEvent struct {
	time float64
	seq  uint64
}

type boxedHeap []*boxedEvent

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(*boxedEvent)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// The queue benchmarks run the canonical DES hold workload: a warm
// queue of size N, then pop-one/push-one per operation with
// near-future times — the steady-state pattern of a replay.

const benchQueueSize = 1024

func lcg(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state
}

func BenchmarkEventQueue4ary(b *testing.B) {
	var q eventQueue
	state := uint64(1)
	var seq uint64
	for i := 0; i < benchQueueSize; i++ {
		seq++
		q.push(event{time: float64(lcg(&state) % 4096), seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		seq++
		q.push(event{time: e.time + float64(lcg(&state)%128), seq: seq})
	}
}

func BenchmarkEventQueueBoxedHeap(b *testing.B) {
	var h boxedHeap
	state := uint64(1)
	var seq uint64
	for i := 0; i < benchQueueSize; i++ {
		seq++
		heap.Push(&h, &boxedEvent{time: float64(lcg(&state) % 4096), seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := heap.Pop(&h).(*boxedEvent)
		seq++
		heap.Push(&h, &boxedEvent{time: e.time + float64(lcg(&state)%128), seq: seq})
	}
}

// BenchmarkKernelScheduleRun measures the whole Schedule+dispatch
// path: allocs/op is the per-event kernel overhead a replay pays.
func BenchmarkKernelScheduleRun(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(float64(i%7), fn)
		if s.Pending() >= 512 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkKernelSleepChain measures the direct-resume path: one
// process sleeping b.N times. Each wakeup is earlier than any queued
// event (there is none), so the sleeper never switches to the driver.
func BenchmarkKernelSleepChain(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	s.Spawn("sleeper", 0, func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	s.Run()
}

// BenchmarkKernelSleepAlternate measures the parked wakeup path (the
// closure-free activation events): two processes sleeping in
// alternation, half a period apart, so each wakeup finds the other
// process's wakeup at the queue head, parks, and costs a push, a pop
// and a coroutine switch each way. One op is one wakeup.
func BenchmarkKernelSleepAlternate(b *testing.B) {
	s := New()
	sleeper := func(p *Process) {
		for i := 0; i < b.N/2; i++ {
			p.Sleep(1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Spawn("even", 0, sleeper)
	s.Spawn("odd", 0.5, sleeper)
	s.Run()
	if s.DirectResumes() != 0 {
		b.Fatalf("%d of %d wakeups resumed directly", s.DirectResumes(), s.Events())
	}
}

// BenchmarkKernelQueuePingPong measures the message wakeup path that
// Send/Recv rides on: two processes bounce a value through two Queues,
// so every op is two Puts that each wake a parked Get. With the
// alternating sleepers it shows the process switch cost, and it must
// stay at 0 allocs/op once the queues have warmed up.
func BenchmarkKernelQueuePingPong(b *testing.B) {
	s := New()
	ping, pong := s.NewQueue(), s.NewQueue()
	var ball interface{} = &struct{}{}
	s.Spawn("ping", 0, func(p *Process) {
		for i := 0; i < b.N; i++ {
			ping.Put(ball)
			pong.Get(p)
		}
	})
	s.Spawn("pong", 0, func(p *Process) {
		for i := 0; i < b.N; i++ {
			pong.Put(ping.Get(p))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
