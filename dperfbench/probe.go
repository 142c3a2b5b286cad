package main

import (
	"sort"
	"time"
)

// The host-speed probe. Shared hosts drift by tens of percent over
// seconds, so between units, while dperfd is idle, the benchmark times
// a fixed single-threaded loop of about 25 ms and scales its time
// metrics by the loop's rate relative to nominalProbeRate: a unit's
// latency by the nearest reading, a run's throughput, CPU and set-up
// time by the run's mean reading.
const (
	// probeEvery is the spacing of readings during the measured phase.
	probeEvery = 500 * time.Millisecond
	// nominalProbeRate (loops per second) is the reference the scaled
	// metrics are normalised to. It is a fixed constant, not a
	// measurement: changing it rescales every scaled metric, so it
	// changes only together with the benchmark's baseline.
	nominalProbeRate = 40.0
)

// The loop mixes the kinds of work dperfd's requests do: integer
// arithmetic, random read-modify-writes over a 256 KiB working set,
// small allocations into a map, which make the garbage collector run,
// and goroutine hand-offs, which the DES kernel pays on every event.
// Against served new-trace units the mix tracks host drift one for
// one (a log-log slope of 1.06 between readings and unit time, where
// the loop without hand-offs gave 1.22 and left slow phases
// under-corrected). The hand-offs take about half the loop's time.
const (
	probeALU      = 3 << 19
	probeMem      = 1 << 19
	probeAlloc    = 1 << 16
	probeHandoffs = 30000
)

var probeBuf = make([]uint64, 1<<15)

var probeSink uint64

type probeNode struct {
	v [6]uint64
}

func probeLoop() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < probeALU; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * 0xbf58476d1ce4e5b9
	}
	mask := uint64(len(probeBuf) - 1)
	for i := 0; i < probeMem; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ acc) & mask
		acc += probeBuf[j]
		probeBuf[j] = acc ^ x
	}
	m := make(map[uint64]*probeNode)
	for i := 0; i < probeAlloc; i++ {
		n := &probeNode{}
		n.v[0] = acc
		m[uint64(i)%4096] = n
	}
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < probeHandoffs; i++ {
		ping <- acc
		acc = <-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited
	return acc + uint64(len(m))
}

// reading is one probe result: the loop's rate and the midpoint of the
// interval it ran in.
type reading struct {
	at   time.Time
	rate float64
}

func probe() reading {
	start := time.Now()
	probeSink += probeLoop()
	d := time.Since(start)
	return reading{at: start.Add(d / 2), rate: 1 / d.Seconds()}
}

// probes is a run's readings in time order.
type probes []reading

// nearWindow is how far from a unit the readings that scale it may
// lie. One 30 ms reading is itself noisy, so a unit is scaled by the
// mean of the readings within this window: about five of them.
const nearWindow = time.Second

// near returns the host's rate around t: the mean of the readings
// within nearWindow of t, or the nearest reading when none is.
func (ps probes) near(t time.Time) float64 {
	lo := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(t.Add(-nearWindow)) })
	var sum float64
	var n int
	for i := lo; i < len(ps) && !ps[i].at.After(t.Add(nearWindow)); i++ {
		sum += ps[i].rate
		n++
	}
	if n > 0 {
		return sum / float64(n)
	}
	i := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(t) })
	switch {
	case i == 0:
		return ps[0].rate
	case i == len(ps):
		return ps[len(ps)-1].rate
	case t.Sub(ps[i-1].at) <= ps[i].at.Sub(t):
		return ps[i-1].rate
	}
	return ps[i].rate
}

func (ps probes) mean() float64 {
	var sum float64
	for _, p := range ps {
		sum += p.rate
	}
	return sum / float64(len(ps))
}
