package netsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
)

// idleSkipScenario runs a 32-rank gather-like workload: three waves of
// staggered flows from every rank into a hub over a shared trunk, with
// the network going idle between waves. The staggered arrivals keep
// superseding completion estimates, so each idle point finds stale aux
// events to discard. Returns the per-completion timestamps (in
// completion order) and the discard count.
func idleSkipScenario(t testing.TB, ranks int, skip bool) ([]float64, int64) {
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	n.SetIdleSkip(skip)
	if _, err := n.AddHost("hub", 1e9); err != nil {
		t.Fatal(err)
	}
	trunk, err := n.AddLink("trunk", 5e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ranks; i++ {
		host := fmt.Sprintf("h%02d", i)
		if _, err := n.AddHost(host, 1e9); err != nil {
			t.Fatal(err)
		}
		l, err := n.AddLink(fmt.Sprintf("l%02d", i), 1e8, 5e-5)
		if err != nil {
			t.Fatal(err)
		}
		sr.routes[[2]string{host, "hub"}] = &Route{Links: []*Link{l, trunk}, Latency: 5e-5}
	}
	var times []float64
	for wave := 0; wave < 3; wave++ {
		for i := 0; i < ranks; i++ {
			host := fmt.Sprintf("h%02d", i)
			bytes := float64(1+(i+wave)%7) * 1e5
			at := float64(wave)*10 + float64(i)*1e-4
			sim.Schedule(at, func() {
				if _, err := n.StartFlow(host, "hub", bytes, func() {
					times = append(times, sim.Now())
				}); err != nil {
					t.Errorf("start flow %s: %v", host, err)
				}
			})
		}
	}
	sim.Run()
	return times, n.AuxDiscarded()
}

// TestIdleSkipBitIdentical: discarding stale aux events at idle points
// must not move a single completion instant in the 32-rank scenario.
func TestIdleSkipBitIdentical(t *testing.T) {
	on, _ := idleSkipScenario(t, 32, true)
	off, discOff := idleSkipScenario(t, 32, false)
	if discOff != 0 {
		t.Fatalf("disabled idle skip still discarded %d events", discOff)
	}
	if len(on) != len(off) {
		t.Fatalf("completion counts differ: %d with skip, %d without", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("completion %d diverged: %v with skip, %v without (delta %g)",
				i, on[i], off[i], on[i]-off[i])
		}
	}
}

// photoFinish builds the one dynamics corner where a stale completion
// estimate outlives the network's activity: two flows are within the
// completion quantum of done when a third (itself quantum-small)
// activates, so the triggered recompute zero-outs all three and the
// network idles with the superseded estimate still queued — the case
// the idle skip discards. Returns delivery times and the discard count.
func photoFinish(t testing.TB, skip bool) ([]float64, int64) {
	t.Helper()
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	n.SetIdleSkip(skip)
	if _, err := n.AddHost("hub", 1e9); err != nil {
		t.Fatal(err)
	}
	trunk, err := n.AddLink("trunk", 5e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b", "c"} {
		if _, err := n.AddHost(h, 1e9); err != nil {
			t.Fatal(err)
		}
		l, err := n.AddLink("l"+h, 1e8, 0)
		if err != nil {
			t.Fatal(err)
		}
		sr.routes[[2]string{h, "hub"}] = &Route{Links: []*Link{l, trunk}, Latency: 0}
	}
	var times []float64
	record := func() { times = append(times, sim.Now()) }
	// a and b: 1000 bytes at 1e8 B/s each (private links are the
	// bottleneck) — estimated done at t=1e-5.
	if _, err := n.StartFlow("a", "hub", 1000, record); err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartFlow("b", "hub", 1000, record); err != nil {
		t.Fatal(err)
	}
	// c activates half a nanosecond before that estimate, when a and b
	// have ~0.05 bytes left (within rate*TimeQuantum = 0.1): the
	// recompute zero-outs a, b and the 0.04-byte c together, idling
	// the network at t < 1e-5 with the t=1e-5 estimate still queued.
	sim.Schedule(9.9995e-6, func() {
		if _, err := n.StartFlow("c", "hub", 0.04, record); err != nil {
			t.Errorf("start c: %v", err)
		}
	})
	sim.Run()
	return times, n.AuxDiscarded()
}

// TestIdleSkipDiscardsTrailingEstimate: the photo-finish corner leaves
// a stale estimate queued at idle; the skip must drop it without
// moving any delivery, and the disabled path must pop it as a no-op.
func TestIdleSkipDiscardsTrailingEstimate(t *testing.T) {
	on, discOn := photoFinish(t, true)
	off, discOff := photoFinish(t, false)
	if discOn == 0 {
		t.Fatal("photo-finish scenario left nothing to discard; the corner is no longer exercised")
	}
	if discOff != 0 {
		t.Fatalf("disabled idle skip still discarded %d events", discOff)
	}
	if len(on) != 3 || len(off) != 3 {
		t.Fatalf("delivery counts: %d with skip, %d without, want 3", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("delivery %d diverged: %v with skip, %v without", i, on[i], off[i])
		}
	}
}

// TestIdleSkipDefaultOn: a fresh network has the skip enabled.
func TestIdleSkipDefaultOn(t *testing.T) {
	sim := des.New()
	n := New(sim, &staticRoutes{routes: make(map[[2]string]*Route)})
	if !n.idleSkip {
		t.Fatal("idle skip is not on by default")
	}
}

// TestDiscardAuxKeepsRealEvents: the kernel-level primitive drops only
// aux events and keeps the heap ordered.
func TestDiscardAuxKeepsRealEvents(t *testing.T) {
	sim := des.New()
	var fired []string
	sim.Schedule(2, func() { fired = append(fired, "real2") })
	sim.ScheduleAux(1, func(uint64) { fired = append(fired, "aux1") })
	sim.Schedule(1, func() { fired = append(fired, "real1") })
	sim.ScheduleAux(3, func(uint64) { fired = append(fired, "aux3") })
	if got := sim.DiscardAux(); got != 2 {
		t.Fatalf("discarded %d aux events, want 2", got)
	}
	if sim.Pending() != 2 || sim.PendingReal() != 2 {
		t.Fatalf("pending %d / real %d after discard, want 2 / 2", sim.Pending(), sim.PendingReal())
	}
	if got := sim.DiscardAux(); got != 0 {
		t.Fatalf("second discard removed %d events, want 0", got)
	}
	end := sim.Run()
	if len(fired) != 2 || fired[0] != "real1" || fired[1] != "real2" {
		t.Fatalf("fired %v, want [real1 real2]", fired)
	}
	if end != 2 {
		t.Fatalf("final clock %v, want 2", end)
	}
	if math.IsNaN(end) {
		t.Fatal("unreachable")
	}
}

// BenchmarkIdleSkip32Ranks measures the three-wave 32-rank scenario
// with and without idle skipping.
func BenchmarkIdleSkip32Ranks(b *testing.B) {
	for _, skip := range []bool{true, false} {
		name := "on"
		if !skip {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idleSkipScenario(b, 32, skip)
			}
		})
	}
}
