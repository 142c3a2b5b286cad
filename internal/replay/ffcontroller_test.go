package replay

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// fakeKernel is a scripted FFKernel: Rebase returns whatever shift the
// test set, the in-flight counts are plain fields, and every call the
// controller makes is logged in order.
type fakeKernel struct {
	flows, msgs, real int
	shift             float64
	// advances holds one entry per round added to the epoch base, in
	// the order AdvanceBase added them.
	advances []float64
	log      []string
}

func (k *fakeKernel) ActiveFlows() int {
	k.log = append(k.log, "flows")
	return k.flows
}

func (k *fakeKernel) PendingMessages() int {
	k.log = append(k.log, "msgs")
	return k.msgs
}

func (k *fakeKernel) PendingReal() int {
	k.log = append(k.log, "real")
	return k.real
}

func (k *fakeKernel) Rebase() float64 {
	k.log = append(k.log, "rebase")
	return k.shift
}

func (k *fakeKernel) AdvanceBase(delta float64, rounds int) {
	k.log = append(k.log, fmt.Sprintf("advance(%g,%d)", delta, rounds))
	for i := 0; i < rounds; i++ {
		k.advances = append(k.advances, delta)
	}
}

func (k *fakeKernel) Sub(a, b float64) float64 {
	k.log = append(k.log, fmt.Sprintf("sub(%g)", a))
	return a - b
}

func (k *fakeKernel) BitsEq(a, b float64) bool {
	k.log = append(k.log, "bitseq")
	return math.Float64bits(a) == math.Float64bits(b)
}

func (k *fakeKernel) Zero() float64 {
	k.log = append(k.log, "zero")
	return 0
}

// ffStep is one boundary of a scripted loop: the in-epoch offset the
// parked rank wakes at after the rebase, and the shift Rebase returns.
type ffStep struct{ wake, shift float64 }

// ffDriver steps a two-rank managed loop through the controller the
// way both executors do. At each boundary rank 0 arrives first and
// parks in its leading compute; rank 1 arrives last, so its Boundary
// call takes the snapshot. Then both ranks run the iteration.
type ffDriver struct {
	k      *fakeKernel
	ctl    *FFController[float64]
	rc     *RepeatCtl[float64]
	count  int
	done   [2]int
	rounds int // iterations both ranks ran
}

func newFFDriver(t *testing.T, count int) *ffDriver {
	t.Helper()
	k := &fakeKernel{real: 1} // the one parked wakeup of the other rank
	ctl := NewFFController[float64](k, 2, true, nil)
	rc := ctl.Join(0, 0, 0, count)
	if rc == nil || ctl.Join(1, 0, 0, count) != rc {
		t.Fatal("ranks did not join the same loop")
	}
	return &ffDriver{k: k, ctl: ctl, rc: rc, count: count}
}

// arrive calls Boundary for the rank and reports whether the rank has
// an iteration left; a finished rank leaves the loop.
func (d *ffDriver) arrive(rank int) bool {
	d.done[rank] = d.rc.Boundary(rank, d.done[rank])
	if d.done[rank] >= d.count {
		d.rc.Leave()
		return false
	}
	return true
}

// body runs the rank's iteration once its leading compute woke.
func (d *ffDriver) body(rank int) {
	d.rc.Woke(rank)
	d.done[rank]++
}

// round drives one boundary with step(b), b being the canonical
// iteration count at the boundary, and reports whether the loop goes
// on. step runs between the two arrivals, so it may also set the
// kernel state the snapshot sees.
func (d *ffDriver) round(step func(b int) ffStep) bool {
	if !d.arrive(0) {
		d.arrive(1)
		return false
	}
	s := step(d.done[0])
	// Dyadic offsets keep (shift+wake)-shift == wake exact.
	d.rc.ParkUntil(0, s.shift+s.wake)
	d.k.shift = s.shift
	d.arrive(1)
	d.rc.ParkUntil(1, 0)
	d.body(0)
	d.body(1)
	d.rounds++
	return true
}

// run drives the loop to its end and returns the controller's stats.
func (d *ffDriver) run(step func(b int) ffStep) FFStats {
	for d.round(step) {
	}
	return d.ctl.Stats()
}

// cycle returns a step function whose boundary offsets repeat with the
// given period; every boundary's shift is 1.
func cycle(period int) func(b int) ffStep {
	return func(b int) ffStep { return ffStep{wake: 0.125 * float64(1+b%period), shift: 1} }
}

func checkRun(t *testing.T, d *ffDriver, got, want FFStats) {
	t.Helper()
	if got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if int64(d.rounds) != want.RoundsSimulated {
		t.Fatalf("ran %d iterations, stats say %d simulated", d.rounds, want.RoundsSimulated)
	}
	if int64(len(d.k.advances)) != want.RoundsFastForwarded {
		t.Fatalf("epoch base advanced by %d rounds, want %d", len(d.k.advances), want.RoundsFastForwarded)
	}
}

// TestFFControllerPeriodOneJump: two equal clean boundaries prove a
// fixed point, and the controller skips every round but the final one,
// adding the round's shift once per skipped round.
func TestFFControllerPeriodOneJump(t *testing.T) {
	d := newFFDriver(t, 20)
	st := d.run(func(int) ffStep { return ffStep{wake: 0.5, shift: 2} })
	// Boundaries 0 and 1 match; boundary 1 jumps 18 rounds to 19.
	checkRun(t, d, st, FFStats{RoundsSimulated: 2, RoundsFastForwarded: 18, Jumps: 1})
	for i, a := range d.k.advances {
		if a != 2 {
			t.Fatalf("advance %d added %g, want 2", i, a)
		}
	}
}

// TestFFControllerPeriodThreeOrbit: a period-3 orbit jumps once two
// full cycles are in the ring, skips a whole number of cycles, and
// adds the cycle's shifts in the order the rounds produced them.
func TestFFControllerPeriodThreeOrbit(t *testing.T) {
	shifts := [3]float64{1, 2, 4}
	d := newFFDriver(t, 31)
	st := d.run(func(b int) ffStep {
		return ffStep{wake: 0.25 * float64(1+b%3), shift: shifts[b%3]}
	})
	// Boundaries 0..5 hold the orbit twice; boundary 5 jumps
	// ((31-1-5)/3)*3 = 24 rounds to 29, leaving two rounds to simulate.
	checkRun(t, d, st, FFStats{RoundsSimulated: 7, RoundsFastForwarded: 24, Jumps: 1})
	var want []float64
	for len(want) < 24 {
		want = append(want, shifts[0], shifts[1], shifts[2]) // boundaries 3, 4, 5
	}
	if !reflect.DeepEqual(d.k.advances, want) {
		t.Fatalf("advances %v, want the cycle's shifts in chronological order %v", d.k.advances, want)
	}
}

// TestFFControllerRingClears: a boundary that is not quiescent, or at
// which a rank has run ahead, breaks the chain of boundaries, so the
// period must be proven again from the boundaries after it.
func TestFFControllerRingClears(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(k *fakeKernel)
	}{
		{"flow", func(k *fakeKernel) { k.flows = 1 }},
		{"message", func(k *fakeKernel) { k.msgs = 1 }},
		{"event", func(k *fakeKernel) { k.real = 2 }},
	} {
		t.Run("busy-"+tc.name, func(t *testing.T) {
			d := newFFDriver(t, 20)
			st := d.run(func(b int) ffStep {
				d.k.flows, d.k.msgs, d.k.real = 0, 0, 1
				if b == 1 {
					tc.set(d.k)
				}
				return ffStep{wake: 0.5, shift: 1}
			})
			// Boundary 1 clears the ring holding boundary 0, so the
			// jump waits for boundaries 2 and 3: 16 rounds, not 17.
			checkRun(t, d, st, FFStats{RoundsSimulated: 4, RoundsFastForwarded: 16, Jumps: 1})
		})
	}

	t.Run("ran-ahead", func(t *testing.T) {
		d := newFFDriver(t, 20)
		step := func(int) ffStep { return ffStep{wake: 0.5, shift: 1} }
		d.round(step) // boundary 0: clean, into the ring
		// Rank 0 passes boundary 1 and reaches boundary 2 before rank 1
		// reaches boundary 1.
		d.arrive(0)
		d.rc.ParkUntil(0, 1.5)
		d.body(0)
		d.arrive(0)
		d.rc.ParkUntil(0, 1.5)
		d.k.shift = 1
		d.arrive(1) // sees rank 0 ahead: no snapshot, ring cleared
		d.rc.ParkUntil(1, 0)
		d.rc.Woke(1)
		d.done[1]++
		d.arrive(1) // boundary 2: clean, ring holds it alone
		d.rc.ParkUntil(1, 0)
		d.body(0)
		d.body(1)
		d.rounds += 2
		st := d.run(step)
		checkRun(t, d, st, FFStats{RoundsSimulated: 4, RoundsFastForwarded: 16, Jumps: 1})
	})
}

// TestFFControllerMaxPeriod: an orbit of ffMaxPeriod boundaries is
// still detected, and a longer one never is.
func TestFFControllerMaxPeriod(t *testing.T) {
	d := newFFDriver(t, 60)
	// Boundaries 0..15 hold the orbit twice; boundary 15 jumps
	// ((60-1-15)/8)*8 = 40 rounds.
	checkRun(t, d, d.run(cycle(ffMaxPeriod)), FFStats{RoundsSimulated: 20, RoundsFastForwarded: 40, Jumps: 1})

	d = newFFDriver(t, 60)
	checkRun(t, d, d.run(cycle(ffMaxPeriod+1)), FFStats{RoundsSimulated: 60})
}

// TestFFControllerFinalIterationSimulated: the last iteration always
// runs, so a proven period with no whole cycle before it skips nothing,
// and one short of a whole cycle skips one round less.
func TestFFControllerFinalIterationSimulated(t *testing.T) {
	d := newFFDriver(t, 2)
	checkRun(t, d, d.run(cycle(1)), FFStats{RoundsSimulated: 2})

	d = newFFDriver(t, 3)
	checkRun(t, d, d.run(cycle(1)), FFStats{RoundsSimulated: 2, RoundsFastForwarded: 1, Jumps: 1})

	// Period 2 proven at boundary 3 with 5 rounds left: two cycles fit
	// before the final iteration.
	d = newFFDriver(t, 9)
	checkRun(t, d, d.run(cycle(2)), FFStats{RoundsSimulated: 5, RoundsFastForwarded: 4, Jumps: 1})
}

// TestFFControllerCallOrder pins the kernel calls of a snapshot, which
// the analytic engine's tape recording depends on: the three in-flight
// counts, Rebase, one Sub per parked rank in rank order, the closing
// Zero, and signature compares that check the rank before BitsEq and
// stop at the first mismatch.
func TestFFControllerCallOrder(t *testing.T) {
	k := &fakeKernel{real: 2}
	ctl := NewFFController[float64](k, 3, true, nil)
	rc := ctl.Join(0, 0, 0, 10)
	ctl.Join(1, 0, 0, 10)
	ctl.Join(2, 0, 0, 10)
	done := [3]int{}
	// boundary parks ranks 0 and 2, rank 2 first unless swap is set,
	// with rank 0 waking at wake0 and rank 2 at 1.25, and lets rank 1
	// take the snapshot with a shift of 1.
	boundary := func(wake0 float64, swap bool) []string {
		order := []int{2, 0}
		if swap {
			order = []int{0, 2}
		}
		for _, r := range order {
			done[r] = rc.Boundary(r, done[r])
			if r == 0 {
				rc.ParkUntil(0, wake0)
			} else {
				rc.ParkUntil(2, 1.25)
			}
		}
		k.shift, k.log = 1, nil
		done[1] = rc.Boundary(1, done[1])
		rc.ParkUntil(1, 0)
		for r := range done {
			rc.Woke(r)
			done[r]++
		}
		return k.log
	}
	snap := func(wake0 float64) []string {
		return []string{"flows", "msgs", "real", "rebase", fmt.Sprintf("sub(%g)", wake0), "sub(1.25)", "zero"}
	}
	for i, tc := range []struct {
		wake0 float64
		swap  bool
		want  []string
	}{
		// The first snapshot has nothing to compare with.
		{1.5, false, snap(1.5)},
		// Rank 2 leads both signatures and its offset matches; rank
		// 0's differs, so the compare stops there.
		{1.75, false, append(snap(1.75), "bitseq", "bitseq")},
		// Rank 0 leads this signature: the ranks differ, so no offset
		// is compared.
		{1.75, true, snap(1.75)},
		// Against the swapped boundary the ranks differ again; against
		// the one before it every entry matches, but the period-2
		// check then meets the swapped boundary and stops.
		{1.75, false, append(snap(1.75), "bitseq", "bitseq", "bitseq")},
		// Every entry matches the previous boundary: period 1, and
		// the remaining 10-1-4 = 5 rounds but the last are skipped at
		// once.
		{1.75, false, append(snap(1.75), "bitseq", "bitseq", "bitseq", "advance(1,5)")},
	} {
		if got := boundary(tc.wake0, tc.swap); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("boundary %d: calls %v, want %v", i, got, tc.want)
		}
	}
	if st := ctl.Stats(); st.Jumps != 1 {
		t.Fatalf("stats %+v, want one jump", st)
	}
}
