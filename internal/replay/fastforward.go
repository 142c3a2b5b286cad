// Steady-state fast-forward: closed-form costing of folded Repeat
// rounds.
//
// A folded trace makes loop structure explicit — `Repeat{Count:119}`
// of one exchange+convergence round — but plain replay still
// simulates all 119 iterations even when they are identical. The
// engine below detects when the simulation has entered a periodic
// steady state while replaying such a loop and advances the virtual
// clock over the remaining iterations in closed form, bit-identically
// to simulating each one.
//
// Bit identity is the hard part. Event times are float64s, and
// fl(t+c) − t is not constant in t: measured on the raw absolute
// clock, the per-round deltas of a perfectly periodic replay wobble
// in their low bits forever as t grows through different rounding
// neighbourhoods. No closed form can reproduce that wobble without
// simulating, so the engine instead runs the loop in the kernel's
// epoch-rebased time (des.Rebase): at every clean round boundary the
// in-epoch clock is folded into the epoch base and all pending event
// times shift near zero. Within-round arithmetic then only ever sees
// small in-epoch offsets — it is exactly translation invariant — so
// once the boundary snapshot (the "signature") repeats bit-for-bit,
// every remaining round is guaranteed to repeat it too, and skipping
// m rounds reduces to m iterated additions of the round period onto
// the epoch base (the same accumulation the simulated rounds would
// perform, matching SleepUntil's bit-identical aggregation of compute
// runs).
//
// A boundary qualifies as a snapshot only when the simulation state
// is fully described by the signature:
//
//   - all ranks sit at the same iteration boundary of the same
//     aligned Repeat (alignment is keyed by collectives completed —
//     conv/barrier counts synchronize ranks, so equal counts identify
//     the same source loop across ranks even when their op layouts
//     differ);
//   - every other rank is parked in its round's leading compute
//     sleep, so its entire state is one pending wakeup offset;
//   - the network is quiescent: no flows in flight, no undelivered
//     mailbox messages, and no pending kernel events besides the
//     parked wakeups (superseded flow-completion estimates are
//     auxiliary no-ops and are ignored — with no active flows every
//     one of them is guaranteed stale).
//
// Anything else — heterogeneous iterations, messages crossing round
// boundaries, contention from outside the loop, a rank that drifted —
// fails a check, breaks the signature chain, and the loop simply
// keeps simulating: fallback is the default, the fast path is the
// proven special case.
//
// The controller (FFController) sees the simulation only through
// FFKernel, so the analytic tier (internal/analytic) drives this same
// code over its own evaluator, and a fix to detection lands in both.
package replay

import (
	"fmt"
	"io"
	"math"

	"repro/internal/p2pdc"
	"repro/internal/trace"
)

// FFMode selects the steady-state fast-forward behaviour of a replay.
type FFMode int

const (
	// FFOff replays every round of every loop with no epoch rebasing:
	// timings bit-identical to prior releases.
	FFOff FFMode = iota
	// FFVerify runs the epoch-rebased round protocol but simulates
	// every iteration. It is the per-iteration reference that FFOn
	// must match bit for bit.
	FFVerify
	// FFOn runs the epoch-rebased round protocol and skips the
	// remaining iterations of a loop once its boundary signature
	// repeats.
	FFOn
)

func (m FFMode) String() string {
	switch m {
	case FFOff:
		return "off"
	case FFVerify:
		return "verify"
	case FFOn:
		return "on"
	}
	return "?"
}

// FFStats reports what the fast-forward engine did during one replay.
type FFStats struct {
	// RoundsSimulated counts iterations of managed Repeat loops that
	// were simulated event by event (including warm-up and the final
	// landing round of a jump).
	RoundsSimulated int64
	// RoundsFastForwarded counts iterations skipped in closed form.
	RoundsFastForwarded int64
	// Jumps counts steady-state detections that led to a skip.
	Jumps int64
}

// FFMinIterations is the smallest Repeat count worth managing: below
// it the boundary bookkeeping costs more than a jump could save. It is
// exported because the analytic prediction tier (internal/analytic)
// applies the identical qualification rule; the two engines must agree
// on which loops are managed or their round accounting diverges.
const FFMinIterations = 4

// ffMaxPeriod bounds the steady-state period the detector looks for.
// A fixed point is period 1, but the rebased round map can also
// converge to a short exact limit cycle — the obstacle replay settles
// into a period-3 orbit whose boundary offsets wobble by a couple of
// ulps and then repeat bit-for-bit — so the detector matches cycles
// up to this length (confirmed over two full periods before jumping).
const ffMaxPeriod = 8

// Manageable reports whether a folded op is a Repeat the steady-state
// engines manage when it appears at the top level of a rank's ops:
// enough iterations to pay for the boundary bookkeeping, a leading
// compute record (the parked state the boundary snapshot inspects),
// and at least one collective per iteration (collectives couple the
// ranks into a shared round and make the alignment key strictly
// increasing). It is the shared qualification rule of the DES
// fast-forward executor and the analytic tier's eligibility check.
func Manageable(op trace.Op) bool {
	if len(op.Body) == 0 || op.Count < FFMinIterations {
		return false
	}
	lead := op.Body[0]
	if len(lead.Body) != 0 || lead.Rec.Kind != trace.KindCompute {
		return false
	}
	convs, bars := trace.Collectives(op.Body)
	return convs+bars > 0
}

// FFKernel is the simulation an FFController steers. The DES replay
// implements it over p2pdc.Environment (desKernel, V = float64); the
// analytic engine implements it over its evaluator, where V is the
// engine's value type and every Sub and BitsEq may be recorded onto a
// symbolic tape. The controller therefore performs all time arithmetic
// through the kernel, in a fixed order: one Sub per parked rank in rank
// order after a Rebase, one Zero closing each signature, and signature
// compares that check the rank and then BitsEq, stopping at the first
// mismatch.
type FFKernel[V any] interface {
	// ActiveFlows, PendingMessages and PendingReal report what is in
	// flight: network flows, undelivered mailbox messages and pending
	// non-auxiliary events.
	ActiveFlows() int
	PendingMessages() int
	PendingReal() int
	// Rebase folds the in-epoch clock into the epoch base, shifting
	// every pending event by the same amount, and returns the shift
	// (des.Simulation.Rebase).
	Rebase() V
	// AdvanceBase adds delta to the epoch base rounds times, by
	// iterated addition (des.Simulation.AdvanceBase).
	AdvanceBase(delta V, rounds int)
	// Sub is a - b.
	Sub(a, b V) V
	// BitsEq is math.Float64bits(a) == math.Float64bits(b): signatures
	// repeat bit for bit, and -0 differs from +0.
	BitsEq(a, b V) bool
	// Zero is the constant 0.
	Zero() V
}

// desKernel is the DES replay's FFKernel: float64 time over the
// session's environment.
type desKernel struct{ env *p2pdc.Environment }

func (k desKernel) ActiveFlows() int                 { return k.env.Net.ActiveFlows() }
func (k desKernel) PendingMessages() int             { return k.env.Post.PendingMessages() }
func (k desKernel) PendingReal() int                 { return k.env.Sim.PendingReal() }
func (k desKernel) Rebase() float64                  { return k.env.Sim.Rebase() }
func (k desKernel) AdvanceBase(delta float64, n int) { k.env.Sim.AdvanceBase(delta, n) }
func (desKernel) Sub(a, b float64) float64           { return a - b }
func (desKernel) BitsEq(a, b float64) bool           { return math.Float64bits(a) == math.Float64bits(b) }
func (desKernel) Zero() float64                      { return 0 }

// FFController coordinates fast-forward across the ranks of one run.
// It is driven synchronously from the rank processes (the DES kernel,
// like the analytic engine's event loop, single-threads them), so it
// needs no locking.
type FFController[V any] struct {
	k     FFKernel[V]
	jump  bool // skipping allowed (FFOn); false simulates every round
	n     int  // ranks in the run
	reps  map[ffRepKey]*RepeatCtl[V]
	stats FFStats
	// dbg receives boundary-rejection and jump diagnostics when
	// non-nil (Spec.Debug). Observational only: it can never reach a
	// prediction.
	dbg io.Writer
}

// NewFFController returns a controller for a run of the given rank
// count over kernel k. With jump false it runs the boundary protocol
// but never skips (FFVerify); dbg may be nil.
func NewFFController[V any](k FFKernel[V], ranks int, jump bool, dbg io.Writer) *FFController[V] {
	return &FFController[V]{k: k, jump: jump, n: ranks, reps: make(map[ffRepKey]*RepeatCtl[V]), dbg: dbg}
}

// Stats reports the round accounting of the loops that have finished.
func (c *FFController[V]) Stats() FFStats { return c.stats }

// ffRepKey identifies "the same loop" across ranks: the collectives a
// rank completed before entering it (collectives are globally
// ordered, so equal counts mean the same program point) plus the
// iteration count.
type ffRepKey struct {
	convs, bars int64
	count       int
}

// ffSigEntry is one rank's contribution to a boundary signature.
type ffSigEntry[V any] struct {
	rank int
	wake V // the parked wakeup's in-epoch offset
}

// ffRankState is one rank's controller-visible state within a managed
// Repeat.
type ffRankState[V any] struct {
	joined   bool
	done     int // canonical iterations completed
	seenSkip int // rc.cumSkip already folded into done
	parked   bool
	wake     V      // in-epoch wakeup offset while parked
	parkSeq  uint64 // global order of the park, for signature ordering
}

// ffBoundary is one clean boundary snapshot: the signature plus the
// epoch shift the preceding round produced.
type ffBoundary[V any] struct {
	sig   []ffSigEntry[V]
	shift V
}

// RepeatCtl tracks one aligned Repeat loop.
type RepeatCtl[V any] struct {
	ctl         *FFController[V]
	count       int
	members     int
	st          []ffRankState[V]
	parkCounter uint64
	// ring holds the snapshots of consecutive clean boundaries,
	// oldest first, capped at 2*ffMaxPeriod. Any boundary that fails
	// a snapshot condition clears it: period detection is only sound
	// over an unbroken run of boundaries.
	ring    []ffBoundary[V]
	sigBuf  []ffSigEntry[V] // scratch for building the current signature
	cumSkip int
	counted bool
}

// Join registers a rank entering a qualifying Repeat of count
// iterations after completing convs convergences and bars barriers. It
// returns nil when the rank cannot participate (it already ran a loop
// with this key — an alignment anomaly better replayed plainly).
func (c *FFController[V]) Join(rank int, convs, bars int64, count int) *RepeatCtl[V] {
	key := ffRepKey{convs: convs, bars: bars, count: count}
	rc := c.reps[key]
	if rc == nil {
		rc = &RepeatCtl[V]{ctl: c, count: count, st: make([]ffRankState[V], c.n)}
		c.reps[key] = rc
	}
	if rc.st[rank].joined {
		return nil
	}
	rc.st[rank].joined = true
	rc.members++
	return rc
}

// ParkUntil records that a rank is about to sleep until the in-epoch
// time t (its round's leading compute).
func (rc *RepeatCtl[V]) ParkUntil(rank int, t V) {
	st := &rc.st[rank]
	st.parked = true
	st.wake = t
	rc.parkCounter++
	st.parkSeq = rc.parkCounter
}

// Woke records that the rank's leading compute finished.
func (rc *RepeatCtl[V]) Woke(rank int) { rc.st[rank].parked = false }

// Leave records a rank finishing the loop; the first leaver commits
// the loop's round accounting to the controller stats.
func (rc *RepeatCtl[V]) Leave() {
	if rc.counted {
		return
	}
	rc.counted = true
	rc.ctl.stats.RoundsSimulated += int64(rc.count - rc.cumSkip)
	rc.ctl.stats.RoundsFastForwarded += int64(rc.cumSkip)
}

// Boundary is called by a rank that has completed `done` iterations
// and is about to start the next one. It folds any skip the rank has
// not yet observed into the canonical count, and — when this rank is
// the last to reach the boundary — attempts a steady-state snapshot:
// rebase the kernel epoch, fingerprint the boundary, and on a repeat
// fingerprint jump the remaining rounds. The returned value is the
// rank's canonical completed-iteration count.
func (rc *RepeatCtl[V]) Boundary(rank, done int) int {
	st := &rc.st[rank]
	done += rc.cumSkip - st.seenSkip
	st.seenSkip = rc.cumSkip
	st.done = done
	if done >= rc.count {
		return done
	}

	// Snapshot only from the last rank to arrive at this boundary,
	// with every loop member present. A rank still behind (done-1)
	// means this caller is not the last arrival: return without
	// touching the signature chain — exactly one call per boundary
	// (the last) decides whether the chain extends or breaks, keeping
	// the invariant that the ring holds consecutive boundaries only
	// (anything else would make the jump unsound).
	c := rc.ctl
	if rc.members != c.n {
		return done
	}
	for r := range rc.st {
		if rc.st[r].done < done {
			return done // not the last arrival
		}
		if rc.st[r].done > done {
			if c.dbg != nil {
				fmt.Fprintf(c.dbg, "ff: boundary %d: rank %d ran ahead (%d)\n", done, r, rc.st[r].done)
			}
			rc.ring = rc.ring[:0] // a rank ran ahead: no clean boundary
			return done
		}
		if r != rank && !rc.st[r].parked {
			if c.dbg != nil {
				fmt.Fprintf(c.dbg, "ff: boundary %d: rank %d not parked\n", done, r)
			}
			rc.ring = rc.ring[:0] // a leading compute already finished
			return done
		}
	}
	k := c.k
	// Quiescence: the parked wakeups must be the complete simulation
	// state. Anything else in flight — active flows, undelivered
	// mailbox messages, pending non-auxiliary events beyond the n-1
	// wakeups — makes this boundary unfit as a period snapshot.
	if k.ActiveFlows() != 0 || k.PendingMessages() != 0 || k.PendingReal() != c.n-1 {
		if c.dbg != nil {
			fmt.Fprintf(c.dbg, "ff: boundary %d: not quiescent: flows=%d msgs=%d pendingReal=%d want %d\n",
				done, k.ActiveFlows(), k.PendingMessages(), k.PendingReal(), c.n-1)
		}
		rc.ring = rc.ring[:0]
		return done
	}

	// Clean boundary: fold the elapsed round into the epoch base.
	// Pending wakeup offsets shift by the same amount; mirror that in
	// the tracked wake times (same operands, same float op — the bits
	// stay in lockstep with the queue).
	shift := k.Rebase()
	for r := range rc.st {
		if rc.st[r].parked {
			rc.st[r].wake = k.Sub(rc.st[r].wake, shift)
		}
	}

	// Signature: the parked (rank, wake-offset) pairs in park order —
	// order matters, it fixes the relative event sequence of the next
	// round — closed by the reporting rank.
	sig := rc.sigBuf[:0]
	for r := range rc.st {
		if rc.st[r].parked {
			sig = append(sig, ffSigEntry[V]{rank: r, wake: rc.st[r].wake})
		}
	}
	for i := 1; i < len(sig); i++ {
		e := sig[i]
		j := i - 1
		for j >= 0 && rc.st[sig[j].rank].parkSeq > rc.st[e.rank].parkSeq {
			sig[j+1] = sig[j]
			j--
		}
		sig[j+1] = e
	}
	sig = append(sig, ffSigEntry[V]{rank: rank, wake: k.Zero()})
	rc.sigBuf = sig
	rc.push(sig, shift)

	// Periodic steady state: the rebased boundary state repeats with
	// period p (confirmed over two full cycles), so the remaining
	// rounds replay the cycle verbatim: round j advances the epoch
	// base by the cycle's j-th shift and returns to the next cycle
	// state. Skipping a multiple of p rounds therefore lands on this
	// exact boundary state with the base advanced by the same iterated
	// additions the simulated rounds would have performed.
	if c.jump {
		if p := rc.period(); p > 0 {
			return rc.jumpRounds(st, done, p)
		}
	}
	return done
}

// jumpRounds skips the largest multiple of the period p that leaves
// the final iteration simulated (so the loop exits through ordinary
// control flow), advancing the epoch base by the shifts of the ring's
// last p boundaries in chronological order. It returns the new
// canonical done count (unchanged if no whole period fits).
func (rc *RepeatCtl[V]) jumpRounds(st *ffRankState[V], done, p int) int {
	m := ((rc.count - 1 - done) / p) * p
	if m <= 0 {
		return done
	}
	c := rc.ctl
	cycle := rc.ring[len(rc.ring)-p:]
	if p == 1 {
		c.k.AdvanceBase(cycle[0].shift, m)
	} else {
		// The cycle's shifts must accumulate in chronological order —
		// float64 addition does not commute across different addends.
		for j := 0; j < m; j++ {
			c.k.AdvanceBase(cycle[j%p].shift, 1)
		}
	}
	rc.cumSkip += m
	st.seenSkip = rc.cumSkip
	done += m
	st.done = done
	c.stats.Jumps++
	rc.ring = rc.ring[:0]
	if c.dbg != nil {
		fmt.Fprintf(c.dbg, "ff: boundary %d: jumped %d rounds (period %d)\n", done-m, m, p)
	}
	return done
}

// push appends a clean boundary snapshot to the ring, evicting the
// oldest entry beyond 2*ffMaxPeriod. The signature is copied into the
// entry's retained buffer.
func (rc *RepeatCtl[V]) push(sig []ffSigEntry[V], shift V) {
	var entry ffBoundary[V]
	if len(rc.ring) == 2*ffMaxPeriod {
		entry = rc.ring[0]
		copy(rc.ring, rc.ring[1:])
		rc.ring = rc.ring[:len(rc.ring)-1]
	}
	entry.sig = append(entry.sig[:0], sig...)
	entry.shift = shift
	rc.ring = append(rc.ring, entry)
}

// period returns the smallest cycle length p such that the last 2p
// boundary signatures consist of the same p-signature cycle twice, or
// 0 if no such cycle is confirmed yet.
func (rc *RepeatCtl[V]) period() int {
	for p := 1; p <= ffMaxPeriod; p++ {
		if 2*p > len(rc.ring) {
			return 0
		}
		last := len(rc.ring) - 1
		match := true
		for j := 0; j < p; j++ {
			if !rc.sigsEqual(rc.ring[last-j].sig, rc.ring[last-p-j].sig) {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	return 0
}

// sigsEqual compares two signatures entry by entry: the rank, then the
// wake time's bits through the kernel (under tape recording, the guard
// a symbolic scan needs before trusting a recorded period).
func (rc *RepeatCtl[V]) sigsEqual(a, b []ffSigEntry[V]) bool {
	if len(a) != len(b) {
		return false
	}
	k := rc.ctl.k
	for i := range a {
		if a[i].rank != b[i].rank || !k.BitsEq(a[i].wake, b[i].wake) {
			return false
		}
	}
	return true
}

// ComputeDeadline accumulates the wakeup instant of n identical
// compute records of ns nanoseconds starting at now — by iterated
// addition, exactly as n individual sleeps would move the clock, so
// the single aggregated wakeup lands on the bit-identical instant.
// It is the one source of truth shared by the op executor's compute
// runs and the managed-loop leading compute.
func ComputeDeadline(now, ns float64, n int) float64 {
	t := now
	d := ns / 1e9
	for i := 0; i < n; i++ {
		t += d
	}
	return t
}

// ---------------------------------------------------------------------------
// Op executor

// opsApp replays each rank's folded ops from src; ctl, when non-nil,
// steers the managed loops (FFVerify, FFOn).
func opsApp(src trace.Source, ctl *FFController[float64]) p2pdc.App {
	return func(w *p2pdc.Worker) error {
		ex := &opsExec{w: w, ctl: ctl}
		return ex.run(src.RankOps(w.Rank()), true)
	}
}

// opsExec replays one rank's folded ops: the one replay loop of every
// engine and mode. With no controller it walks the ops plainly, every
// Repeat iterated in full.
type opsExec struct {
	w           *p2pdc.Worker
	ctl         *FFController[float64]
	convs, bars int64 // collectives completed by this rank so far
}

func (ex *opsExec) run(ops []trace.Op, top bool) error {
	for i := range ops {
		op := ops[i]
		if op.Count <= 0 {
			continue
		}
		if len(op.Body) == 0 {
			if err := ex.leaf(op); err != nil {
				return err
			}
			continue
		}
		if top {
			if rc := ex.maybeJoin(op); rc != nil {
				if err := ex.repeat(rc, op); err != nil {
					return err
				}
				continue
			}
		}
		for k := 0; k < op.Count; k++ {
			if err := ex.run(op.Body, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// maybeJoin checks whether a top-level Repeat qualifies for
// fast-forward management (the shared Manageable rule) and registers
// this rank with its controller.
func (ex *opsExec) maybeJoin(op trace.Op) *RepeatCtl[float64] {
	if ex.ctl == nil || !Manageable(op) {
		return nil
	}
	return ex.ctl.Join(ex.w.Rank(), ex.convs, ex.bars, op.Count)
}

// repeat replays a managed Repeat through the boundary protocol.
func (ex *opsExec) repeat(rc *RepeatCtl[float64], op trace.Op) error {
	rank := ex.w.Rank()
	done := 0
	for done < op.Count {
		done = rc.Boundary(rank, done)
		if done >= op.Count {
			break
		}
		if err := ex.runBody(rc, rank, op.Body); err != nil {
			return err
		}
		done++
	}
	rc.Leave()
	return nil
}

// runBody executes one iteration of a managed Repeat body: the
// leading compute run becomes a single tracked wakeup (so the
// controller knows the rank's complete state while it sleeps), the
// rest replays normally.
func (ex *opsExec) runBody(rc *RepeatCtl[float64], rank int, body []trace.Op) error {
	lead := body[0]
	t := ComputeDeadline(ex.w.Now(), lead.Rec.NS, lead.Count)
	rc.ParkUntil(rank, t)
	ex.w.SleepUntil(t)
	rc.Woke(rank)
	return ex.run(body[1:], false)
}

// leaf replays one run-length op.
func (ex *opsExec) leaf(op trace.Op) error {
	r := op.Rec
	n := op.Count
	switch r.Kind {
	case trace.KindCompute:
		if n == 1 {
			ex.w.Sleep(r.NS / 1e9)
			return nil
		}
		// Fast path: one kernel event for the whole run, at the
		// bit-identical deadline n individual sleeps would reach.
		ex.w.SleepUntil(ComputeDeadline(ex.w.Now(), r.NS, n))
	case trace.KindSend:
		for i := 0; i < n; i++ {
			if err := ex.w.Send(r.Peer, r.Bytes, nil); err != nil {
				return err
			}
		}
	case trace.KindRecv:
		for i := 0; i < n; i++ {
			if _, err := ex.w.Recv(r.Peer); err != nil {
				return err
			}
		}
	case trace.KindConv:
		for i := 0; i < n; i++ {
			if _, err := ex.w.ConvergeMax(0); err != nil {
				return err
			}
		}
		ex.convs += int64(n)
	case trace.KindBarrier:
		for i := 0; i < n; i++ {
			if err := ex.w.Barrier(); err != nil {
				return err
			}
		}
		ex.bars += int64(n)
	}
	return nil
}
