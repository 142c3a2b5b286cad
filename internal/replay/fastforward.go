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
package replay

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/p2pdc"
	"repro/internal/platform"
	"repro/internal/trace"
)

// FFMode selects the steady-state fast-forward behaviour of a replay.
type FFMode int

const (
	// FFOff replays every record through the legacy path: no epoch
	// rebasing, timings bit-identical to prior releases.
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
	// PeriodCacheHits counts jumps replayed from a shared PeriodCache
	// entry instead of re-derived from the boundary ring.
	PeriodCacheHits int64
}

// PeriodCache shares detected steady-state periods across the replays
// of a sweep. Entries are keyed by the full replay identity
// (Spec.PeriodKey, built by the caller from platform, scheme, rank
// count, deployment bytes and source identity) plus the managed
// loop's alignment key, so a hit can only occur for a replay whose
// simulation dynamics are bit-identical to the one that stored the
// entry. A hit therefore replays the exact jump decision the original
// replay proved — same boundary, same period, same epoch shifts — and
// by construction never changes when a replay jumps or what it
// predicts: results and round statistics are identical with a cold or
// a warm cache. What a hit saves is the detector's work: the boundary
// that jumped needs one signature comparison against the cached entry
// instead of a period scan over the snapshot ring.
//
// The cache is safe for concurrent use; Sweep shares one across its
// workers. The first writer wins, and because any two writers for the
// same key computed the entry from identical dynamics, the content is
// deterministic regardless of scheduling.
type PeriodCache struct {
	mu sync.Mutex
	m  map[periodCacheKey]*periodCacheEntry
}

type periodCacheKey struct {
	spec string
	rep  ffRepKey
}

// periodCacheEntry is one proven jump decision: at canonical
// iteration `done` with boundary signature `sig`, the loop jumped
// with the given period and cycle shifts (in application order).
type periodCacheEntry struct {
	// src and plat pin the objects the key names by address: while the
	// entry lives, no other source or platform can take those
	// addresses and match it.
	src    trace.Source
	plat   *platform.Platform
	done   int
	period int
	sig    []ffSigEntry
	shifts []float64
}

// NewPeriodCache returns an empty shared period cache.
func NewPeriodCache() *PeriodCache {
	return &PeriodCache{m: make(map[periodCacheKey]*periodCacheEntry)}
}

// Len reports the number of cached loop entries.
func (c *PeriodCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *PeriodCache) lookup(k periodCacheKey) *periodCacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

func (c *PeriodCache) store(k periodCacheKey, e *periodCacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		c.m[k] = e
	}
}

// FFMinIterations is the smallest Repeat count worth managing: below
// it the boundary bookkeeping costs more than a jump could save. It is
// exported because the analytic prediction tier (internal/analytic)
// applies the identical qualification rule; the two engines must agree
// on which loops are managed or their round accounting diverges.
const FFMinIterations = 4

// FFMaxPeriod bounds the steady-state period the detector looks for.
// A fixed point is period 1, but the rebased round map can also
// converge to a short exact limit cycle — the obstacle replay settles
// into a period-3 orbit whose boundary offsets wobble by a couple of
// ulps and then repeat bit-for-bit — so the detector matches cycles
// up to this length (confirmed over two full periods before jumping).
// Exported for the analytic tier, which runs the same detector.
const FFMaxPeriod = 8

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

// ffController coordinates fast-forward across the ranks of one
// replay. It is driven synchronously from rank processes (the DES
// kernel single-threads them), so it needs no locking.
type ffController struct {
	env   *p2pdc.Environment
	jump  bool // FFOn: skipping allowed
	n     int  // ranks in the replay
	reps  map[ffRepKey]*repeatCtl
	stats FFStats
	// cache/specKey plug the shared cross-replay period cache in; a
	// nil cache (or empty key) disables it. specKey names the source
	// and platform by address, so the entries this replay stores pin
	// both.
	cache   *PeriodCache
	specKey string
	src     trace.Source
	plat    *platform.Platform
	// dbg receives boundary-rejection and jump diagnostics when
	// non-nil (Spec.Debug). Observational only: it can never reach a
	// prediction.
	dbg io.Writer
}

// ffRepKey identifies "the same loop" across ranks: the collectives a
// rank completed before entering it (collectives are globally
// ordered, so equal counts mean the same program point) plus the
// iteration count.
type ffRepKey struct {
	convs, bars int64
	count       int
}

func newFFController(env *p2pdc.Environment, spec Spec, src trace.Source) *ffController {
	cache := spec.Periods
	if spec.PeriodKey == "" {
		cache = nil
	}
	return &ffController{
		env:     env,
		jump:    spec.FastForward == FFOn,
		n:       src.Ranks(),
		reps:    make(map[ffRepKey]*repeatCtl),
		cache:   cache,
		specKey: spec.PeriodKey,
		src:     src,
		plat:    spec.Platform,
		dbg:     spec.Debug,
	}
}

// ffSigEntry is one rank's contribution to a boundary signature.
type ffSigEntry struct {
	rank int
	wake uint64 // float64 bits of the parked wakeup's in-epoch offset
}

// ffRankState is one rank's controller-visible state within a managed
// Repeat.
type ffRankState struct {
	joined   bool
	done     int // canonical iterations completed
	seenSkip int // rc.cumSkip already folded into done
	parked   bool
	wake     float64 // in-epoch wakeup offset while parked
	parkSeq  uint64  // global order of the park, for signature ordering
}

// ffBoundary is one clean boundary snapshot: the signature plus the
// epoch shift the preceding round produced.
type ffBoundary struct {
	sig   []ffSigEntry
	shift float64
}

// repeatCtl tracks one aligned Repeat loop.
type repeatCtl struct {
	ctl         *ffController
	key         ffRepKey
	count       int
	members     int
	st          []ffRankState
	parkCounter uint64
	// ring holds the snapshots of consecutive clean boundaries,
	// oldest first, capped at 2*FFMaxPeriod. Any boundary that fails
	// a snapshot condition clears it: period detection is only sound
	// over an unbroken run of boundaries.
	ring    []ffBoundary
	sigBuf  []ffSigEntry // scratch for building the current signature
	cumSkip int
	counted bool
}

// join registers a rank entering a qualifying Repeat. It returns nil
// when the rank cannot participate (it already ran a loop with this
// key — an alignment anomaly better replayed plainly).
func (c *ffController) join(rank int, key ffRepKey) *repeatCtl {
	rc := c.reps[key]
	if rc == nil {
		rc = &repeatCtl{ctl: c, key: key, count: key.count, st: make([]ffRankState, c.n)}
		c.reps[key] = rc
	}
	if rc.st[rank].joined {
		return nil
	}
	rc.st[rank].joined = true
	rc.members++
	return rc
}

// parkUntil records that a rank is about to sleep until the in-epoch
// time t (its round's leading compute).
func (rc *repeatCtl) parkUntil(rank int, t float64) {
	st := &rc.st[rank]
	st.parked = true
	st.wake = t
	rc.parkCounter++
	st.parkSeq = rc.parkCounter
}

// woke records that the rank's leading compute finished.
func (rc *repeatCtl) woke(rank int) { rc.st[rank].parked = false }

// leave records a rank finishing the loop; the first leaver commits
// the loop's round accounting to the controller stats.
func (rc *repeatCtl) leave() {
	if rc.counted {
		return
	}
	rc.counted = true
	rc.ctl.stats.RoundsSimulated += int64(rc.count - rc.cumSkip)
	rc.ctl.stats.RoundsFastForwarded += int64(rc.cumSkip)
}

// boundary is called by a rank that has completed `done` iterations
// and is about to start the next one. It folds any skip the rank has
// not yet observed into the canonical count, and — when this rank is
// the last to reach the boundary — attempts a steady-state snapshot:
// rebase the kernel epoch, fingerprint the boundary, and on a repeat
// fingerprint jump the remaining rounds. The returned value is the
// rank's canonical completed-iteration count.
func (rc *repeatCtl) boundary(rank, done int) int {
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
	// the invariant that a valid prevSig is always the immediately
	// preceding boundary's snapshot (a period-1 comparison; anything
	// else would make the jump unsound).
	if rc.members != rc.ctl.n {
		return done
	}
	for r := range rc.st {
		if rc.st[r].done < done {
			return done // not the last arrival
		}
		if rc.st[r].done > done {
			if dbg := rc.ctl.dbg; dbg != nil {
				fmt.Fprintf(dbg, "ff: boundary %d: rank %d ran ahead (%d)\n", done, r, rc.st[r].done)
			}
			rc.ring = rc.ring[:0] // a rank ran ahead: no clean boundary
			return done
		}
		if r != rank && !rc.st[r].parked {
			if dbg := rc.ctl.dbg; dbg != nil {
				fmt.Fprintf(dbg, "ff: boundary %d: rank %d not parked\n", done, r)
			}
			rc.ring = rc.ring[:0] // a leading compute already finished
			return done
		}
	}
	env := rc.ctl.env
	// Quiescence: the parked wakeups must be the complete simulation
	// state. Anything else in flight — active flows, undelivered
	// mailbox messages, pending non-auxiliary events beyond the n-1
	// wakeups — makes this boundary unfit as a period snapshot.
	if env.Net.ActiveFlows() != 0 ||
		env.Post.PendingMessages() != 0 ||
		env.Sim.PendingReal() != rc.ctl.n-1 {
		if dbg := rc.ctl.dbg; dbg != nil {
			fmt.Fprintf(dbg, "ff: boundary %d: not quiescent: flows=%d msgs=%d pendingReal=%d want %d\n",
				done, env.Net.ActiveFlows(), env.Post.PendingMessages(), env.Sim.PendingReal(), rc.ctl.n-1)
		}
		rc.ring = rc.ring[:0]
		return done
	}

	// Clean boundary: fold the elapsed round into the epoch base.
	// Pending wakeup offsets shift by the same amount; mirror that in
	// the tracked wake times (same operands, same float op — the bits
	// stay in lockstep with the queue).
	shift := env.Sim.Rebase()
	for r := range rc.st {
		if rc.st[r].parked {
			rc.st[r].wake -= shift
		}
	}

	// Signature: the parked (rank, wake-offset) pairs in park order —
	// order matters, it fixes the relative event sequence of the next
	// round — closed by the reporting rank.
	sig := rc.sigBuf[:0]
	for r := range rc.st {
		if rc.st[r].parked {
			sig = append(sig, ffSigEntry{rank: r, wake: math.Float64bits(rc.st[r].wake)})
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
	sig = append(sig, ffSigEntry{rank: rank, wake: 0})
	rc.sigBuf = sig
	rc.push(sig, shift)

	// Periodic steady state: the rebased boundary state repeats with
	// period p (confirmed over two full cycles), so the remaining
	// rounds replay the cycle verbatim: round j advances the epoch
	// base by the cycle's j-th shift and returns to the next cycle
	// state. Skipping a multiple of p rounds therefore lands on this
	// exact boundary state with the base advanced by the same iterated
	// additions the simulated rounds would have performed. The last
	// iteration is always simulated so the loop exits through ordinary
	// control flow.
	//
	// The shared period cache is consulted first: an entry can only
	// match a replay with bit-identical dynamics (the key covers the
	// full replay identity), at the exact boundary the original replay
	// jumped from, with the exact signature it jumped on — so a hit
	// replays the proven decision the ring scan below would re-derive,
	// and results are identical either way.
	if rc.ctl.jump {
		if e := rc.ctl.cache.lookup(rc.cacheKey()); e != nil && e.done == done && ffSigsEqual(e.sig, sig) {
			if jumped := rc.jumpRounds(st, done, e.period, e.shifts); jumped > done {
				rc.ctl.stats.PeriodCacheHits++
				return jumped
			}
		}
		if p := rc.period(); p > 0 {
			cycle := rc.ring[len(rc.ring)-p:]
			shifts := make([]float64, p)
			for j := range cycle {
				shifts[j] = cycle[j].shift
			}
			if jumped := rc.jumpRounds(st, done, p, shifts); jumped > done {
				rc.ctl.cache.store(rc.cacheKey(), &periodCacheEntry{
					src:    rc.ctl.src,
					plat:   rc.ctl.plat,
					done:   done,
					period: p,
					sig:    append([]ffSigEntry(nil), sig...),
					shifts: shifts,
				})
				return jumped
			}
		}
	}
	return done
}

// cacheKey identifies this loop in the shared period cache.
func (rc *repeatCtl) cacheKey() periodCacheKey {
	return periodCacheKey{spec: rc.ctl.specKey, rep: rc.key}
}

// jumpRounds skips the largest multiple of the period that leaves the
// final iteration simulated, advancing the epoch base by the cycle's
// shifts in chronological order. It returns the new canonical done
// count (unchanged if no whole period fits).
func (rc *repeatCtl) jumpRounds(st *ffRankState, done, p int, shifts []float64) int {
	m := ((rc.count - 1 - done) / p) * p
	if m <= 0 {
		return done
	}
	env := rc.ctl.env
	if p == 1 {
		env.Sim.AdvanceBase(shifts[0], m)
	} else {
		// The cycle's shifts must accumulate in chronological order —
		// float64 addition does not commute across different addends.
		for j := 0; j < m; j++ {
			env.Sim.AdvanceBase(shifts[j%p], 1)
		}
	}
	rc.cumSkip += m
	st.seenSkip = rc.cumSkip
	done += m
	st.done = done
	rc.ctl.stats.Jumps++
	rc.ring = rc.ring[:0]
	if dbg := rc.ctl.dbg; dbg != nil {
		fmt.Fprintf(dbg, "ff: boundary %d: jumped %d rounds (period %d)\n", done-m, m, p)
	}
	return done
}

// push appends a clean boundary snapshot to the ring, evicting the
// oldest entry beyond 2*FFMaxPeriod. The signature is copied into the
// entry's retained buffer.
func (rc *repeatCtl) push(sig []ffSigEntry, shift float64) {
	var entry ffBoundary
	if len(rc.ring) == 2*FFMaxPeriod {
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
func (rc *repeatCtl) period() int {
	for p := 1; p <= FFMaxPeriod; p++ {
		if 2*p > len(rc.ring) {
			return 0
		}
		last := len(rc.ring) - 1
		match := true
		for j := 0; j < p; j++ {
			if !ffSigsEqual(rc.ring[last-j].sig, rc.ring[last-p-j].sig) {
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

// ComputeDeadline accumulates the wakeup instant of n identical
// compute records of ns nanoseconds starting at now — by iterated
// addition, exactly as n individual sleeps would move the clock, so
// the single aggregated wakeup lands on the bit-identical instant.
// It is the one source of truth shared by the cursor path, the op
// executor and the managed-loop leading compute.
func ComputeDeadline(now, ns float64, n int) float64 {
	t := now
	d := ns / 1e9
	for i := 0; i < n; i++ {
		t += d
	}
	return t
}

func ffSigsEqual(a, b []ffSigEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Op-structured executor

// opsExec replays one rank's folded ops. Leaf execution mirrors the
// cursor-based path exactly (same primitives in the same order), so
// with the controller disengaged the op walk is just another spelling
// of the same simulation.
type opsExec struct {
	w           *p2pdc.Worker
	ctl         *ffController
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
func (ex *opsExec) maybeJoin(op trace.Op) *repeatCtl {
	if ex.ctl == nil || !Manageable(op) {
		return nil
	}
	return ex.ctl.join(ex.w.Rank(), ffRepKey{convs: ex.convs, bars: ex.bars, count: op.Count})
}

// repeat replays a managed Repeat through the boundary protocol.
func (ex *opsExec) repeat(rc *repeatCtl, op trace.Op) error {
	rank := ex.w.Rank()
	done := 0
	for done < op.Count {
		done = rc.boundary(rank, done)
		if done >= op.Count {
			break
		}
		if err := ex.runBody(rc, rank, op.Body); err != nil {
			return err
		}
		done++
	}
	rc.leave()
	return nil
}

// runBody executes one iteration of a managed Repeat body: the
// leading compute run becomes a single tracked wakeup (so the
// controller knows the rank's complete state while it sleeps), the
// rest replays normally.
func (ex *opsExec) runBody(rc *repeatCtl, rank int, body []trace.Op) error {
	lead := body[0]
	t := ComputeDeadline(ex.w.Now(), lead.Rec.NS, lead.Count)
	rc.parkUntil(rank, t)
	ex.w.SleepUntil(t)
	rc.woke(rank)
	return ex.run(body[1:], false)
}

// leaf replays one run-length op; the switch mirrors the cursor-based
// replay loop primitive for primitive.
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
