// The actor layer: the p2pdc submitter/worker/watchdog processes of
// p2pdc.Environment.Run and the p2psap channel protocol re-expressed
// as resumable state machines over gengine.go's event loop, plus
// replay's fast-forward boundary protocol (ffController). Each DES
// process becomes an actor id; each park point becomes a state-machine
// phase; every scheduling call happens in the same order with the
// same operands as the DES original, which keeps event sequence
// numbers — and therefore tie-breaks and every float — in lockstep.
package analytic

import (
	"repro/internal/replay"
	"repro/internal/trace"
)

// resumeActor hands the execution token to an actor, which runs until
// it parks or finishes — the analogue of des.Simulation.activate.
func (ev *gev[V, A]) resumeActor(id int) {
	switch {
	case id < ev.n:
		ev.workers[id].resume()
	case id == ev.n:
		ev.runSubmitter()
	default:
		ev.runWatchdog()
	}
}

// ---------------------------------------------------------------------------
// Submitter and watchdog

// runSubmitter mirrors the p2pdc submitter process: scatter the inputs
// with raw async sends, then block on the shared gather mailbox until
// every result arrived, then signal the watchdog.
func (ev *gev[V, A]) runSubmitter() {
	ar := ev.ar
	if ev.subPhase == 0 {
		if ar.Less(ev.zero, ev.scatterBytes) {
			for i := range ev.hosts {
				if err := ev.startFlow(ev.submitter, ev.hosts[i], ev.scatterBytes, &ev.scatterBox[i], -1); err != nil {
					ev.errs[i] = err
				}
			}
		}
		ev.subPhase = 1
	}
	if ar.Less(ev.zero, ev.gatherBytes) {
		for ev.subGot < ev.n {
			if !ev.tryGet(&ev.gatherBox, ev.n) {
				return // parked as the gather box's reader
			}
			ev.subGot++
		}
	}
	ev.signalGatherDone()
	ev.subPhase = 2
	ev.live--
}

// signalGatherDone mirrors gatherDoneCond.Signal.
func (ev *gev[V, A]) signalGatherDone() {
	if ev.wdPhase == 1 {
		ev.wdPhase = 2
		ev.scheduleResume(ev.zero, ev.n+1)
		return
	}
	ev.wdPending = true
}

// runWatchdog mirrors the watchdog process: one Cond.Wait.
func (ev *gev[V, A]) runWatchdog() {
	if ev.wdPhase == 0 {
		if ev.wdPending {
			ev.wdPending = false
			ev.wdPhase = 3
			ev.live--
			return
		}
		ev.wdPhase = 1 // parked on the cond
		return
	}
	ev.wdPhase = 3
	ev.live--
}

// ---------------------------------------------------------------------------
// Worker

// Worker phases.
const (
	wkInit = iota
	wkScatter
	wkBody
	wkGatherWait
	wkDone
)

// gwframe is one level of the op-tree walk. A frame either iterates an
// op list (`ops`: the current body, `rem` whole-list iterations left)
// or, when mrc is set, runs one managed Repeat through the boundary
// protocol (mop/done/mst).
type gwframe[V comparable, A arith[V]] struct {
	ops  []gop[V]
	idx  int
	rem  int
	mrc  *grepCtl[V, A]
	mop  gop[V]
	done int
	mst  uint8 // 0 at boundary, 1 lead sleeping, 2 body rest running
}

// gworker is one rank's actor: the p2pdc worker process plus replay's
// op-structured executor (opsExec), flattened into resumable state.
type gworker[V comparable, A arith[V]] struct {
	ev    *gev[V, A]
	rank  int
	host  string
	ops   []gop[V]
	phase int

	frames []gwframe[V, A]

	// Leaf execution state.
	leafOn bool
	leaf   gop[V]
	ci     int // completed leaf iterations
	lph    int // sub-phase within one iteration
	lj     int // rank-0 collective peer index

	convs, bars int64 // collectives completed (managed-loop keys)

	gatherWaiting bool
	gatherPending bool
	err           error
}

// resume runs the worker until it parks or finishes, mirroring the
// p2pdc worker process body.
func (w *gworker[V, A]) resume() {
	ev := w.ev
	ar := ev.ar
	for {
		switch w.phase {
		case wkInit:
			if ar.Less(ev.zero, ev.scatterBytes) {
				w.phase = wkScatter
				continue
			}
			w.beginBody()
			w.phase = wkBody
		case wkScatter:
			if !ev.tryGet(&ev.scatterBox[w.rank], w.rank) {
				return
			}
			w.beginBody()
			w.phase = wkBody
		case wkBody:
			if w.walk() {
				return
			}
			if w.err != nil {
				ev.errs[w.rank] = w.err
			}
			ev.workerTimes[w.rank] = ev.absNow()
			ev.computeDone++
			if t := ev.absNow(); ar.Less(ev.computeEnd, t) {
				ev.computeEnd = t
			}
			if ar.Less(ev.zero, ev.gatherBytes) {
				if err := ev.startFlow(w.host, ev.submitter, ev.gatherBytes, &ev.gatherBox, w.rank); err != nil {
					if ev.errs[w.rank] == nil {
						ev.errs[w.rank] = err
					}
					w.phase = wkDone
					ev.live--
					return
				}
				if w.gatherPending {
					w.gatherPending = false
					w.phase = wkDone
					ev.live--
					return
				}
				w.gatherWaiting = true
				w.phase = wkGatherWait
				return
			}
			w.phase = wkDone
			ev.live--
			return
		case wkGatherWait:
			w.phase = wkDone
			ev.live--
			return
		default:
			return
		}
	}
}

func (w *gworker[V, A]) beginBody() {
	ev := w.ev
	if t := ev.absNow(); ev.ar.Less(ev.scatterEnd, t) {
		ev.scatterEnd = t
	}
	w.frames = append(w.frames[:0], gwframe[V, A]{ops: w.ops, rem: 1})
}

func (w *gworker[V, A]) maybeJoin(op gop[V]) *grepCtl[V, A] {
	if !gManageable(op) {
		return nil
	}
	return w.ev.ctl.join(w.rank, arepKey{convs: w.convs, bars: w.bars, count: op.count})
}

// computeDeadline is replay.ComputeDeadline in the value domain:
// iterated addition of the per-iteration seconds, never one
// multiplication.
func (ev *gev[V, A]) computeDeadline(now V, ns V, count int) V {
	d := ev.ar.Div(ns, ev.cNS)
	t := now
	for i := 0; i < count; i++ {
		t = ev.ar.Add(t, d)
	}
	return t
}

func (w *gworker[V, A]) walk() bool {
	ev := w.ev
	for {
		if w.leafOn {
			if w.leafStep() {
				return true
			}
			if w.err != nil {
				w.frames = w.frames[:0]
				return false
			}
		}
		if len(w.frames) == 0 {
			return false
		}
		fi := len(w.frames) - 1
		f := &w.frames[fi]
		if f.mrc != nil {
			switch f.mst {
			case 0: // at an iteration boundary
				f.done = f.mrc.boundary(w.rank, f.done)
				if f.done >= f.mop.count {
					f.mrc.leave()
					w.frames = w.frames[:fi]
					continue
				}
				lead := f.mop.body[0]
				t := ev.computeDeadline(ev.now, lead.ns, lead.count)
				f.mrc.parkUntil(w.rank, t)
				f.mst = 1
				ev.scheduleResumeAt(t, w.rank)
				return true
			case 1: // lead compute finished
				f.mrc.woke(w.rank)
				f.mst = 2
				body := f.mop.body
				w.frames = append(w.frames, gwframe[V, A]{ops: body[1:], rem: 1})
				continue
			default: // 2: body rest finished
				f.done++
				f.mst = 0
				continue
			}
		}
		if f.idx >= len(f.ops) {
			f.rem--
			if f.rem > 0 {
				f.idx = 0
				continue
			}
			w.frames = w.frames[:fi]
			continue
		}
		op := f.ops[f.idx]
		f.idx++
		if op.count <= 0 {
			continue
		}
		if len(op.body) == 0 {
			w.startLeaf(op)
			continue
		}
		if fi == 0 {
			if rc := w.maybeJoin(op); rc != nil {
				w.frames = append(w.frames, gwframe[V, A]{mrc: rc, mop: op})
				continue
			}
		}
		w.frames = append(w.frames, gwframe[V, A]{ops: op.body, rem: op.count})
	}
}

func (w *gworker[V, A]) startLeaf(op gop[V]) {
	w.leafOn = true
	w.leaf = op
	w.ci = 0
	w.lph = 0
	w.lj = 1
}

func (w *gworker[V, A]) finishLeaf() {
	switch w.leaf.kind {
	case trace.KindConv:
		w.convs += int64(w.leaf.count)
	case trace.KindBarrier:
		w.bars += int64(w.leaf.count)
	}
	w.leafOn = false
}

func (w *gworker[V, A]) fail(err error) {
	w.err = err
	w.leafOn = false
}

func (w *gworker[V, A]) leafStep() bool {
	ev := w.ev
	ar := ev.ar
	r := w.leaf
	n := w.leaf.count
	switch r.kind {
	case trace.KindCompute:
		if w.lph == 0 {
			if n == 1 {
				ev.scheduleResume(ar.Div(r.ns, ev.cNS), w.rank)
			} else {
				ev.scheduleResumeAt(ev.computeDeadline(ev.now, r.ns, n), w.rank)
			}
			w.lph = 1
			return true
		}
		w.finishLeaf()
		return false

	case trace.KindSend:
		if err := ev.checkPeer(r.peer); err != nil {
			w.fail(err)
			return false
		}
		p, err := ev.profileFor(w.rank, r.peer)
		if err != nil {
			w.fail(err)
			return false
		}
		for {
			if w.lph == 0 {
				if ar.Less(ev.zero, p.send) {
					ev.scheduleResume(p.send, w.rank)
					w.lph = 1
					return true
				}
				w.lph = 1
			}
			wire := ar.Add(r.bytes, p.frame)
			if err := ev.startFlow(w.host, ev.hosts[r.peer], wire, ev.boxAt(false, r.peer, w.rank), -1); err != nil {
				w.fail(err)
				return false
			}
			w.ci++
			w.lph = 0
			if w.ci >= n {
				w.finishLeaf()
				return false
			}
		}

	case trace.KindRecv:
		if err := ev.checkPeer(r.peer); err != nil {
			w.fail(err)
			return false
		}
		p, err := ev.profileFor(w.rank, r.peer)
		if err != nil {
			w.fail(err)
			return false
		}
		for {
			if w.lph == 0 {
				if !ev.tryGet(ev.boxAt(false, w.rank, r.peer), w.rank) {
					return true
				}
				if ar.Less(ev.zero, p.recv) {
					ev.scheduleResume(p.recv, w.rank)
					w.lph = 1
					return true
				}
				w.lph = 1
			}
			w.ci++
			w.lph = 0
			if w.ci >= n {
				w.finishLeaf()
				return false
			}
		}

	case trace.KindConv, trace.KindBarrier:
		if ev.n == 1 {
			w.finishLeaf()
			return false
		}
		if w.rank != 0 {
			p, err := ev.profileFor(w.rank, 0)
			if err != nil {
				w.fail(err)
				return false
			}
			for {
				switch w.lph {
				case 0:
					if ar.Less(ev.zero, p.send) {
						ev.scheduleResume(p.send, w.rank)
						w.lph = 1
						return true
					}
					w.lph = 1
				case 1:
					wire := ar.Add(ev.cConv, p.frame)
					if err := ev.startFlow(w.host, ev.hosts[0], wire, ev.boxAt(true, 0, w.rank), -1); err != nil {
						w.fail(err)
						return false
					}
					w.lph = 2
				case 2:
					if !ev.tryGet(ev.boxAt(true, w.rank, 0), w.rank) {
						return true
					}
					if ar.Less(ev.zero, p.recv) {
						ev.scheduleResume(p.recv, w.rank)
						w.lph = 3
						return true
					}
					w.lph = 3
				default: // 3: one converge complete
					w.ci++
					w.lph = 0
					if w.ci >= n {
						w.finishLeaf()
						return false
					}
				}
			}
		}
		// Root: recvCtl(1..n-1) in rank order, then sendCtl(1..n-1).
		for {
			switch w.lph {
			case 0:
				if !ev.tryGet(ev.boxAt(true, 0, w.lj), w.rank) {
					return true
				}
				p, err := ev.profileFor(0, w.lj)
				if err != nil {
					w.fail(err)
					return false
				}
				if ar.Less(ev.zero, p.recv) {
					ev.scheduleResume(p.recv, w.rank)
					w.lph = 1
					return true
				}
				w.lph = 1
			case 1:
				w.lj++
				if w.lj < ev.n {
					w.lph = 0
					continue
				}
				w.lj = 1
				w.lph = 2
			case 2:
				p, err := ev.profileFor(0, w.lj)
				if err != nil {
					w.fail(err)
					return false
				}
				if ar.Less(ev.zero, p.send) {
					ev.scheduleResume(p.send, w.rank)
					w.lph = 3
					return true
				}
				w.lph = 3
			default: // 3: launch the broadcast flow to lj
				p, err := ev.profileFor(0, w.lj)
				if err != nil {
					w.fail(err)
					return false
				}
				wire := ar.Add(ev.cConv, p.frame)
				if err := ev.startFlow(w.host, ev.hosts[w.lj], wire, ev.boxAt(true, w.lj, 0), -1); err != nil {
					w.fail(err)
					return false
				}
				w.lj++
				if w.lj < ev.n {
					w.lph = 2
					continue
				}
				w.ci++
				w.lj = 1
				w.lph = 0
				if w.ci >= n {
					w.finishLeaf()
					return false
				}
			}
		}
	}
	w.finishLeaf()
	return false
}

// ---------------------------------------------------------------------------
// Fast-forward controller: replay's ffController with jumping always
// enabled (the analytic tier is the FFOn path by definition), minus
// the cross-replay period cache — certificates make it moot.

// arepKey mirrors replay.ffRepKey.
type arepKey struct {
	convs, bars int64
	count       int
}

// gSigEntry mirrors replay.ffSigEntry with the wake time kept in the
// value domain; signature equality compares wake bits through
// arith.BitsEq.
type gSigEntry[V comparable] struct {
	rank int
	wake V
}

// gRankState mirrors replay.ffRankState.
type gRankState[V comparable] struct {
	joined   bool
	done     int
	seenSkip int
	parked   bool
	wake     V
	parkSeq  uint64
}

// gBoundary mirrors replay.ffBoundary.
type gBoundary[V comparable] struct {
	sig   []gSigEntry[V]
	shift V
}

// gctl mirrors replay.ffController.
type gctl[V comparable, A arith[V]] struct {
	ev                         *gev[V, A]
	n                          int
	reps                       map[arepKey]*grepCtl[V, A]
	roundsSim, roundsFF, jumps int64
}

// grepCtl mirrors replay.repeatCtl.
type grepCtl[V comparable, A arith[V]] struct {
	ctl         *gctl[V, A]
	key         arepKey
	count       int
	members     int
	st          []gRankState[V]
	parkCounter uint64
	ring        []gBoundary[V]
	sigBuf      []gSigEntry[V]
	cumSkip     int
	counted     bool
}

func (c *gctl[V, A]) join(rank int, key arepKey) *grepCtl[V, A] {
	rc := c.reps[key]
	if rc == nil {
		rc = &grepCtl[V, A]{ctl: c, key: key, count: key.count, st: make([]gRankState[V], c.n)}
		c.reps[key] = rc
	}
	if rc.st[rank].joined {
		return nil
	}
	rc.st[rank].joined = true
	rc.members++
	return rc
}

func (rc *grepCtl[V, A]) parkUntil(rank int, t V) {
	st := &rc.st[rank]
	st.parked = true
	st.wake = t
	rc.parkCounter++
	st.parkSeq = rc.parkCounter
}

func (rc *grepCtl[V, A]) woke(rank int) { rc.st[rank].parked = false }

func (rc *grepCtl[V, A]) leave() {
	if rc.counted {
		return
	}
	rc.counted = true
	rc.ctl.roundsSim += int64(rc.count - rc.cumSkip)
	rc.ctl.roundsFF += int64(rc.cumSkip)
}

func (rc *grepCtl[V, A]) boundary(rank, done int) int {
	st := &rc.st[rank]
	done += rc.cumSkip - st.seenSkip
	st.seenSkip = rc.cumSkip
	st.done = done
	if done >= rc.count {
		return done
	}
	if rc.members != rc.ctl.n {
		return done
	}
	for r := range rc.st {
		if rc.st[r].done < done {
			return done // not the last arrival
		}
		if rc.st[r].done > done {
			rc.ring = rc.ring[:0]
			return done
		}
		if r != rank && !rc.st[r].parked {
			rc.ring = rc.ring[:0]
			return done
		}
	}
	ev := rc.ctl.ev
	if ev.flows != 0 || ev.pendingMsgs != 0 || ev.pendingReal() != rc.ctl.n-1 {
		rc.ring = rc.ring[:0]
		return done
	}

	shift := ev.rebase()
	for r := range rc.st {
		if rc.st[r].parked {
			rc.st[r].wake = ev.ar.Sub(rc.st[r].wake, shift)
		}
	}

	sig := rc.sigBuf[:0]
	for r := range rc.st {
		if rc.st[r].parked {
			sig = append(sig, gSigEntry[V]{rank: r, wake: rc.st[r].wake})
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
	sig = append(sig, gSigEntry[V]{rank: rank, wake: ev.ar.Const(0)})
	rc.sigBuf = sig
	rc.push(sig, shift)

	if p := rc.period(); p > 0 {
		cycle := rc.ring[len(rc.ring)-p:]
		shifts := make([]V, p)
		for j := range cycle {
			shifts[j] = cycle[j].shift
		}
		if jumped := rc.jumpRounds(st, done, p, shifts); jumped > done {
			return jumped
		}
	}
	return done
}

func (rc *grepCtl[V, A]) jumpRounds(st *gRankState[V], done, p int, shifts []V) int {
	m := ((rc.count - 1 - done) / p) * p
	if m <= 0 {
		return done
	}
	ev := rc.ctl.ev
	if p == 1 {
		ev.advanceBase(shifts[0], m)
	} else {
		for j := 0; j < m; j++ {
			ev.advanceBase(shifts[j%p], 1)
		}
	}
	rc.cumSkip += m
	st.seenSkip = rc.cumSkip
	done += m
	st.done = done
	rc.ctl.jumps++
	rc.ring = rc.ring[:0]
	return done
}

func (rc *grepCtl[V, A]) push(sig []gSigEntry[V], shift V) {
	var entry gBoundary[V]
	if len(rc.ring) == 2*replay.FFMaxPeriod {
		entry = rc.ring[0]
		copy(rc.ring, rc.ring[1:])
		rc.ring = rc.ring[:len(rc.ring)-1]
	}
	entry.sig = append(entry.sig[:0], sig...)
	entry.shift = shift
	rc.ring = append(rc.ring, entry)
}

func (rc *grepCtl[V, A]) period() int {
	for p := 1; p <= replay.FFMaxPeriod; p++ {
		if 2*p > len(rc.ring) {
			return 0
		}
		last := len(rc.ring) - 1
		match := true
		for j := 0; j < p; j++ {
			if !rc.gSigsEqual(rc.ring[last-j].sig, rc.ring[last-p-j].sig) {
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

// gSigsEqual mirrors replay.ffSigsEqual: rank identity, then wake-time
// *bits* (replay stores math.Float64bits; BitsEq is that comparison
// lifted into the value domain, and the guard a symbolic scan needs
// before trusting a recorded steady-state period).
func (rc *grepCtl[V, A]) gSigsEqual(a, b []gSigEntry[V]) bool {
	if len(a) != len(b) {
		return false
	}
	ar := rc.ctl.ev.ar
	for i := range a {
		if a[i].rank != b[i].rank {
			return false
		}
		if !ar.BitsEq(a[i].wake, b[i].wake) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Entry point

// runGeneric validates and runs one evaluation.
func runGeneric[V comparable, A arith[V]](ar A, m *gmodel[V], sp *gspec[V]) (*gresult[V], error) {
	ev, err := newGev[V, A](ar, m, sp)
	if err != nil {
		return nil, err
	}
	return ev.run()
}
