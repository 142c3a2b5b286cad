// The actor layer: the p2pdc submitter/worker/watchdog processes of
// p2pdc.Environment.Run and the p2psap channel protocol re-expressed
// as resumable state machines over gengine.go's event loop, driving
// replay's fast-forward controller (replay.FFController) at the
// managed loops' boundaries. Each DES process becomes an actor id;
// each park point becomes a state-machine phase; every scheduling call
// happens in the same order with the same operands as the DES
// original, which keeps event sequence numbers — and therefore
// tie-breaks and every float — in lockstep.
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
type gwframe[V comparable] struct {
	ops  []gop[V]
	idx  int
	rem  int
	mrc  *replay.RepeatCtl[V]
	mop  gop[V]
	done int
	mst  uint8 // 0 at boundary, 1 lead sleeping, 2 body rest running
}

// gworker is one rank's actor: the p2pdc worker process plus replay's
// op executor (opsExec), flattened into resumable state.
type gworker[V comparable, A arith[V]] struct {
	ev    *gev[V, A]
	rank  int
	host  string
	ops   []gop[V]
	phase int

	frames []gwframe[V]

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
	w.frames = append(w.frames[:0], gwframe[V]{ops: w.ops, rem: 1})
}

func (w *gworker[V, A]) maybeJoin(op gop[V]) *replay.RepeatCtl[V] {
	if !gManageable(op) {
		return nil
	}
	return w.ev.ctl.Join(w.rank, w.convs, w.bars, op.count)
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
				f.done = f.mrc.Boundary(w.rank, f.done)
				if f.done >= f.mop.count {
					f.mrc.Leave()
					w.frames = w.frames[:fi]
					continue
				}
				lead := f.mop.body[0]
				t := ev.computeDeadline(ev.now, lead.ns, lead.count)
				f.mrc.ParkUntil(w.rank, t)
				f.mst = 1
				ev.scheduleResumeAt(t, w.rank)
				return true
			case 1: // lead compute finished
				f.mrc.Woke(w.rank)
				f.mst = 2
				body := f.mop.body
				w.frames = append(w.frames, gwframe[V]{ops: body[1:], rem: 1})
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
				w.frames = append(w.frames, gwframe[V]{mrc: rc, mop: op})
				continue
			}
		}
		w.frames = append(w.frames, gwframe[V]{ops: op.body, rem: op.count})
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
// Entry point

// runGeneric validates and runs one evaluation.
func runGeneric[V comparable, A arith[V]](ar A, m *gmodel[V], sp *gspec[V]) (*gresult[V], error) {
	ev, err := newGev[V, A](ar, m, sp)
	if err != nil {
		return nil, err
	}
	return ev.run()
}
