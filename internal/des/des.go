// Package des provides a deterministic discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and an event queue ordered by
// (time, sequence). Plain callback events are scheduled with Schedule.
// Blocking activities are modelled by Process: each process is a
// coroutine (iter.Pull) that the kernel switches into when its
// activation event fires and that switches back when it blocks, so
// one process or the driver runs at a time, in event order.
// Simulations are therefore fully deterministic and race-free
// regardless of GOMAXPROCS. A panic in a process body is re-raised on
// the driver, the goroutine running the kernel.
//
// # Direct resume
//
// A process that sleeps until a time strictly earlier than every
// queued event, and within the bound of the running loop, would be the
// very next event the driver pops. Sleep and SleepUntil then skip the
// round trip: the process takes the activation's sequence number,
// moves the clock and carries on, saving a push, a pop and two
// coroutine switches. Nothing else can run in between, so the event
// order, every timestamp and the sequence numbers are exactly those of
// the parked path. Step and a non-nil Trace hook always park, so they
// still see every event. Events and DirectResumes count the work.
//
// # Virtual time and epochs
//
// The clock is split into an epoch base and an in-epoch offset:
// AbsNow() = Base() + Now(). All scheduling arithmetic happens on the
// offset, and unless Rebase is ever called the base stays zero and
// Now() behaves exactly like an absolute clock. Rebase folds the
// current offset into the base and shifts every pending event, which
// keeps in-epoch magnitudes small: two simulation stretches that are
// identical up to a time translation then compute bit-identical
// offsets regardless of how much virtual time precedes them. The
// replay fast-forward engine leans on this — a steady-state round
// re-simulated from a rebased boundary reproduces the exact float64s
// of the previous round, so skipped rounds can be costed in closed
// form (AdvanceBase) without losing bit equality.
package des

import (
	"fmt"
	"iter"
	"math"
)

// event is a scheduled occurrence. Events are stored by value in the
// queue slice: pushing never allocates once the slice has warmed up,
// unlike the previous container/heap queue which boxed a *event per
// Schedule call.
//
// Exactly one of proc, fn and aux is set. An activation carries the
// process to hand the token to instead of a closure, which keeps the
// hot Sleep/wakeup path allocation-free. An auxiliary event is a
// callback its creator guarantees is a no-op once its own state has
// moved on (e.g. a superseded flow-completion estimate); it is called
// with its own sequence number, by which a callback bound once tells
// the live event from superseded ones, and it is excluded from
// PendingReal so quiescence checks can ignore it. The layout stays at
// five words: sift-downs move whole events.
type event struct {
	time float64
	seq  uint64
	proc *Process     // activation
	fn   func()       // plain callback
	aux  func(uint64) // auxiliary callback, called with seq
}

// eventQueue is a slice-backed 4-ary min-heap ordered by (time, seq).
// The wider fan-out halves the tree depth of the binary heap, trading
// slightly more comparisons per sift-down for far fewer cache-missing
// levels — a consistent win for the DES pop-push workload where most
// inserted events are near-future.
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int { return len(q.a) }

// eventLess is the queue's total order: (time, seq). Equal-time
// events fire in schedule order — the determinism guarantee the
// fast-forward bit-identity rests on. Small enough to inline.
func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e event) {
	q.a = append(q.a, e)
	a := q.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if eventLess(a[p], a[i]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release the closure/process reference; the slot stays pooled in cap
	a = a[:n]
	q.a = a
	// Sift the relocated tail element down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		m := first
		for c := first + 1; c < last; c++ {
			if eventLess(a[c], a[m]) {
				m = c
			}
		}
		if eventLess(a[i], a[m]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// reheap re-establishes the heap invariant over the whole slice
// (Floyd's bottom-up heapify) after an operation that may have
// perturbed relative order, such as a uniform time shift whose
// rounding collapses distinct times into ties.
func (q *eventQueue) reheap() {
	a := q.a
	n := len(a)
	for i := (n - 2) / 4; i >= 0; i-- {
		for j := i; ; {
			first := 4*j + 1
			if first >= n {
				break
			}
			last := first + 4
			if last > n {
				last = n
			}
			m := first
			for c := first + 1; c < last; c++ {
				if eventLess(a[c], a[m]) {
					m = c
				}
			}
			if eventLess(a[j], a[m]) {
				break
			}
			a[j], a[m] = a[m], a[j]
			j = m
		}
	}
}

// Simulation is a discrete-event simulator. The zero value is not
// usable; create one with New.
type Simulation struct {
	now     float64 // offset within the current epoch
	base    float64 // accumulated epoch base; AbsNow = base + now
	seq     uint64
	queue   eventQueue
	aux     int // pending auxiliary events
	running bool
	// resumeMax is the latest wakeup a sleeping process may take by
	// direct resume: the running loop's bound (RunUntil's limit, or
	// the largest float64 below RunWindow's). Outside a loop it is
	// unused: direct resume also requires running.
	resumeMax float64
	// events counts the events executed since the last Reset, popped
	// or directly resumed; direct counts the direct resumes.
	events, direct int64
	// live counts processes that have been started and not yet finished.
	live  int
	procs []*Process // every spawned process, for Shutdown teardown
	hooks []func(shift float64)
	// Trace, when non-nil, receives a line per executed event (debug aid).
	Trace func(t float64, what string)
}

// New returns an empty simulation whose clock starts at 0.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time within the epoch, in seconds.
// Without Rebase calls the base is zero and this is the absolute
// virtual time.
func (s *Simulation) Now() float64 { return s.now }

// Base returns the accumulated epoch base (zero unless Rebase or
// AdvanceBase was used).
func (s *Simulation) Base() float64 { return s.base }

// AbsNow returns the absolute virtual time: Base() + Now().
func (s *Simulation) AbsNow() float64 { return s.base + s.now }

// Schedule registers fn to run at Now()+delay. A negative delay is an
// error and panics: events cannot run in the past.
func (s *Simulation) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: Schedule with invalid delay %v at t=%v", delay, s.now))
	}
	s.seq++
	s.queue.push(event{time: s.now + delay, seq: s.seq, fn: fn})
}

// ScheduleAt registers fn to run at the absolute in-epoch time t
// (>= Now()). The event fires at exactly t: it is enqueued directly
// rather than via Schedule(t-Now()), whose now+(t-now) round trip can
// land one ulp off t and would break SleepUntil's bit-identical
// guarantee.
func (s *Simulation) ScheduleAt(t float64, fn func()) {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: ScheduleAt %v before now %v", t, s.now))
	}
	s.seq++
	s.queue.push(event{time: t, seq: s.seq, fn: fn})
}

// ScheduleAux registers an auxiliary callback at Now()+delay: one the
// caller guarantees is a no-op whenever its creator's state has been
// superseded by the time it fires (flow-completion estimates are the
// canonical case). It returns the event's sequence number, and fn
// receives that number when the event fires, so a creator that keeps
// rescheduling one callback, bound once, can tell its live event from
// superseded ones without allocating a closure per event. Aux events
// execute normally but are excluded from PendingReal, so quiescence
// checks can ignore stale ones still queued.
func (s *Simulation) ScheduleAux(delay float64, fn func(seq uint64)) uint64 {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: ScheduleAux with invalid delay %v at t=%v", delay, s.now))
	}
	s.seq++
	s.queue.push(event{time: s.now + delay, seq: s.seq, aux: fn})
	s.aux++
	return s.seq
}

// DiscardAux removes every pending auxiliary event without running
// it and returns the number removed. Auxiliary events are by contract
// no-ops once their creator's state has been superseded (see
// ScheduleAux); a layer that knows all of its pending aux events are
// stale — the network when its last flow completes — can drop them
// wholesale instead of paying a pop and a dispatch per event, plus a
// time shift per event on every intervening Rebase. The caller must
// own every aux event in the simulation: the queue does not track who
// scheduled what.
func (s *Simulation) DiscardAux() int {
	if s.aux == 0 {
		return 0
	}
	a := s.queue.a
	keep := a[:0]
	for _, e := range a {
		if e.aux != nil {
			continue
		}
		keep = append(keep, e)
	}
	dropped := len(a) - len(keep)
	// Zero the tail so dropped closures are collectable.
	for i := len(keep); i < len(a); i++ {
		a[i] = event{}
	}
	s.queue.a = keep
	s.queue.reheap()
	s.aux = 0
	return dropped
}

// scheduleActivate registers a token handoff to p at Now()+delay
// without allocating a closure.
func (s *Simulation) scheduleActivate(delay float64, p *Process) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: activation with invalid delay %v at t=%v", delay, s.now))
	}
	s.seq++
	s.queue.push(event{time: s.now + delay, seq: s.seq, proc: p})
}

// Pending reports the number of queued events, auxiliary ones
// included.
func (s *Simulation) Pending() int { return s.queue.len() }

// PendingReal reports the number of queued non-auxiliary events —
// the ones that can still change simulation state.
func (s *Simulation) PendingReal() int { return s.queue.len() - s.aux }

// Live reports the number of started-but-unfinished processes.
func (s *Simulation) Live() int { return s.live }

// Events reports the events executed since New or the last Reset:
// every popped event, auxiliary ones included, plus every direct
// resume. Direct resume replaces exactly one pop, so the count is the
// same with or without it.
func (s *Simulation) Events() int64 { return s.events }

// DirectResumes reports how many of Events were direct resumes.
func (s *Simulation) DirectResumes() int64 { return s.direct }

// next pops the head event and accounts for it.
func (s *Simulation) next() event {
	e := s.queue.pop()
	if e.aux != nil {
		s.aux--
	}
	if e.time < s.now {
		panic("des: time went backwards")
	}
	s.now = e.time
	s.events++
	return e
}

// dispatch executes one popped event.
func (s *Simulation) dispatch(e event) {
	switch {
	case e.proc != nil:
		s.activate(e.proc)
	case e.aux != nil:
		e.aux(e.seq)
	default:
		e.fn()
	}
}

// Run executes events until the queue is empty, then returns the final
// virtual time. Processes that are still parked when the queue drains
// are considered deadlocked; Run panics listing them.
func (s *Simulation) Run() float64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= limit and returns the clock.
// Events scheduled beyond the limit remain queued. The limit is an
// in-epoch offset.
func (s *Simulation) RunUntil(limit float64) float64 {
	if s.running {
		panic("des: nested Run")
	}
	s.running = true
	s.resumeMax = limit
	defer func() { s.running = false }()
	for s.queue.len() > 0 {
		if s.queue.a[0].time > limit {
			s.now = limit
			return s.now
		}
		e := s.next()
		if s.Trace != nil {
			s.Trace(s.now, "event")
		}
		s.dispatch(e)
	}
	if s.live > 0 {
		panic(fmt.Sprintf("des: deadlock: %d process(es) parked with empty event queue at t=%v", s.live, s.now))
	}
	return s.now
}

// RunWindow executes events with time strictly below limit and
// returns the number executed, direct resumes included. It is the
// driving primitive of partitioned (multi-kernel) simulation: unlike
// Run, an empty queue with live processes is not a deadlock — the
// missing wakeups arrive later as cross-partition injections scheduled
// at or after the window boundary (conservative synchronization
// guarantees no injection ever lands inside a window already
// simulated). The clock is left at the last executed event, never
// advanced to the limit, so the final Now() of a partitioned run is
// the time of its last real event, exactly as in a monolithic run.
func (s *Simulation) RunWindow(limit float64) int {
	if s.running {
		panic("des: nested Run")
	}
	s.running = true
	s.resumeMax = math.Nextafter(limit, math.Inf(-1))
	defer func() { s.running = false }()
	start := s.events
	for s.queue.len() > 0 && s.queue.a[0].time < limit {
		e := s.next()
		if s.Trace != nil {
			s.Trace(s.now, "event")
		}
		s.dispatch(e)
	}
	return int(s.events - start)
}

// PeekTime returns the time of the earliest pending event, if any.
// Window drivers use it to skip empty stretches: when every partition
// agrees nothing happens before t, the next window can open at t
// instead of grinding through vacant lookahead steps.
func (s *Simulation) PeekTime() (float64, bool) {
	if s.queue.len() == 0 {
		return 0, false
	}
	return s.queue.a[0].time, true
}

// Reset rewinds the clock, epoch base, event sequence and work
// counters to zero so the simulation can host another run whose
// timings are bit-identical to a fresh kernel's (replaying at a large
// clock offset changes float64 rounding). It refuses to reset a busy
// kernel: all events must have drained and all processes finished.
// Rebase hooks survive a reset; finished process handles are
// released.
func (s *Simulation) Reset() error {
	if s.running {
		return fmt.Errorf("des: Reset during Run")
	}
	if s.queue.len() > 0 {
		return fmt.Errorf("des: Reset with %d pending event(s)", s.queue.len())
	}
	if s.live > 0 {
		return fmt.Errorf("des: Reset with %d live process(es)", s.live)
	}
	s.now = 0
	s.base = 0
	s.seq = 0
	s.events, s.direct = 0, 0
	s.procs = s.procs[:0]
	return nil
}

// Step executes exactly one event, if any, and reports whether one ran.
// A process never resumes directly under Step: each of its wakeups is
// a step of its own.
func (s *Simulation) Step() bool {
	if s.queue.len() == 0 {
		return false
	}
	s.dispatch(s.next())
	return true
}

// ---------------------------------------------------------------------------
// Epoch control: Rebase / AdvanceTo / AdvanceBase

// Rebase folds the current in-epoch offset into the epoch base:
// Base() grows by the returned shift, Now() becomes zero, and every
// pending event's time drops by the same shift. AbsNow() is
// unchanged, but all subsequent in-epoch arithmetic happens near
// zero — which is what makes translated re-runs of identical activity
// bit-reproducible. The uniform subtraction is monotone but not
// strictly order-preserving: rounding can collapse two distinct times
// into a tie whose (time, seq) order disagrees with the old heap
// layout, so the queue is re-heapified to keep the schedule-order
// guarantee for equal-time events. Registered OnRebase hooks observe
// the shift so layers holding in-epoch timestamps (e.g. the network's
// last-update mark) can adjust.
func (s *Simulation) Rebase() float64 {
	shift := s.now
	if shift == 0 {
		return 0
	}
	s.base += shift
	s.now = 0
	a := s.queue.a
	for i := range a {
		a[i].time -= shift
	}
	s.queue.reheap()
	for _, h := range s.hooks {
		h(shift)
	}
	return shift
}

// OnRebase registers a hook invoked by Rebase with the applied shift.
// Layers that cache in-epoch timestamps register one at construction.
func (s *Simulation) OnRebase(h func(shift float64)) {
	s.hooks = append(s.hooks, h)
}

// AdvanceTo moves the in-epoch clock forward to t without executing
// anything — the bulk alternative to draining timer events one at a
// time when the caller knows nothing happens before t (the netsim
// idle-skip follow-on in ROADMAP.md; the fast-forward engine itself
// jumps across whole rounds via Rebase + AdvanceBase instead, since
// its pending wakeups must stay put). It panics if an event is
// pending before t (skipping it would corrupt causality).
func (s *Simulation) AdvanceTo(t float64) {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: AdvanceTo %v before now %v", t, s.now))
	}
	if s.queue.len() > 0 && s.queue.a[0].time < t {
		panic(fmt.Sprintf("des: AdvanceTo %v past pending event at %v", t, s.queue.a[0].time))
	}
	s.now = t
}

// AdvanceBase adds delta to the epoch base `rounds` times by iterated
// addition. This is the closed-form jump of the fast-forward engine:
// simulating one steady-state round ends in a Rebase that grows the
// base by exactly delta, so skipping m rounds must perform the same
// m float64 additions — iterated, not multiplied — to land on the
// bit-identical base a full simulation would reach.
func (s *Simulation) AdvanceBase(delta float64, rounds int) {
	if delta < 0 || math.IsNaN(delta) {
		panic(fmt.Sprintf("des: AdvanceBase with invalid delta %v", delta))
	}
	for i := 0; i < rounds; i++ {
		s.base += delta
	}
}

// ---------------------------------------------------------------------------
// Processes

// Process is a simulated activity run as a coroutine of the driver —
// the goroutine calling Run, RunUntil, RunWindow or Step. Its body only
// runs from an activation event to its next blocking call: every
// blocking primitive (Sleep, Cond.Wait, Queue.Get, Barrier.Arrive)
// parks the body and switches straight back to the driver, and the
// next activation switches straight back in, without a trip through
// the goroutine scheduler. A sleep whose wakeup is the driver's next
// event does not switch at all (see "Direct resume" above). Exactly
// one of the driver and the simulation's processes runs at any moment,
// so bodies share kernel state without locks.
type Process struct {
	sim   *Simulation
	name  string
	next  func() (struct{}, bool) // run the body until it parks (true) or returns (false)
	yield func(struct{}) bool     // park the body; false once stop has been called
	stop  func()                  // unwind a parked body, or discard an unstarted one
	done  bool
}

// killedSentinel is the panic value that unwinds a parked process
// body torn down by Shutdown.
type killedSentinel struct{}

// Spawn creates a process executing body and schedules its start after
// delay seconds. body receives the process handle for blocking calls.
// The body runs as an iter.Pull coroutine; a panic in it ends the
// process and is re-raised on the driver as
// "des: process <name> panicked: <value>", so the caller of Run can
// recover it like any other kernel panic and then Shutdown the rest.
func (s *Simulation) Spawn(name string, delay float64, body func(p *Process)) *Process {
	p := &Process{sim: s, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedSentinel); ok {
					return
				}
				panic(fmt.Sprintf("des: process %q panicked: %v", p.name, r))
			}
		}()
		body(p)
	})
	s.live++
	s.procs = append(s.procs, p)
	s.scheduleActivate(delay, p)
	return p
}

// activate switches to p and returns when it parks or finishes.
func (s *Simulation) activate(p *Process) {
	if p.done {
		return
	}
	if _, ok := p.next(); !ok {
		p.done = true
		s.live--
	}
}

// park switches back to the driver until the process is reactivated.
func (p *Process) park() {
	if !p.yield(struct{}{}) {
		panic(killedSentinel{})
	}
}

// Shutdown tears down every live process: a parked body is unwound
// from its blocking call (deferred calls run, the rest of the body
// does not), and a never-activated one is discarded without running.
// Pending events are dropped and the kernel is left resettable. It is
// the cleanup path for a simulation abandoned mid-run (a stalled
// replay, or one whose process panicked), where each parked coroutine
// would otherwise hold a goroutine for the lifetime of the program.
func (s *Simulation) Shutdown() {
	if s.running {
		panic("des: Shutdown during Run")
	}
	for _, p := range s.procs {
		if !p.done {
			p.stop()
			p.done = true
		}
	}
	s.procs = s.procs[:0]
	s.queue.a = s.queue.a[:0]
	s.aux = 0
	s.live = 0
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Sim returns the owning simulation.
func (p *Process) Sim() *Simulation { return p.sim }

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.sim.now }

// Sleep suspends the process for d seconds of virtual time.
func (p *Process) Sleep(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("des: Sleep with invalid duration %v", d))
	}
	p.sleepUntil(p.sim.now + d)
}

// SleepUntil suspends the process until the absolute virtual time t
// (>= Now()). It is the single-event form of a sleep whose end time
// was computed elsewhere: replay uses it to aggregate a long run of
// identical compute records into one wakeup at the exact instant the
// individual sleeps would have reached.
func (p *Process) SleepUntil(t float64) {
	if t < p.sim.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: SleepUntil %v before now %v", t, p.sim.now))
	}
	p.sleepUntil(t)
}

// sleepUntil wakes the process at t, by direct resume when the wakeup
// would be the driver's very next event (see the package comment), by
// a queued activation otherwise. A wakeup tied with the queue head
// parks: the queued event was scheduled first and runs first.
func (p *Process) sleepUntil(t float64) {
	s := p.sim
	if s.running && s.Trace == nil && t <= s.resumeMax &&
		(s.queue.len() == 0 || t < s.queue.a[0].time) {
		s.seq++
		s.now = t
		s.events++
		s.direct++
		return
	}
	s.seq++
	s.queue.push(event{time: t, seq: s.seq, proc: p})
	p.park()
}

// Cond is a single-waiter wakeup slot: a process waits on it and any
// event callback may signal it. It is the building block for mailboxes,
// semaphores and barriers in higher layers.
type Cond struct {
	sim     *Simulation
	waiter  *Process
	pending bool // signal arrived before anyone waited
}

// NewCond returns a condition bound to the simulation.
func (s *Simulation) NewCond() *Cond { return &Cond{sim: s} }

// Wait parks the process until Signal is called. If a signal is already
// pending, it is consumed and Wait returns immediately (still yielding
// once to preserve determinism is unnecessary: no time passes).
func (c *Cond) Wait(p *Process) {
	if c.pending {
		c.pending = false
		return
	}
	if c.waiter != nil {
		panic("des: Cond has two waiters")
	}
	c.waiter = p
	p.park()
}

// Signal wakes the waiting process (as a scheduled event at the current
// time), or records a pending signal if none waits yet.
func (c *Cond) Signal() {
	if c.waiter == nil {
		c.pending = true
		return
	}
	w := c.waiter
	c.waiter = nil
	c.sim.scheduleActivate(0, w)
}

// Waiting reports whether a process is parked on the cond.
func (c *Cond) Waiting() bool { return c.waiter != nil }

// ---------------------------------------------------------------------------
// Queue: a FIFO with blocking receive, usable from process context.

// Queue is an unbounded FIFO of interface values with a single blocked
// reader at a time (multiple readers are served in arrival order).
type Queue struct {
	sim     *Simulation
	items   fifo[interface{}]
	readers fifo[*Process]
}

// NewQueue returns an empty queue bound to the simulation.
func (s *Simulation) NewQueue() *Queue { return &Queue{sim: s} }

// Put appends v and wakes the oldest waiting reader, if any. Put is
// safe to call from event callbacks and from process context.
func (q *Queue) Put(v interface{}) {
	q.items.push(v)
	if q.readers.len() > 0 {
		q.sim.scheduleActivate(0, q.readers.pop())
	}
}

// Get removes and returns the head item, parking the process while the
// queue is empty.
func (q *Queue) Get(p *Process) interface{} {
	for q.items.len() == 0 {
		q.readers.push(p)
		p.park()
	}
	return q.items.pop()
}

// TryGet removes the head item without blocking; ok reports success.
func (q *Queue) TryGet() (v interface{}, ok bool) {
	if q.items.len() == 0 {
		return nil, false
	}
	return q.items.pop(), true
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.items.len() }

// fifo is a slice-backed FIFO that keeps its backing array: pop
// advances a head index (re-slicing past the head would strand the
// front capacity, so every append after a drain would reallocate),
// and a drained fifo rewinds to the array's start. A fifo that never
// drains slides its live tail to the front when the array is full and
// at least half of it is dead, so its memory stays proportional to
// its peak length.
type fifo[T any] struct {
	a    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.a) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.a) == cap(f.a) && f.head > 0 && 2*f.head >= len(f.a) {
		n := copy(f.a, f.a[f.head:])
		clear(f.a[n:])
		f.a, f.head = f.a[:n], 0
	}
	f.a = append(f.a, v)
}

func (f *fifo[T]) pop() T {
	v := f.a[f.head]
	var zero T
	f.a[f.head] = zero // release the reference; the slot stays in cap
	f.head++
	if f.head == len(f.a) {
		f.a, f.head = f.a[:0], 0
	}
	return v
}

// ---------------------------------------------------------------------------
// Barrier: N-party synchronization usable from process context.

// Barrier blocks processes until n of them have arrived.
type Barrier struct {
	sim     *Simulation
	n       int
	waiting []*Process
	// generation increments each time the barrier opens; used only for
	// introspection in tests.
	generation int
}

// NewBarrier returns a barrier for n parties.
func (s *Simulation) NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("des: barrier size must be >= 1")
	}
	return &Barrier{sim: s, n: n}
}

// Arrive blocks until n processes have arrived, then releases them all
// in arrival order.
func (b *Barrier) Arrive(p *Process) {
	if b.n == 1 {
		b.generation++
		return
	}
	if len(b.waiting)+1 == b.n {
		// Last arrival: release everyone, in arrival order.
		waiters := b.waiting
		b.waiting = nil
		b.generation++
		for _, w := range waiters {
			b.sim.scheduleActivate(0, w)
		}
		return
	}
	b.waiting = append(b.waiting, p)
	p.park()
}

// Generation returns how many times the barrier has opened.
func (b *Barrier) Generation() int { return b.generation }
