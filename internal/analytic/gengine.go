// The evaluation engine: the des kernel (des.Simulation) and the
// netsim fluid network (netsim.Network) re-expressed as one event loop
// over an abstract float type. Instantiated at float64 (f64.go) it is
// Model.Evaluate, bit-identical to fast-forward replay; instantiated
// at the tape recorder's symbolic values it becomes a *recording*
// evaluation: every float operation lands on a flat SSA tape over the
// free platform parameters and every parameter-dependent comparison is
// captured as a guard (tape.go).
//
// The event queue is the one structure that differs from des. Events
// are ordered by (time, seq), a strict total order with unique
// sequence numbers, so *any* correct priority queue yields the
// identical pop sequence; the queue's internal comparisons never feed
// arithmetic. des uses a heap; this engine keeps a sorted array with
// binary-search insertion, which performs far fewer comparisons per
// event — and under recording every comparison is a guard on the
// tape, so fewer comparisons mean shorter tapes and wider guard
// regions.
package analytic

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/p2pdc"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// arith is the abstract float64 of the generic engine. Every
// arithmetic operation and every comparison the evaluator performs on
// simulated quantities goes through it; the float64 instantiation
// (f64) compiles to the raw operations, the recording instantiation
// (*recorder, tape.go) additionally emits tape instructions and
// guards.
type arith[V comparable] interface {
	// Const injects a literal. Implementations intern constants, so
	// repeated injection of the same literal is cheap.
	Const(c float64) V
	// FromInt mirrors float64(n) for control-flow integers (flow
	// counts); n is region-constant under recording.
	FromInt(n int) V

	Add(a, b V) V
	Sub(a, b V) V
	Mul(a, b V) V
	Div(a, b V) V

	// Comparisons. Under recording each evaluation emits a guard
	// pinning the observed outcome (unless both operands are
	// constants, which fold).
	Less(a, b V) bool   // a < b
	LessEq(a, b V) bool // a <= b
	Eq(a, b V) bool     // a == b
	// Cmp is the three-way float comparison (-1: a < b, 0: a == b,
	// +1: otherwise, including unordered). Under recording it emits a
	// single guard per comparison where the Less/Eq pair the event
	// queue would otherwise perform emits two.
	Cmp(a, b V) int
	IsNaN(a V) bool
	IsInfPos(a V) bool // math.IsInf(a, 1)
	// BitsEq is math.Float64bits(a) == math.Float64bits(b) — the
	// steady-state signature comparison, which distinguishes -0/+0
	// where == does not.
	BitsEq(a, b V) bool

	// Float reads the concrete value (under recording: the value at
	// the record point). Used only for error messages and reports,
	// never to feed results back into the evaluation.
	Float(a V) float64
}

// gop is the generic mirror of trace.Op: the op tree with NS/Bytes
// lifted into the abstract value domain.
type gop[V comparable] struct {
	count int
	kind  trace.Kind
	peer  int
	ns    V
	bytes V
	body  []gop[V]
}

// convOps lifts a concrete op list into the value domain.
func convOps[V comparable, A arith[V]](ar A, ops []trace.Op) []gop[V] {
	out := make([]gop[V], len(ops))
	for i, op := range ops {
		out[i] = gop[V]{
			count: op.Count,
			kind:  op.Rec.Kind,
			peer:  op.Rec.Peer,
			ns:    ar.Const(op.Rec.NS),
			bytes: ar.Const(op.Rec.Bytes),
			body:  convOps[V](ar, op.Body),
		}
	}
	return out
}

// gManageable is replay.Manageable over the generic op tree: the
// qualification rule deciding which top-level Repeats run the
// steady-state boundary protocol. Structure only — no float reads.
func gManageable[V comparable](op gop[V]) bool {
	if len(op.body) == 0 || op.count < replay.FFMinIterations {
		return false
	}
	lead := op.body[0]
	if len(lead.body) != 0 || lead.kind != trace.KindCompute {
		return false
	}
	return gHasCollective(op.body)
}

// gHasCollective mirrors the convs+bars > 0 test of trace.Collectives
// (zero-count ops are skipped there exactly as here).
func gHasCollective[V comparable](ops []gop[V]) bool {
	for _, op := range ops {
		if op.count <= 0 {
			continue
		}
		if len(op.body) > 0 {
			if gHasCollective(op.body) {
				return true
			}
			continue
		}
		if op.kind == trace.KindConv || op.kind == trace.KindBarrier {
			return true
		}
	}
	return false
}

// galink mirrors netsim.Link: capacity plus a stable index into the
// per-evaluation rate-assignment scratch and the link's rank, its
// position in name order.
type galink[V comparable] struct {
	name      string
	bandwidth V
	idx       int
	rank      int
}

// garoute mirrors netsim.Route: the link sequence and the path latency
// accumulated in path order (float addition order matters for bit
// identity).
type garoute[V comparable] struct {
	links   []*galink[V]
	latency V
}

// gmodel is the platform-bound half of the engine: link records and a
// route cache whose latencies are summed edge by edge in path order,
// exactly as the realized network's RouteProvider does. Routing itself
// (the edge sequence) comes from platform.Path, which orders by hop
// count with latency only as a tie-break; families scanned
// symbolically must have value-independent routes (unique
// shortest-hop paths, as in the star and cluster topologies), which
// keeps the edge sequence a constant of the region.
type gmodel[V comparable] struct {
	plat  *platform.Platform
	edges []platform.Edge
	links map[string]*galink[V]
	nlink int

	// mu guards routes: a Model's gmodel serves concurrent evaluations
	// (sweep workers, dperfd requests).
	mu     sync.Mutex
	routes map[[2]string]*garoute[V]

	// latOver carries per-link latency overrides (symbolic scans bind
	// free latency parameters here); nil entries fall back to the
	// platform's concrete edge latency.
	latOver map[string]V
}

// newGModel builds the generic network model for a platform. bwOver
// and latOver override the named links' bandwidth and latency with
// abstract values (typically expressions over free parameters); every
// other link keeps its concrete platform value as a constant.
func newGModel[V comparable, A arith[V]](ar A, plat *platform.Platform, bwOver, latOver map[string]V) (*gmodel[V], error) {
	if plat == nil {
		return nil, fmt.Errorf("analytic: nil platform")
	}
	m := &gmodel[V]{
		plat:    plat,
		edges:   plat.Edges(),
		links:   make(map[string]*galink[V]),
		routes:  make(map[[2]string]*garoute[V]),
		latOver: latOver,
	}
	for _, e := range m.edges {
		if _, ok := m.links[e.LinkName]; ok {
			return nil, fmt.Errorf("analytic: duplicate link %q", e.LinkName)
		}
		bw, ok := bwOver[e.LinkName]
		if !ok {
			bw = ar.Const(e.Bandwidth)
		}
		m.links[e.LinkName] = &galink[V]{name: e.LinkName, bandwidth: bw, idx: m.nlink}
		m.nlink++
	}
	byName := make([]*galink[V], 0, m.nlink)
	for _, e := range m.edges {
		byName = append(byName, m.links[e.LinkName])
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
	for r, l := range byName {
		l.rank = r
	}
	for name := range bwOver {
		if _, ok := m.links[name]; !ok {
			return nil, fmt.Errorf("analytic: bandwidth override for unknown link %q", name)
		}
	}
	for name := range latOver {
		if _, ok := m.links[name]; !ok {
			return nil, fmt.Errorf("analytic: latency override for unknown link %q", name)
		}
	}
	return m, nil
}

// constAdder is the slice of arith the route builder needs; gmodel
// carries only V, so route takes the ops as an interface value (cold
// path — routes are cached).
type constAdder[V any] interface {
	Const(float64) V
	Add(a, b V) V
}

// route resolves and caches the directed route between two hosts,
// accumulating the path latency in path order.
func (m *gmodel[V]) route(ar constAdder[V], src, dst string) (*garoute[V], error) {
	key := [2]string{src, dst}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.routes[key]; ok {
		return r, nil
	}
	path, err := m.plat.Path(src, dst)
	if err != nil {
		return nil, fmt.Errorf("analytic: no route %s -> %s: %w", src, dst, err)
	}
	r := &garoute[V]{latency: ar.Const(0)}
	for _, ei := range path {
		e := &m.edges[ei]
		l := m.links[e.LinkName]
		if l == nil {
			return nil, fmt.Errorf("analytic: link %q not in model", e.LinkName)
		}
		r.links = append(r.links, l)
		lat, ok := m.latOver[e.LinkName]
		if !ok {
			lat = ar.Const(e.Latency)
		}
		r.latency = ar.Add(r.latency, lat)
	}
	m.routes[key] = r
	return r, nil
}

// gspec is the resolved input of one generic evaluation.
type gspec[V comparable] struct {
	hosts        []string
	submitter    string
	scatterBytes V
	gatherBytes  V
	ranks        [][]gop[V]
}

// gresult is Result with abstract values.
type gresult[V comparable] struct {
	predicted V
	scatter   V
	compute   V
	gather    V

	ff replay.FFStats
}

// gprof mirrors p2psap.Profile in the value domain. The fields are
// constants of the adapted profile; only the *selection* depends on
// path latency (adaptProfile), which is where the guard lands.
type gprof[V comparable] struct {
	frame V
	send  V
	recv  V
}

// Event kinds. gevResume replaces des process activation (an actor id
// instead of a process handle); gevActivate/gevLoopback are the two
// flow events netsim schedules with plain callbacks; gevAux is the
// epoch-guarded flow-completion estimate.
const (
	gevResume uint8 = iota
	gevActivate
	gevLoopback
	gevAux
)

type gaev[V comparable] struct {
	time  V
	seq   uint64
	kind  uint8
	id    int32
	flow  *gaflow[V]
	epoch uint64
}

// gaflow mirrors netsim.Flow, with the delivery callback replaced by
// the (box, gatherRank) pair every replay delivery reduces to: a
// mailbox put, optionally followed by a blocking-send completion
// signal to a worker (the gather path).
type gaflow[V comparable] struct {
	remaining  V
	rate       V
	route      *garoute[V]
	done       bool
	assigned   bool
	box        *gbox
	gatherRank int32 // worker whose blocking gather send this completes; -1 none
}

// glinkState is the per-link scratch of one progressive-filling epoch,
// indexed by galink.idx.
type glinkState[V comparable] struct {
	link     *galink[V]
	residual V
	nflows   int
	mark     uint64
}

// gbox mirrors a des.Queue used as a mailbox: payloads never influence
// timing, so items collapse to a count and readers to actor ids served
// in arrival order.
type gbox struct {
	items   int
	readers []int32
}

// gev is the complete state of one evaluation. It is single-use; the
// reusable, shareable part lives in gmodel.
type gev[V comparable, A arith[V]] struct {
	ar A
	m  *gmodel[V]

	n         int
	hosts     []string
	submitter string

	scatterBytes V
	gatherBytes  V

	// Interned constants of the kernel.
	zero      V
	cNS       V // 1e9
	cLoopback V // netsim loopback latency
	cQuantum  V // netsim completion quantum
	cRemEps   V // netsim remaining-epsilon
	cInf      V // +Inf
	cConv     V // convergence control payload bytes

	// Event queue: sorted descending by (time, seq) pop order, so the
	// next event sits at the back. See the file comment for why a
	// sorted array replaces des's heap.
	q    []gaev[V]
	seq  uint64
	now  V
	base V
	aux  int
	live int

	// Fluid network.
	flows       int // mirrors len(netsim.Network.flows)
	flowOrder   []*gaflow[V]
	lastUpdate  V
	epoch       uint64
	linkStates  []glinkState[V]
	activeLinks []*glinkState[V]
	finished    []*gaflow[V]
	flowPool    []*gaflow[V]
	rateMark    uint64

	// Mailboxes.
	pendingMsgs int
	scatterBox  []gbox
	gatherBox   gbox
	dataBox     []*gbox
	ctlBox      []*gbox
	pairProf    []*gprof[V]

	// p2pdc run bookkeeping (mirrors p2pdc.Environment.Run locals).
	scatterEnd  V
	computeEnd  V
	computeDone int
	workerTimes []V
	errs        []error

	// Actors. Ids: 0..n-1 workers, n submitter, n+1 watchdog.
	workers   []gworker[V, A]
	subPhase  int
	subGot    int
	wdPhase   int // 0 not activated, 1 parked on cond, 2 signaled, 3 done
	wdPending bool

	ctl *replay.FFController[V]
}

// newGev validates the spec against the model and builds the
// evaluator. The deployment bytes are held to trace.ValidQuantity, the
// rule the DES tier applies, through the arith so the recording
// instantiation guards them (constant bytes fold away).
func newGev[V comparable, A arith[V]](ar A, m *gmodel[V], sp *gspec[V]) (*gev[V, A], error) {
	n := len(sp.ranks)
	if n == 0 {
		return nil, fmt.Errorf("analytic: no traces")
	}
	if len(sp.hosts) != n {
		return nil, fmt.Errorf("analytic: %d hosts for %d traces", len(sp.hosts), n)
	}
	if nd := m.plat.Node(sp.submitter); nd == nil || nd.Router {
		return nil, fmt.Errorf("analytic: unknown submitter host %q", sp.submitter)
	}
	seen := make(map[string]bool, n)
	for _, h := range sp.hosts {
		if nd := m.plat.Node(h); nd == nil || nd.Router {
			return nil, fmt.Errorf("analytic: unknown host %q", h)
		}
		if seen[h] {
			return nil, fmt.Errorf("analytic: host %q used by two ranks; the analytic tier needs pairwise-distinct hosts", h)
		}
		seen[h] = true
	}
	zero := ar.Const(0)
	for _, b := range [2]struct {
		field string
		v     V
	}{{"ScatterBytes", sp.scatterBytes}, {"GatherBytes", sp.gatherBytes}} {
		if ar.Less(b.v, zero) || ar.IsNaN(b.v) || ar.IsInfPos(b.v) {
			return nil, fmt.Errorf("analytic: invalid %s %v (want finite and non-negative)", b.field, ar.Float(b.v))
		}
	}
	ev := &gev[V, A]{
		ar:           ar,
		m:            m,
		n:            n,
		hosts:        sp.hosts,
		submitter:    sp.submitter,
		scatterBytes: sp.scatterBytes,
		gatherBytes:  sp.gatherBytes,
		zero:         zero,
		cNS:          ar.Const(1e9),
		cLoopback:    ar.Const(netsim.LoopbackLatency),
		cQuantum:     ar.Const(netsim.TimeQuantum),
		cRemEps:      ar.Const(netsim.RemainingEpsilon),
		cInf:         ar.Const(math.Inf(1)),
		cConv:        ar.Const(p2pdc.ConvergeBytes),
		now:          zero,
		base:         zero,
		lastUpdate:   zero,
		scatterEnd:   zero,
		computeEnd:   zero,
		linkStates:   make([]glinkState[V], m.nlink),
		scatterBox:   make([]gbox, n),
		dataBox:      make([]*gbox, n*n),
		ctlBox:       make([]*gbox, n*n),
		pairProf:     make([]*gprof[V], n*n),
		workerTimes:  make([]V, n),
		errs:         make([]error, n),
		workers:      make([]gworker[V, A], n),
	}
	for i := range ev.workerTimes {
		ev.workerTimes[i] = zero
	}
	ev.ctl = replay.NewFFController[V](ev, n, true, nil)
	for i := range ev.workers {
		w := &ev.workers[i]
		w.ev = ev
		w.rank = i
		w.host = sp.hosts[i]
		w.ops = sp.ranks[i]
	}
	return ev, nil
}

// run seeds the three actor groups in p2pdc.Environment.Run's spawn
// order — submitter, then the workers in rank order, then the
// watchdog, all activating at t=0 — and drives the event loop to
// completion.
func (ev *gev[V, A]) run() (*gresult[V], error) {
	ev.live = ev.n + 2
	ev.scheduleResume(ev.zero, ev.n)
	for i := 0; i < ev.n; i++ {
		ev.scheduleResume(ev.zero, i)
	}
	ev.scheduleResume(ev.zero, ev.n+1)
	if err := ev.drive(); err != nil {
		return nil, err
	}
	if ev.computeDone != ev.n {
		return nil, fmt.Errorf("analytic: only %d of %d workers finished", ev.computeDone, ev.n)
	}
	if err := ev.firstErr(); err != nil {
		return nil, err
	}
	ar := ev.ar
	total := ev.absNow()
	res := &gresult[V]{
		predicted: total,
		scatter:   ev.scatterEnd,
		compute:   ar.Sub(ev.computeEnd, ev.scatterEnd),
		gather:    ar.Sub(total, ev.computeEnd),
		ff:        ev.ctl.Stats(),
	}
	if ar.Less(res.gather, ev.zero) {
		res.gather = ev.zero
	}
	return res, nil
}

func (ev *gev[V, A]) firstErr() error {
	for _, err := range ev.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Event queue

// popsBefore reports whether x pops before y in the (time, seq) total
// order. The time comparisons run through the arith (guards under
// recording); the seq tie-break is control-flow.
func (ev *gev[V, A]) popsBefore(x, y *gaev[V]) bool {
	switch ev.ar.Cmp(x.time, y.time) {
	case -1:
		return true
	case 1:
		return false
	}
	return x.seq < y.seq
}

// push schedules an event. The sequence counter advances exactly once
// per call, mirroring des.Simulation scheduling, which keeps event
// identity — and therefore every tie-break — in lockstep with the des
// kernel.
func (ev *gev[V, A]) push(e gaev[V]) {
	ev.seq++
	e.seq = ev.seq
	// Binary-search the insertion point: q is sorted descending by pop
	// order, so everything popping after e stays to its left.
	idx := sort.Search(len(ev.q), func(i int) bool {
		return !ev.popsBefore(&e, &ev.q[i])
	})
	ev.q = append(ev.q, gaev[V]{})
	copy(ev.q[idx+1:], ev.q[idx:])
	ev.q[idx] = e
}

// pop removes and returns the next event (the back of the array).
func (ev *gev[V, A]) pop() gaev[V] {
	n := len(ev.q) - 1
	e := ev.q[n]
	ev.q[n] = gaev[V]{}
	ev.q = ev.q[:n]
	return e
}

// resortQueue re-establishes the descending order after a uniform time
// shift — float subtraction can collapse nearby times and flip a seq
// tie-break, exactly as des.Simulation.Rebase's post-shift reheap can.
// Insertion sort: adaptive (the array stays nearly sorted), stable in
// the comparisons it performs, and cheap in guards.
func (ev *gev[V, A]) resortQueue() {
	q := ev.q
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i - 1
		for j >= 0 && ev.popsBefore(&q[j], &e) {
			q[j+1] = q[j]
			j--
		}
		q[j+1] = e
	}
}

func (ev *gev[V, A]) scheduleResume(delay V, id int) {
	ev.push(gaev[V]{time: ev.ar.Add(ev.now, delay), kind: gevResume, id: int32(id)})
}

func (ev *gev[V, A]) scheduleResumeAt(t V, id int) {
	ev.push(gaev[V]{time: t, kind: gevResume, id: int32(id)})
}

func (ev *gev[V, A]) scheduleAux(delay V, epoch uint64) {
	ev.push(gaev[V]{time: ev.ar.Add(ev.now, delay), kind: gevAux, epoch: epoch})
	ev.aux++
}

// The evaluator is the fast-forward controller's kernel
// (replay.FFKernel[V]): the counts mirror netsim.Network.ActiveFlows,
// Post.PendingMessages and des.Simulation.PendingReal, and the
// arithmetic runs through the arith, so the recording instantiation
// puts the controller's wake shifts and signature compares on the
// tape.

func (ev *gev[V, A]) ActiveFlows() int     { return ev.flows }
func (ev *gev[V, A]) PendingMessages() int { return ev.pendingMsgs }
func (ev *gev[V, A]) PendingReal() int     { return len(ev.q) - ev.aux }
func (ev *gev[V, A]) Sub(a, b V) V         { return ev.ar.Sub(a, b) }
func (ev *gev[V, A]) BitsEq(a, b V) bool   { return ev.ar.BitsEq(a, b) }
func (ev *gev[V, A]) Zero() V              { return ev.zero }

// discardAux mirrors des.Simulation.DiscardAux: drop every pending
// auxiliary event in place. The filter preserves the sorted order, so
// no re-sort (and no guards) needed.
func (ev *gev[V, A]) discardAux() {
	if ev.aux == 0 {
		return
	}
	q := ev.q
	keep := q[:0]
	for i := range q {
		if q[i].kind == gevAux {
			continue
		}
		keep = append(keep, q[i])
	}
	for i := len(keep); i < len(q); i++ {
		q[i] = gaev[V]{}
	}
	ev.q = keep
	ev.aux = 0
}

func (ev *gev[V, A]) absNow() V { return ev.ar.Add(ev.base, ev.now) }

// Rebase mirrors des.Simulation.Rebase plus the netsim rebase hook
// (the only hook the DES stack registers).
func (ev *gev[V, A]) Rebase() V {
	ar := ev.ar
	shift := ev.now
	if ar.Eq(shift, ev.zero) {
		return ev.zero
	}
	ev.base = ar.Add(ev.base, shift)
	ev.now = ev.zero
	q := ev.q
	for i := range q {
		q[i].time = ar.Sub(q[i].time, shift)
	}
	ev.resortQueue()
	if ev.flows == 0 {
		ev.lastUpdate = ev.zero
	} else {
		ev.lastUpdate = ar.Sub(ev.lastUpdate, shift)
	}
	return shift
}

// AdvanceBase mirrors des.Simulation.AdvanceBase: iterated addition,
// never multiplication, so a jump lands on the bit-identical base a
// full simulation would reach.
func (ev *gev[V, A]) AdvanceBase(delta V, rounds int) {
	for i := 0; i < rounds; i++ {
		ev.base = ev.ar.Add(ev.base, delta)
	}
}

// drive pops events to completion, mirroring des.Simulation.Run. A
// drained queue with live actors is the stall the des kernel reports
// as a deadlock panic; here it surfaces as an error.
func (ev *gev[V, A]) drive() error {
	for len(ev.q) > 0 {
		e := ev.pop()
		if e.kind == gevAux {
			ev.aux--
		}
		if ev.ar.Less(e.time, ev.now) {
			return fmt.Errorf("analytic: time went backwards (%v < %v)", ev.ar.Float(e.time), ev.ar.Float(ev.now))
		}
		ev.now = e.time
		switch e.kind {
		case gevResume:
			ev.resumeActor(int(e.id))
		case gevActivate:
			ev.activateFlow(e.flow)
		case gevLoopback:
			ev.deliver(e.flow)
			ev.releaseFlow(e.flow)
		case gevAux:
			if e.epoch == ev.epoch {
				ev.advanceFlows()
				ev.recompute()
			}
		}
	}
	if ev.live > 0 {
		return fmt.Errorf("analytic: execution stalled: %d actor(s) parked with an empty event queue at t=%v (first error: %v)", ev.live, ev.ar.Float(ev.now), ev.firstErr())
	}
	return nil
}

// ---------------------------------------------------------------------------
// Counter mailboxes

// tryGet mirrors des.Queue.Get: take the head item when present,
// otherwise register as a reader and report blocked. Like Get's
// re-check loop, a woken caller must call tryGet again.
func (ev *gev[V, A]) tryGet(b *gbox, id int) bool {
	if b.items == 0 {
		b.readers = append(b.readers, int32(id))
		return false
	}
	b.items--
	ev.pendingMsgs--
	return true
}

// put mirrors des.Queue.Put: append and wake the oldest reader via a
// zero-delay resume event. pendingMsgs mirrors Post.PendingMessages.
func (ev *gev[V, A]) put(b *gbox) {
	b.items++
	ev.pendingMsgs++
	if len(b.readers) > 0 {
		r := b.readers[0]
		b.readers = b.readers[1:]
		ev.scheduleResume(ev.zero, int(r))
	}
}

// boxAt returns the lazily created peer mailbox of the given traffic
// class for messages arriving at rank `at` from rank `from`. The
// (at, from) pair mirrors the DES per-(host, tag) mailboxes exactly
// when hosts are pairwise distinct — validated in newGev.
func (ev *gev[V, A]) boxAt(ctl bool, at, from int) *gbox {
	arr := ev.dataBox
	if ctl {
		arr = ev.ctlBox
	}
	idx := at*ev.n + from
	if arr[idx] == nil {
		arr[idx] = &gbox{}
	}
	return arr[idx]
}

// adaptProfile mirrors p2psap.AdaptProfile: the profile *fields* are
// constants; the selection thresholds on path latency are where a
// symbolic scan's guards land, so crossing a profile boundary starts a
// new tape region.
func (ev *gev[V, A]) adaptProfile(lat V) gprof[V] {
	ar := ev.ar
	var p p2psap.Profile
	switch {
	case ar.Less(lat, ar.Const(p2psap.ClusterMaxLatency)):
		p = p2psap.ClusterProfile
	case ar.Less(lat, ar.Const(p2psap.LANMaxLatency)):
		p = p2psap.LANProfile
	default:
		p = p2psap.WANProfile
	}
	return gprof[V]{frame: ar.Const(p.FrameBytes), send: ar.Const(p.SendOverhead), recv: ar.Const(p.RecvOverhead)}
}

// profileFor returns the adapted P2PSAP profile of a rank pair,
// probing the zero-byte transfer time exactly as p2psap's
// Protocol.Channel does (path latency + 0/bottleneck = path latency).
func (ev *gev[V, A]) profileFor(a, b int) (*gprof[V], error) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	idx := lo*ev.n + hi
	if p := ev.pairProf[idx]; p != nil {
		return p, nil
	}
	var lat V
	if ev.hosts[lo] == ev.hosts[hi] {
		lat = ev.cLoopback
	} else {
		rt, err := ev.m.route(ev.ar, ev.hosts[lo], ev.hosts[hi])
		if err != nil {
			return nil, fmt.Errorf("analytic: cannot probe %s<->%s: %w", ev.hosts[lo], ev.hosts[hi], err)
		}
		lat = rt.latency
	}
	p := ev.adaptProfile(lat)
	ev.pairProf[idx] = &p
	return &p, nil
}

// checkPeer mirrors p2pdc.Worker.channel's range check.
func (ev *gev[V, A]) checkPeer(peer int) error {
	if peer < 0 || peer >= ev.n {
		return fmt.Errorf("analytic: rank %d out of range [0,%d)", peer, ev.n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fluid network: netsim.Network's flow model. Flow order,
// progressive-filling order, the link-name tie-break sort, the
// completion quantum and the loopback cost are carried over verbatim.

// newFlow and releaseFlow keep a free-list of flows, as
// netsim.Network does: a flow is recycled once delivered.
func (ev *gev[V, A]) newFlow() *gaflow[V] {
	if k := len(ev.flowPool); k > 0 {
		f := ev.flowPool[k-1]
		ev.flowPool = ev.flowPool[:k-1]
		return f
	}
	return &gaflow[V]{}
}

func (ev *gev[V, A]) releaseFlow(f *gaflow[V]) {
	*f = gaflow[V]{}
	ev.flowPool = append(ev.flowPool, f)
}

// deliver mirrors the replay delivery callbacks: mailbox put first,
// then the blocking-send condition signal — the order the DES gather
// path schedules its wakeups in (Post.Send's onDone puts, then
// signals).
func (ev *gev[V, A]) deliver(f *gaflow[V]) {
	if f.box != nil {
		ev.put(f.box)
	}
	if f.gatherRank >= 0 {
		w := &ev.workers[f.gatherRank]
		if w.gatherWaiting {
			w.gatherWaiting = false
			ev.scheduleResume(ev.zero, int(f.gatherRank))
		} else {
			w.gatherPending = true
		}
	}
}

// startFlow mirrors netsim.Network.startFlow (the transient path the
// message layer always uses).
func (ev *gev[V, A]) startFlow(src, dst string, bytes V, box *gbox, gatherRank int) error {
	ar := ev.ar
	if ar.Less(bytes, ev.zero) || ar.IsNaN(bytes) {
		return fmt.Errorf("analytic: invalid flow size %v", ar.Float(bytes))
	}
	if src == dst {
		f := ev.newFlow()
		*f = gaflow[V]{remaining: bytes, rate: ev.zero, done: true, box: box, gatherRank: int32(gatherRank)}
		ev.push(gaev[V]{time: ar.Add(ev.now, ev.cLoopback), kind: gevLoopback, flow: f})
		return nil
	}
	rt, err := ev.m.route(ar, src, dst)
	if err != nil {
		return err
	}
	f := ev.newFlow()
	*f = gaflow[V]{remaining: bytes, rate: ev.zero, route: rt, box: box, gatherRank: int32(gatherRank)}
	ev.push(gaev[V]{time: ar.Add(ev.now, rt.latency), kind: gevActivate, flow: f})
	return nil
}

// activateFlow mirrors netsim.Network.activateFlow.
func (ev *gev[V, A]) activateFlow(f *gaflow[V]) {
	ev.advanceFlows()
	if ev.ar.LessEq(f.remaining, ev.zero) {
		f.done = true
		ev.deliver(f)
		ev.releaseFlow(f)
		return
	}
	ev.flows++
	ev.flowOrder = append(ev.flowOrder, f)
	ev.recompute()
}

// advanceFlows mirrors netsim.Network.advance.
func (ev *gev[V, A]) advanceFlows() {
	ar := ev.ar
	dt := ar.Sub(ev.now, ev.lastUpdate)
	if ar.Less(ev.zero, dt) {
		for _, f := range ev.flowOrder {
			if !f.done {
				f.remaining = ar.Sub(f.remaining, ar.Mul(f.rate, dt))
				if ar.Less(f.remaining, ev.cRemEps) {
					f.remaining = ev.zero
				}
			}
		}
	}
	ev.lastUpdate = ev.now
}

// finishCompleted mirrors netsim.Network.finishCompleted: completed
// flows leave the sharing set first, then their deliveries run in flow
// order.
func (ev *gev[V, A]) finishCompleted() {
	ar := ev.ar
	finished := ev.finished[:0]
	for _, f := range ev.flowOrder {
		if !f.done && ar.LessEq(f.remaining, ev.zero) {
			f.done = true
			finished = append(finished, f)
			ev.flows--
		}
	}
	if len(finished) > 0 {
		keep := ev.flowOrder[:0]
		for _, f := range ev.flowOrder {
			if !f.done {
				keep = append(keep, f)
			}
		}
		ev.flowOrder = keep
	}
	for _, f := range finished {
		ev.deliver(f)
		ev.releaseFlow(f)
	}
	for i := range finished {
		finished[i] = nil
	}
	ev.finished = finished[:0]
}

// recompute mirrors netsim.Network.recompute.
func (ev *gev[V, A]) recompute() {
	ar := ev.ar
	for {
		ev.finishCompleted()
		ev.assignRates()
		next := ev.cInf
		for _, f := range ev.flowOrder {
			if ar.Less(ev.zero, f.rate) {
				t := ar.Div(f.remaining, f.rate)
				if ar.Less(t, next) {
					next = t
				}
			}
		}
		if ar.IsInfPos(next) {
			ev.epoch++
			if ev.flows == 0 {
				ev.discardAux()
			}
			return
		}
		if ar.LessEq(next, ev.cQuantum) {
			for _, f := range ev.flowOrder {
				if ar.Less(ev.zero, f.rate) && ar.LessEq(f.remaining, ar.Mul(f.rate, ev.cQuantum)) {
					f.remaining = ev.zero
				}
			}
			continue
		}
		ev.epoch++
		ev.scheduleAux(next, ev.epoch)
		return
	}
}

// assignRates mirrors netsim.Network.assignRates' progressive filling:
// flow order for assignment, link states in name order for bottleneck
// selection, sorted by the links' integer ranks as netsim sorts them.
func (ev *gev[V, A]) assignRates() {
	ar := ev.ar
	ev.rateMark++
	mark := ev.rateMark
	active := ev.activeLinks[:0]
	unassigned := 0
	for _, f := range ev.flowOrder {
		if f.done {
			continue
		}
		f.rate = ev.zero
		f.assigned = false
		unassigned++
		for _, l := range f.route.links {
			st := &ev.linkStates[l.idx]
			if st.mark != mark {
				st.mark = mark
				st.link = l
				st.residual = l.bandwidth
				st.nflows = 0
				active = append(active, st)
			}
			st.nflows++
		}
	}
	// Sort by link rank. Ranks are unique, so this insertion sort
	// realizes the same strict total order as netsim's slices.SortFunc
	// — and compares only integers, never a value a tape records.
	for i := 1; i < len(active); i++ {
		e := active[i]
		j := i - 1
		for j >= 0 && active[j].link.rank > e.link.rank {
			active[j+1] = active[j]
			j--
		}
		active[j+1] = e
	}
	ev.activeLinks = active

	for unassigned > 0 {
		var bottleneck *glinkState[V]
		fair := ev.cInf
		for _, st := range active {
			if st.nflows == 0 {
				continue
			}
			f := ar.Div(st.residual, ar.FromInt(st.nflows))
			if ar.Less(f, fair) {
				fair = f
				bottleneck = st
			}
		}
		if bottleneck == nil {
			break
		}
		for _, f := range ev.flowOrder {
			if f.done || f.assigned {
				continue
			}
			crosses := false
			for _, l := range f.route.links {
				if l == bottleneck.link {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = fair
			f.assigned = true
			unassigned--
			for _, l := range f.route.links {
				st := &ev.linkStates[l.idx]
				st.residual = ar.Sub(st.residual, fair)
				if ar.Less(st.residual, ev.zero) {
					st.residual = ev.zero
				}
				st.nflows--
			}
		}
	}
}
