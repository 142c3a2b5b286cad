// Package netsim is a flow-level network simulator in the style of
// SimGrid's fluid model. Hosts exchange byte flows over multi-link
// routes; concurrent flows sharing a link receive max–min fair
// bandwidth; each route additionally imposes a fixed propagation
// latency paid once per flow. The simulator runs on top of the
// deterministic event kernel in internal/des.
//
// Names are resolved once. Hosts, links and mailboxes are looked up by
// name when a caller first asks for them; after that the hot paths
// work on handles: routes are cached by host handle, the Post's
// handle-based calls (SendAsyncTo, SendTo, Mailbox.Recv) carry the
// whole message path, and its name-based calls only resolve names
// before delegating to them. Bandwidth sharing orders links by an
// integer rank, the link's position in name order.
//
// The message path allocates nothing in steady state. Flow records
// and Message records are pooled, a flow carries its message and
// destination mailbox instead of a delivery closure, each flow record
// binds its activation callback once, completion estimates are
// auxiliary kernel events identified by their sequence number, and
// receives return messages by value, so a record is recycled as soon
// as it is read.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/des"
)

// Host is a compute node attached to the network.
type Host struct {
	Name string
	// Speed is the host compute speed in abstract flop/s. The network
	// layer itself never uses it, but replay and application layers
	// convert work amounts to durations with it.
	Speed float64
	net   *Network
}

// Link is a network resource with a capacity in bytes/s and a
// propagation latency in seconds.
type Link struct {
	Name      string
	Bandwidth float64
	Latency   float64

	// idx addresses this link's slot in the network's rate-assignment
	// scratch, so the bandwidth-sharing epoch needs no map lookups.
	idx int
	// rank is the link's position among the network's links in name
	// order: bandwidth sharing breaks ties by it, comparing integers
	// instead of names.
	rank int
}

// Route is an ordered list of links between two hosts plus the total
// propagation latency of the path.
type Route struct {
	Links   []*Link
	Latency float64
}

// RouteProvider supplies routes on demand; platform descriptions
// implement it. Returned routes are cached by the network.
type RouteProvider interface {
	Route(src, dst string) (*Route, error)
}

// Flow is an in-progress bulk transfer.
type Flow struct {
	Src, Dst  *Host
	Bytes     float64
	remaining float64
	rate      float64
	route     *Route // nil for a loopback
	started   bool   // latency phase done, participating in sharing
	done      bool
	pooled    bool // recycle into the network's free list at completion
	assigned  bool // scratch flag of assignRates
	onDone    func()
	// A message send's delivery: at completion msg goes into box, and
	// then wake, if set, is signalled (the sender of a blocking Send).
	msg  *Message
	box  *Mailbox
	wake *des.Cond
	// arrive ends the latency phase; bound once per record, it
	// survives recycling.
	arrive func()
}

// Remaining returns the bytes not yet transferred (for introspection).
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the currently allocated rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// linkState is the per-link scratch of one progressive-filling epoch.
type linkState struct {
	link     *Link
	residual float64
	nflows   int
	mark     uint64 // lazily resets the state when != Network.rateMark
}

// Network is the top-level simulator object.
type Network struct {
	sim        *des.Simulation
	hosts      map[string]*Host
	links      map[string]*Link
	provider   RouteProvider
	routeCache map[[2]*Host]*Route
	ranked     bool // every link's rank is current (AddLink clears it)

	active     int     // flows sharing bandwidth
	flowOrder  []*Flow // deterministic iteration order
	lastUpdate float64
	// estimate is the kernel sequence number of the live completion
	// estimate, zero when none is live (as whenever no flow is
	// active); every recompute supersedes the previous one.
	// onEstimate is its callback, bound once.
	estimate   uint64
	onEstimate func(seq uint64)

	// Reused per-epoch scratch: bandwidth sharing runs once per flow
	// arrival/departure, and on large platforms the per-call map and
	// slice churn used to dominate the sharing epoch's cost.
	linkStates  []linkState // indexed by Link.idx
	activeLinks []*linkState
	finished    []*Flow
	rateMark    uint64
	flowPool    []*Flow

	// idleSkip (default on) discards the kernel's pending auxiliary
	// events whenever the last flow completes: at that moment every
	// queued completion estimate is stale (no estimate is live), so
	// instead of popping them one by one as no-ops — and shifting each
	// on every intervening Rebase — the network drops them wholesale.
	// auxDiscarded counts the drops.
	idleSkip     bool
	auxDiscarded int64
}

// New creates a network bound to sim using provider for routing. The
// network registers a rebase hook: its in-epoch last-update mark
// follows the kernel's epoch shifts (see des.Rebase).
func New(sim *des.Simulation, provider RouteProvider) *Network {
	n := &Network{
		sim:        sim,
		hosts:      make(map[string]*Host),
		links:      make(map[string]*Link),
		provider:   provider,
		routeCache: make(map[[2]*Host]*Route),
		idleSkip:   true,
	}
	n.onEstimate = n.fireEstimate
	sim.OnRebase(func(shift float64) {
		if n.active == 0 {
			// Quiescent: the mark only matters as the origin of the
			// next advance() delta, which resets it anyway.
			n.lastUpdate = 0
			return
		}
		n.lastUpdate -= shift
	})
	return n
}

// Sim returns the underlying event kernel.
func (n *Network) Sim() *des.Simulation { return n.sim }

// AddHost registers a host; duplicate names are an error.
func (n *Network) AddHost(name string, speed float64) (*Host, error) {
	if _, ok := n.hosts[name]; ok {
		return nil, fmt.Errorf("netsim: duplicate host %q", name)
	}
	if speed <= 0 {
		return nil, fmt.Errorf("netsim: host %q speed must be positive, got %v", name, speed)
	}
	h := &Host{Name: name, Speed: speed, net: n}
	n.hosts[name] = h
	return h, nil
}

// Host returns a registered host or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// Hosts returns all host names in sorted order.
func (n *Network) Hosts() []string {
	names := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AddLink registers a link; duplicate names are an error.
func (n *Network) AddLink(name string, bandwidth, latency float64) (*Link, error) {
	if _, ok := n.links[name]; ok {
		return nil, fmt.Errorf("netsim: duplicate link %q", name)
	}
	if bandwidth <= 0 || latency < 0 {
		return nil, fmt.Errorf("netsim: link %q invalid bandwidth %v / latency %v", name, bandwidth, latency)
	}
	l := &Link{Name: name, Bandwidth: bandwidth, Latency: latency, idx: len(n.linkStates)}
	n.links[name] = l
	n.linkStates = append(n.linkStates, linkState{link: l})
	n.ranked = false
	return l, nil
}

// rankLinks numbers the links in name order. Names are unique, so the
// ranks are a strict total order equal to the names'.
func (n *Network) rankLinks() {
	byName := make([]*Link, len(n.linkStates))
	for i := range n.linkStates {
		byName[i] = n.linkStates[i].link
	}
	slices.SortFunc(byName, func(a, b *Link) int { return strings.Compare(a.Name, b.Name) })
	for r, l := range byName {
		l.rank = r
	}
	n.ranked = true
}

// Link returns a registered link or nil.
func (n *Network) Link(name string) *Link { return n.links[name] }

// routeBetween resolves and caches the route between two hosts.
func (n *Network) routeBetween(src, dst *Host) (*Route, error) {
	key := [2]*Host{src, dst}
	if r, ok := n.routeCache[key]; ok {
		return r, nil
	}
	r, err := n.provider.Route(src.Name, dst.Name)
	if err != nil {
		return nil, fmt.Errorf("netsim: no route %s -> %s: %w", src.Name, dst.Name, err)
	}
	n.routeCache[key] = r
	return r, nil
}

// newFlow takes a flow record from the free list, or allocates one
// and binds its activation callback.
func (n *Network) newFlow() *Flow {
	if k := len(n.flowPool); k > 0 {
		f := n.flowPool[k-1]
		n.flowPool[k-1] = nil
		n.flowPool = n.flowPool[:k-1]
		return f
	}
	f := &Flow{}
	f.arrive = func() { n.arrive(f) }
	return f
}

// releaseFlow zeroes a pooled flow, keeping its bound callback, and
// returns it to the free list.
func (n *Network) releaseFlow(f *Flow) {
	*f = Flow{arrive: f.arrive}
	n.flowPool = append(n.flowPool, f)
}

// StartFlow begins transferring bytes from src to dst. onDone (may be
// nil) runs at completion time. The call itself is non-blocking. The
// returned handle stays valid indefinitely (it is never recycled);
// hot paths that do not retain the handle should use StartFlowTransient.
func (n *Network) StartFlow(src, dst string, bytes float64, onDone func()) (*Flow, error) {
	return n.startFlow(src, dst, bytes, onDone, false)
}

// StartFlowTransient is StartFlow for callers that do not retain the
// returned handle: the flow record is recycled into an internal free
// list as soon as the transfer completes and its onDone callback has
// run. The message layer sends every payload through this path, which
// removes the per-message Flow allocation.
func (n *Network) StartFlowTransient(src, dst string, bytes float64, onDone func()) (*Flow, error) {
	return n.startFlow(src, dst, bytes, onDone, true)
}

func (n *Network) startFlow(src, dst string, bytes float64, onDone func(), pooled bool) (*Flow, error) {
	hs, hd := n.hosts[src], n.hosts[dst]
	if hs == nil || hd == nil {
		return nil, fmt.Errorf("netsim: unknown host in flow %s -> %s", src, dst)
	}
	route, err := n.routeFor(hs, hd, bytes)
	if err != nil {
		return nil, err
	}
	f := n.newFlow()
	f.onDone, f.pooled = onDone, pooled
	n.launch(f, hs, hd, bytes, route)
	return f, nil
}

// routeFor validates a transfer's size and resolves its route: nil
// for a loopback.
func (n *Network) routeFor(hs, hd *Host, bytes float64) (*Route, error) {
	if bytes < 0 || math.IsNaN(bytes) {
		return nil, fmt.Errorf("netsim: invalid flow size %v", bytes)
	}
	if hs == hd {
		return nil, nil
	}
	return n.routeBetween(hs, hd)
}

// launch starts a validated transfer on a prepared flow record.
func (n *Network) launch(f *Flow, hs, hd *Host, bytes float64, route *Route) {
	f.Src, f.Dst, f.Bytes, f.remaining, f.route = hs, hd, bytes, bytes, route
	if route == nil {
		// Loopback: modelled as instantaneous plus a tiny fixed cost.
		f.done = true
		n.sim.Schedule(LoopbackLatency, f.arrive)
		return
	}
	// Latency phase: the flow joins bandwidth sharing only after the
	// path propagation delay, as in SimGrid's fluid model.
	n.sim.Schedule(route.Latency, f.arrive)
}

// InjectArrival schedules a flow that was started elsewhere — by
// another partition's kernel in a partitioned replay. The flow joins
// bandwidth sharing at startedAt + route latency, computed with the
// same float operation the local send path performs, so a partition
// replaying a remote partition's flow record reproduces the exact
// activation instant the originating kernel computed. onDone (may be
// nil) runs at completion: the partition owning the destination host
// delivers the message there; every other partition injects the flow
// purely for its bandwidth footprint, keeping max–min fair rates a
// bit-identical global computation in all kernels. startedAt must not
// precede the current virtual time (conservative window
// synchronization guarantees records arrive before their activation).
func (n *Network) InjectArrival(src, dst string, bytes, startedAt float64, onDone func()) error {
	hs, hd := n.hosts[src], n.hosts[dst]
	if hs == nil || hd == nil {
		return fmt.Errorf("netsim: unknown host in injected flow %s -> %s", src, dst)
	}
	if bytes < 0 || math.IsNaN(bytes) {
		return fmt.Errorf("netsim: invalid injected flow size %v", bytes)
	}
	if src == dst {
		return fmt.Errorf("netsim: loopback flow %s -> %s cannot be injected (loopbacks never leave their partition)", src, dst)
	}
	route, err := n.routeBetween(hs, hd)
	if err != nil {
		return err
	}
	f := n.newFlow()
	f.Src, f.Dst, f.Bytes, f.remaining, f.onDone, f.pooled = hs, hd, bytes, bytes, onDone, true
	f.route = route
	// Same arithmetic as the local path: Schedule(route.Latency) at
	// now = startedAt enqueues at fl(startedAt + Latency).
	n.sim.ScheduleAt(startedAt+route.Latency, f.arrive)
	return nil
}

// LoopbackLatency is the fixed cost of a same-host transfer.
const LoopbackLatency = 1e-6

// RemainingEpsilon is the byte residue below which an advancing flow
// counts as fully transferred, so float64 cancellation cannot leave a
// flow a few ulps short of completion.
const RemainingEpsilon = 1e-9

// arrive ends a flow's latency phase: a loopback completes, any other
// flow joins bandwidth sharing.
func (n *Network) arrive(f *Flow) {
	if f.route == nil {
		n.complete(f)
		return
	}
	n.advance()
	if f.remaining <= 0 {
		// Zero-byte message: completes as soon as latency elapses.
		f.done = true
		n.complete(f)
		return
	}
	f.started = true
	n.active++
	n.flowOrder = append(n.flowOrder, f)
	n.recompute()
}

// complete runs a finished flow's delivery — the message into its
// mailbox, then the blocked sender's wakeup or the caller's callback —
// and recycles a pooled record.
func (n *Network) complete(f *Flow) {
	if f.box != nil {
		f.box.deliver(f.msg)
	}
	if f.wake != nil {
		f.wake.Signal()
	}
	if f.onDone != nil {
		f.onDone()
	}
	if f.pooled {
		n.releaseFlow(f)
	}
}

// advance progresses all active flows to the current time.
func (n *Network) advance() {
	now := n.sim.Now()
	dt := now - n.lastUpdate
	if dt > 0 {
		for _, f := range n.flowOrder {
			if !f.done {
				f.remaining -= f.rate * dt
				if f.remaining < RemainingEpsilon {
					f.remaining = 0
				}
			}
		}
	}
	n.lastUpdate = now
}

// finishCompleted removes completed flows and invokes their callbacks.
func (n *Network) finishCompleted() {
	finished := n.finished[:0]
	for _, f := range n.flowOrder {
		if !f.done && f.remaining <= 0 {
			f.done = true
			finished = append(finished, f)
			n.active--
		}
	}
	if len(finished) > 0 {
		n.compactOrder()
	}
	for _, f := range finished {
		n.complete(f)
	}
	// Drop the recycled pointers from the scratch before the next epoch.
	for i := range finished {
		finished[i] = nil
	}
	n.finished = finished[:0]
}

func (n *Network) compactOrder() {
	keep := n.flowOrder[:0]
	for _, f := range n.flowOrder {
		if !f.done {
			keep = append(keep, f)
		}
	}
	n.flowOrder = keep
}

// TimeQuantum is the smallest scheduling step the fluid model resolves;
// flows that would complete within it are completed immediately. This
// prevents float64 cancellation from stalling virtual time.
const TimeQuantum = 1e-9

// recompute reassigns max–min fair rates and schedules the next
// completion event.
func (n *Network) recompute() {
	for {
		n.finishCompleted()
		n.assignRates()
		// Earliest completion among active flows.
		next := math.Inf(1)
		for _, f := range n.flowOrder {
			if f.rate > 0 {
				t := f.remaining / f.rate
				if t < next {
					next = t
				}
			}
		}
		if math.IsInf(next, 1) {
			n.estimate = 0
			if n.idleSkip && n.active == 0 {
				n.auxDiscarded += int64(n.sim.DiscardAux())
			}
			return
		}
		if next <= TimeQuantum {
			// Complete all flows within the quantum right now and loop.
			for _, f := range n.flowOrder {
				if f.rate > 0 && f.remaining <= f.rate*TimeQuantum {
					f.remaining = 0
				}
			}
			continue
		}
		// The completion estimate is auxiliary: a later recompute
		// supersedes it and the stale event fires as a no-op, so
		// quiescence checks may ignore it.
		n.estimate = n.sim.ScheduleAux(next, n.onEstimate)
		return
	}
}

// fireEstimate runs the completion estimate with sequence number seq.
func (n *Network) fireEstimate(seq uint64) {
	if seq != n.estimate {
		return // a newer recompute superseded this event
	}
	n.advance()
	n.recompute()
}

// assignRates implements progressive filling (max–min fairness) over
// the reusable per-link scratch. The fill order and arithmetic match
// the original map-based implementation operation for operation, so
// assigned rates are bit-identical; only the per-epoch allocations
// are gone.
func (n *Network) assignRates() {
	if !n.ranked {
		n.rankLinks()
	}
	n.rateMark++
	mark := n.rateMark
	active := n.activeLinks[:0]
	unassigned := 0
	for _, f := range n.flowOrder {
		if f.done {
			continue
		}
		f.rate = 0
		f.assigned = false
		unassigned++
		for _, l := range f.route.Links {
			st := &n.linkStates[l.idx]
			if st.mark != mark {
				st.mark = mark
				st.residual = l.Bandwidth
				st.nflows = 0
				active = append(active, st)
			}
			st.nflows++
		}
	}
	// Deterministic link ordering for tie-breaks: name order, by rank.
	// The active set is small and ranks are unique, so an insertion
	// sort on the integers is a strict total order.
	for i := 1; i < len(active); i++ {
		st := active[i]
		j := i - 1
		for j >= 0 && active[j].link.rank > st.link.rank {
			active[j+1] = active[j]
			j--
		}
		active[j+1] = st
	}
	n.activeLinks = active

	for unassigned > 0 {
		// Find the bottleneck: min residual/nflows over links with flows.
		var bottleneck *linkState
		fair := math.Inf(1)
		for _, st := range active {
			if st.nflows == 0 {
				continue
			}
			f := st.residual / float64(st.nflows)
			if f < fair {
				fair = f
				bottleneck = st
			}
		}
		if bottleneck == nil {
			break // should not happen: flows with no links are loopback
		}
		// Fix every unassigned flow crossing the bottleneck at the fair
		// share, then subtract its rate along its whole path.
		for _, f := range n.flowOrder {
			if f.done || f.assigned {
				continue
			}
			crosses := false
			for _, l := range f.route.Links {
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
			for _, l := range f.route.Links {
				st := &n.linkStates[l.idx]
				st.residual -= fair
				if st.residual < 0 {
					st.residual = 0
				}
				st.nflows--
			}
		}
	}
}

// RouteLatency resolves (and caches) the route between two hosts and
// returns its end-to-end propagation latency; zero for a loopback
// pair. The parallel replay engine derives its conservative window
// lookahead from the minimum over all used host pairs.
func (n *Network) RouteLatency(src, dst string) (float64, error) {
	hs, hd := n.hosts[src], n.hosts[dst]
	if hs == nil || hd == nil {
		return 0, fmt.Errorf("netsim: unknown host in route %s -> %s", src, dst)
	}
	if src == dst {
		return 0, nil
	}
	r, err := n.routeBetween(hs, hd)
	if err != nil {
		return 0, err
	}
	return r.Latency, nil
}

// ActiveFlows reports the number of flows currently sharing bandwidth.
func (n *Network) ActiveFlows() int { return n.active }

// SetIdleSkip toggles idle aux discarding (default on). Turning it
// off is the verification escape hatch: every stale completion
// estimate is then popped and dispatched as a no-op instead of being
// discarded when the network idles. Timings and results are identical
// either way; only the kernel's event count (and, for a run whose
// very last queued events are stale estimates, the final clock of
// des.Run) can differ.
func (n *Network) SetIdleSkip(on bool) { n.idleSkip = on }

// AuxDiscarded reports how many stale auxiliary events idle skipping
// has discarded.
func (n *Network) AuxDiscarded() int64 { return n.auxDiscarded }

// Reset rewinds the network's internal clock bookkeeping so it can be
// reused on a kernel whose clock was itself reset (see des.Reset).
// Hosts, links and the route cache — the expensive structures — are
// kept. It refuses to reset while transfers are in flight.
func (n *Network) Reset() error {
	if n.active > 0 {
		return fmt.Errorf("netsim: Reset with %d active flow(s)", n.active)
	}
	n.lastUpdate = 0
	return nil
}

// TransferTime predicts, without starting a flow, how long a solo
// transfer of the given size would take between two hosts (latency +
// bytes divided by the path's narrowest link). Useful for tests and
// quick estimates.
func (n *Network) TransferTime(src, dst string, bytes float64) (float64, error) {
	if src == dst {
		return LoopbackLatency, nil
	}
	hs, hd := n.hosts[src], n.hosts[dst]
	if hs == nil || hd == nil {
		return 0, fmt.Errorf("netsim: unknown host %s or %s", src, dst)
	}
	r, err := n.routeBetween(hs, hd)
	if err != nil {
		return 0, err
	}
	bw := math.Inf(1)
	for _, l := range r.Links {
		if l.Bandwidth < bw {
			bw = l.Bandwidth
		}
	}
	return r.Latency + bytes/bw, nil
}
