// Package platform describes simulated computing platforms: the set of
// hosts, routers, links and routes over which experiments run. It
// provides generators for the three platforms of the paper's
// evaluation — the Grid'5000 Bordeplage-like cluster (Stage-1), the
// Daisy xDSL topology (Stage-2A, Fig. 8) and a campus LAN
// (Stage-2B) — plus a text serialization so platform files can be
// written, versioned and parsed like SimGrid platform descriptions.
package platform

import (
	"container/heap"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/proximity"
)

// Node is a vertex of the platform graph: a compute host or a pure
// forwarding element (router/DSLAM/switch).
type Node struct {
	Name   string
	IP     proximity.Addr
	Speed  float64 // flop/s; 0 for routers
	Router bool
}

// Edge joins two nodes through a named link.
type Edge struct {
	A, B      string
	LinkName  string
	Bandwidth float64 // bytes/s
	Latency   float64 // seconds
}

// Platform is an undirected graph of nodes and edges with shortest-path
// routing (fewest hops, then lowest total latency).
type Platform struct {
	Name string
	// Frontend names the well-connected submitter host, when the
	// platform has one (experiment platforms do).
	Frontend string
	nodes    map[string]*Node
	edges    []Edge
	adj      map[string][]int // node -> edge indices

	// routing cache: per source, predecessor tree. Guarded by mu so a
	// single platform graph can serve concurrent replays (sweeps share
	// one Platform across worker goroutines).
	mu        sync.Mutex
	predCache map[string]map[string]int // src -> node -> incoming edge index
	// Sorted name lists, built on first use and guarded by mu. hosts
	// excludes hostsFrontend, the Frontend it was built for.
	nodeNames     []string
	hosts         []string
	hostsFrontend string
}

// New returns an empty platform.
func New(name string) *Platform {
	return &Platform{
		Name:      name,
		nodes:     make(map[string]*Node),
		adj:       make(map[string][]int),
		predCache: make(map[string]map[string]int),
	}
}

// AddHost adds a compute host.
func (p *Platform) AddHost(name string, ip proximity.Addr, speed float64) error {
	return p.addNode(&Node{Name: name, IP: ip, Speed: speed})
}

// AddRouter adds a forwarding-only node.
func (p *Platform) AddRouter(name string) error {
	return p.addNode(&Node{Name: name, Router: true})
}

func (p *Platform) addNode(n *Node) error {
	if _, ok := p.nodes[n.Name]; ok {
		return fmt.Errorf("platform: duplicate node %q", n.Name)
	}
	if !n.Router && n.Speed <= 0 {
		return fmt.Errorf("platform: host %q needs positive speed", n.Name)
	}
	p.nodes[n.Name] = n
	p.mu.Lock()
	p.nodeNames, p.hosts = nil, nil // invalidate
	p.mu.Unlock()
	return nil
}

// Connect adds an undirected edge between existing nodes.
func (p *Platform) Connect(a, b, linkName string, bandwidth, latency float64) error {
	if _, ok := p.nodes[a]; !ok {
		return fmt.Errorf("platform: unknown node %q", a)
	}
	if _, ok := p.nodes[b]; !ok {
		return fmt.Errorf("platform: unknown node %q", b)
	}
	// NaN latencies are refused too: route selection needs costs that
	// order totally.
	if bandwidth <= 0 || !(latency >= 0) {
		return fmt.Errorf("platform: link %q invalid bandwidth/latency", linkName)
	}
	for _, e := range p.edges {
		if e.LinkName == linkName {
			return fmt.Errorf("platform: duplicate link name %q", linkName)
		}
	}
	idx := len(p.edges)
	p.edges = append(p.edges, Edge{A: a, B: b, LinkName: linkName, Bandwidth: bandwidth, Latency: latency})
	p.adj[a] = append(p.adj[a], idx)
	p.adj[b] = append(p.adj[b], idx)
	p.mu.Lock()
	p.predCache = make(map[string]map[string]int) // invalidate
	p.mu.Unlock()
	return nil
}

// Node returns a node by name, or nil.
func (p *Platform) Node(name string) *Node { return p.nodes[name] }

// Hosts returns the names of all compute hosts, sorted. The frontend
// host, when set, is excluded: it submits work, it does not compute.
// The list is sorted once and the caller gets its own copy.
func (p *Platform) Hosts() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.sortedHosts())
}

// FirstHosts returns a copy of the first n names of Hosts, which is
// how replays place ranks, together with the platform's compute host
// count. Only the prefix is copied. When n exceeds the count it copies
// nothing and returns nil; n must not be negative.
func (p *Platform) FirstHosts(n int) ([]string, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hosts := p.sortedHosts()
	if n > len(hosts) {
		return nil, len(hosts)
	}
	return slices.Clone(hosts[:n]), len(hosts)
}

// sortedHosts returns the cached sorted compute host names, rebuilt
// when the Frontend changed. p.mu must be held.
func (p *Platform) sortedHosts() []string {
	if p.hosts == nil || p.hostsFrontend != p.Frontend {
		p.hosts = p.hosts[:0]
		for _, name := range p.sortedNodes() {
			if !p.nodes[name].Router && name != p.Frontend {
				p.hosts = append(p.hosts, name)
			}
		}
		p.hostsFrontend = p.Frontend
	}
	return p.hosts
}

// Nodes returns all node names, sorted. The list is sorted once and
// the caller gets its own copy.
func (p *Platform) Nodes() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.sortedNodes())
}

// sortedNodes returns the cached sorted node names. p.mu must be held.
func (p *Platform) sortedNodes() []string {
	if p.nodeNames == nil {
		p.nodeNames = slices.Sorted(maps.Keys(p.nodes))
	}
	return p.nodeNames
}

// Edges returns a copy of the edge list.
func (p *Platform) Edges() []Edge { return append([]Edge(nil), p.edges...) }

// Path returns the edge indices of the route from src to dst computed
// by BFS on hop count with latency as tie-break (deterministic).
func (p *Platform) Path(src, dst string) ([]int, error) {
	if _, ok := p.nodes[src]; !ok {
		return nil, fmt.Errorf("platform: unknown node %q", src)
	}
	if _, ok := p.nodes[dst]; !ok {
		return nil, fmt.Errorf("platform: unknown node %q", dst)
	}
	if src == dst {
		return nil, nil
	}
	p.mu.Lock()
	pred, ok := p.predCache[src]
	if !ok {
		pred = p.shortestPathTree(src)
		p.predCache[src] = pred
	}
	p.mu.Unlock()
	if _, reached := pred[dst]; !reached {
		return nil, fmt.Errorf("platform: %q unreachable from %q", dst, src)
	}
	// Walk predecessors from dst back to src.
	var rev []int
	cur := dst
	for cur != src {
		ei := pred[cur]
		rev = append(rev, ei)
		e := p.edges[ei]
		if e.A == cur {
			cur = e.B
		} else {
			cur = e.A
		}
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// shortestPathTree runs Dijkstra with cost = (hops, latency)
// lexicographic. Nodes leave the queue in (hops, latency, name) order,
// so equal-cost ties resolve by name and the tree is deterministic.
func (p *Platform) shortestPathTree(src string) map[string]int {
	dist := map[string]pathCost{src: {}}
	pred := make(map[string]int)
	visited := make(map[string]bool)
	q := pathQueue{{name: src}}
	for len(q) > 0 {
		cur := heap.Pop(&q).(pathItem)
		// A node is queued again whenever its cost improves; only its
		// first (cheapest) pop counts.
		if visited[cur.name] {
			continue
		}
		visited[cur.name] = true
		for _, ei := range p.adj[cur.name] {
			e := p.edges[ei]
			next := e.B
			if next == cur.name {
				next = e.A
			}
			nd := pathCost{hops: cur.hops + 1, lat: cur.lat + e.Latency}
			if old, seen := dist[next]; !seen || nd.less(old) {
				dist[next] = nd
				pred[next] = ei
				heap.Push(&q, pathItem{nd, next})
			}
		}
	}
	return pred
}

// pathCost orders routes by hop count, then total latency.
type pathCost struct {
	hops int
	lat  float64
}

func (c pathCost) less(o pathCost) bool {
	return c.hops < o.hops || (c.hops == o.hops && c.lat < o.lat)
}

// pathItem is a queued node with the cost it was reached at.
type pathItem struct {
	pathCost
	name string
}

// pathQueue is a min-heap of pathItems in (hops, latency, name) order.
type pathQueue []pathItem

func (q pathQueue) Len() int { return len(q) }
func (q pathQueue) Less(i, j int) bool {
	if q[i].pathCost != q[j].pathCost {
		return q[i].less(q[j].pathCost)
	}
	return q[i].name < q[j].name
}
func (q pathQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pathQueue) Push(x any)   { *q = append(*q, x.(pathItem)) }
func (q *pathQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Realize creates all hosts and links of the platform inside the given
// network. The platform itself serves as the network's RouteProvider,
// so construct the network as netsim.New(sim, platform) and then call
// platform.Realize(network).
func (p *Platform) Realize(n *netsim.Network) error {
	for _, name := range p.Nodes() {
		node := p.nodes[name]
		if node.Router {
			continue // routers are not endpoints
		}
		if _, err := n.AddHost(name, node.Speed); err != nil {
			return err
		}
	}
	for _, e := range p.edges {
		if _, err := n.AddLink(e.LinkName, e.Bandwidth, e.Latency); err != nil {
			return err
		}
	}
	return nil
}

// boundPlatform implements netsim.RouteProvider: it resolves the link
// sequence between two hosts and sums path latency. Link handles are
// looked up by name in the realized network.
type boundPlatform struct {
	p   *Platform
	net *netsim.Network
}

func (bp *boundPlatform) Route(src, dst string) (*netsim.Route, error) {
	path, err := bp.p.Path(src, dst)
	if err != nil {
		return nil, err
	}
	r := &netsim.Route{}
	for _, ei := range path {
		e := bp.p.edges[ei]
		l := bp.net.Link(e.LinkName)
		if l == nil {
			return nil, fmt.Errorf("platform: link %q not realized in network", e.LinkName)
		}
		r.Links = append(r.Links, l)
		r.Latency += e.Latency
	}
	return r, nil
}

// NewNetwork creates a netsim.Network on the given kernel, wires this
// platform in as the route provider, and realizes every host and link.
func (p *Platform) NewNetwork(sim *des.Simulation) (*netsim.Network, error) {
	bp := &boundPlatform{p: p}
	net := netsim.New(sim, bp)
	bp.net = net
	if err := p.Realize(net); err != nil {
		return nil, err
	}
	return net, nil
}
