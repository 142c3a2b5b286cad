package platform

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/proximity"
)

func ip(s string) proximity.Addr { return proximity.MustParseAddr(s) }

func TestAddNodesAndEdges(t *testing.T) {
	p := New("t")
	if err := p.AddHost("h1", ip("10.0.0.1"), 1e9); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRouter("r1"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHost("h1", ip("10.0.0.2"), 1e9); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if err := p.AddHost("bad", ip("10.0.0.3"), 0); err == nil {
		t.Fatal("zero-speed host accepted")
	}
	if err := p.Connect("h1", "r1", "l1", 1e6, 0.001); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("h1", "r1", "l1", 1e6, 0.001); err == nil {
		t.Fatal("duplicate link name accepted")
	}
	if err := p.Connect("h1", "nope", "l2", 1e6, 0.001); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if err := p.Connect("h1", "r1", "l3", -1, 0.001); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestPathLine(t *testing.T) {
	// h1 - r1 - r2 - h2
	p := New("line")
	p.AddHost("h1", ip("10.0.0.1"), 1e9)
	p.AddHost("h2", ip("10.0.0.2"), 1e9)
	p.AddRouter("r1")
	p.AddRouter("r2")
	p.Connect("h1", "r1", "a", 1e6, 0.001)
	p.Connect("r1", "r2", "b", 1e6, 0.001)
	p.Connect("r2", "h2", "c", 1e6, 0.001)
	path, err := p.Path("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ei := range path {
		names = append(names, p.edges[ei].LinkName)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("path = %v", names)
	}
}

func TestPathPrefersFewerHops(t *testing.T) {
	// Two routes h1->h2: direct slow link (1 hop) vs two fast links.
	p := New("choice")
	p.AddHost("h1", ip("10.0.0.1"), 1e9)
	p.AddHost("h2", ip("10.0.0.2"), 1e9)
	p.AddRouter("r")
	p.Connect("h1", "h2", "direct", 1e3, 0.5)
	p.Connect("h1", "r", "f1", 1e9, 0.001)
	p.Connect("r", "h2", "f2", 1e9, 0.001)
	path, _ := p.Path("h1", "h2")
	if len(path) != 1 || p.edges[path[0]].LinkName != "direct" {
		t.Fatalf("expected 1-hop direct route, got %d hops", len(path))
	}
}

func TestPathLatencyTieBreak(t *testing.T) {
	// Same hop count, different latency: pick the lower-latency route.
	p := New("tie")
	p.AddHost("h1", ip("10.0.0.1"), 1e9)
	p.AddHost("h2", ip("10.0.0.2"), 1e9)
	p.AddRouter("ra")
	p.AddRouter("rb")
	p.Connect("h1", "ra", "slow1", 1e9, 0.5)
	p.Connect("ra", "h2", "slow2", 1e9, 0.5)
	p.Connect("h1", "rb", "fast1", 1e9, 0.001)
	p.Connect("rb", "h2", "fast2", 1e9, 0.001)
	path, _ := p.Path("h1", "h2")
	if p.edges[path[0]].LinkName != "fast1" {
		t.Fatalf("expected low-latency route, got %v", p.edges[path[0]].LinkName)
	}
}

func TestPathSelf(t *testing.T) {
	p := New("self")
	p.AddHost("h", ip("10.0.0.1"), 1e9)
	path, err := p.Path("h", "h")
	if err != nil || len(path) != 0 {
		t.Fatalf("self path = %v, %v", path, err)
	}
}

func TestPathUnreachable(t *testing.T) {
	p := New("split")
	p.AddHost("h1", ip("10.0.0.1"), 1e9)
	p.AddHost("h2", ip("10.0.0.2"), 1e9)
	if _, err := p.Path("h1", "h2"); err == nil {
		t.Fatal("expected unreachable error")
	}
	if _, err := p.Path("h1", "ghost"); err == nil {
		t.Fatal("expected unknown-node error")
	}
}

func TestClusterGenerator(t *testing.T) {
	p, err := Cluster(8)
	if err != nil {
		t.Fatal(err)
	}
	hosts := p.Hosts()
	if len(hosts) != 8 {
		t.Fatalf("hosts = %d, want 8", len(hosts))
	}
	// Every pair must be routable.
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if _, err := p.Path(a, b); err != nil {
				t.Fatalf("no route %s -> %s: %v", a, b, err)
			}
		}
	}
	if _, err := Cluster(0); err == nil {
		t.Fatal("cluster(0) accepted")
	}
}

func TestClusterTransferTime(t *testing.T) {
	p, err := Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	n, err := p.NewNetwork(sim)
	if err != nil {
		t.Fatal(err)
	}
	// node-0 (backbone side) to node-1 (fabric side): two 1 Gbps NIC
	// links + 10 Gbps trunk; bottleneck 1 Gbps, latency 3x100 µs.
	tt, err := n.TransferTime("node-000", "node-001", 125e6) // 1 Gbit payload
	if err != nil {
		t.Fatal(err)
	}
	want := 300e-6 + 125e6/(1*Gbps)
	if math.Abs(tt-want) > 1e-9 {
		t.Fatalf("transfer time = %v, want %v", tt, want)
	}
}

func TestDaisyGeneratorScale(t *testing.T) {
	p, err := Daisy(DefaultDaisy())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Hosts()); got != 1024 {
		t.Fatalf("daisy hosts = %d, want 1024 (Fig. 8)", got)
	}
	// Spot-check routability across petals.
	if _, err := p.Path("node-0000", "node-1023"); err != nil {
		t.Fatal(err)
	}
}

func TestDaisyLastMileBandwidthRange(t *testing.T) {
	cfg := DefaultDaisy()
	p, err := Daisy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen5, seen9 := false, false
	for _, e := range p.Edges() {
		if strings.HasPrefix(e.LinkName, "l3-") {
			if e.Bandwidth < cfg.LastMileMin-1 || e.Bandwidth > cfg.LastMileMax+1 {
				t.Fatalf("last-mile %s bandwidth %v outside [%v,%v]", e.LinkName, e.Bandwidth, cfg.LastMileMin, cfg.LastMileMax)
			}
			if e.Bandwidth < 6*Mbps {
				seen5 = true
			}
			if e.Bandwidth > 9*Mbps {
				seen9 = true
			}
		}
	}
	if !seen5 || !seen9 {
		t.Fatal("random last-mile bandwidths do not span the 5-10 Mbps range")
	}
}

func TestDaisyDeterministicSeed(t *testing.T) {
	a, _ := Daisy(DefaultDaisy())
	b, _ := Daisy(DefaultDaisy())
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestDaisyInvalidConfig(t *testing.T) {
	cfg := DefaultDaisy()
	cfg.PetalRouters = 0
	if _, err := Daisy(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestLANGenerator(t *testing.T) {
	p, err := LAN(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hosts()) != 16 {
		t.Fatalf("hosts = %d", len(p.Hosts()))
	}
	sim := des.New()
	n, err := p.NewNetwork(sim)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-switch path: drop + backbone + drop; bottleneck 100 Mbps.
	tt, err := n.TransferTime("node-0000", "node-0001", 12.5e6)
	if err != nil {
		t.Fatal(err)
	}
	want := 300e-6 + 200e-6 + 300e-6 + 12.5e6/(100*Mbps)
	if math.Abs(tt-want) > 1e-9 {
		t.Fatalf("transfer = %v, want %v", tt, want)
	}
	if _, err := LAN(0); err == nil {
		t.Fatal("LAN(0) accepted")
	}
}

func TestForKind(t *testing.T) {
	for _, k := range []Kind{KindCluster, KindDaisy, KindLAN} {
		p, err := ForKind(k, 4)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if len(p.Hosts()) < 4 {
			t.Fatalf("%s: only %d hosts", k, len(p.Hosts()))
		}
	}
	if _, err := ForKind("vax", 4); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// Property: any cluster size in [1,64] yields a platform where all
// host pairs route, and the route crosses at most 3 links.
func TestPropertyClusterRoutes(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%64) + 1
		p, err := Cluster(n)
		if err != nil {
			return false
		}
		hosts := p.Hosts()
		for i := 0; i < len(hosts) && i < 6; i++ {
			for j := 0; j < len(hosts) && j < 6; j++ {
				if i == j {
					continue
				}
				path, err := p.Path(hosts[i], hosts[j])
				if err != nil || len(path) == 0 || len(path) > 3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDaisyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Daisy(DefaultDaisy()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRouting(b *testing.B) {
	p, _ := Cluster(32)
	hosts := p.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+7)%len(hosts)]
		if src != dst {
			if _, err := p.Path(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// scanShortestPathTree is the linear-scan Dijkstra the heap-ordered
// shortestPathTree replaced, kept as its oracle: each step scans every
// reached, unvisited node for the least (hops, latency, name), then
// relaxes its edges, keeping a predecessor unless a strictly cheaper
// route appears. Node state lives in slices indexed in name order
// instead of the original's maps, which keeps every source of the
// 1,024-host platforms checkable in seconds; the selection and
// relaxation rules are the original's.
func scanShortestPathTree(p *Platform, src string) map[string]int {
	type cost struct {
		hops int
		lat  float64
	}
	names := p.Nodes()
	index := make(map[string]int, len(names))
	for i, name := range names {
		index[name] = i
	}
	dist := make([]cost, len(names))
	seen := make([]bool, len(names))
	visited := make([]bool, len(names))
	pred := make(map[string]int)
	seen[index[src]] = true
	for {
		cur := -1
		best := cost{hops: math.MaxInt32, lat: math.Inf(1)}
		for i, d := range dist {
			if !seen[i] || visited[i] {
				continue
			}
			// Ascending i is ascending name, so the first of equal
			// costs is the least name.
			if d.hops < best.hops || (d.hops == best.hops && d.lat < best.lat) ||
				(d.hops == best.hops && d.lat == best.lat && cur < 0) {
				best = d
				cur = i
			}
		}
		if cur < 0 {
			return pred
		}
		visited[cur] = true
		for _, ei := range p.adj[names[cur]] {
			e := p.edges[ei]
			next := e.B
			if next == names[cur] {
				next = e.A
			}
			j := index[next]
			nd := cost{hops: best.hops + 1, lat: best.lat + e.Latency}
			if old := dist[j]; !seen[j] || nd.hops < old.hops || (nd.hops == old.hops && nd.lat < old.lat) {
				dist[j], seen[j] = nd, true
				pred[next] = ei
			}
		}
	}
}

// checkTreesMatchScan asserts that the heap-ordered tree from every
// source equals the scan oracle's, predecessor edge for edge.
func checkTreesMatchScan(t *testing.T, p *Platform, sources []string) {
	t.Helper()
	for _, src := range sources {
		if got, want := p.shortestPathTree(src), scanShortestPathTree(p, src); !maps.Equal(got, want) {
			t.Fatalf("%s: shortest-path tree from %s diverged from the scan oracle", p.Name, src)
		}
	}
}

// TestShortestPathTreeMatchesScan: on the three paper platforms, the
// tree from every host source is the one the linear scan builds.
func TestShortestPathTreeMatchesScan(t *testing.T) {
	for _, kind := range []Kind{KindCluster, KindDaisy, KindLAN} {
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			p, err := ForKind(kind, 32)
			if err != nil {
				t.Fatal(err)
			}
			checkTreesMatchScan(t, p, append(p.Hosts(), p.Frontend))
		})
	}
}

// TestShortestPathTreeTiesMatchScan: on random graphs whose link
// latencies are drawn from a few values, so equal-cost routes abound,
// ties resolve exactly as the scan resolves them.
func TestShortestPathTreeTiesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lats := []float64{0, 1e-4, 2e-4, 3e-4}
	for g := 0; g < 40; g++ {
		p := New(fmt.Sprintf("random-%d", g))
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			if err := p.AddRouter(fmt.Sprintf("n%02d", rng.Intn(1000)*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		names := p.Nodes()
		for e := 0; e < n*(1+rng.Intn(4)); e++ {
			a, b := names[rng.Intn(n)], names[rng.Intn(n)]
			if a == b {
				continue
			}
			if err := p.Connect(a, b, fmt.Sprintf("l%d", e), 1e9, lats[rng.Intn(len(lats))]); err != nil {
				t.Fatal(err)
			}
		}
		checkTreesMatchScan(t, p, names)
	}
}

// TestNameListsCached: Hosts and Nodes are sorted once, hand out
// copies the caller may modify, and follow node additions and a
// changed frontend.
func TestNameListsCached(t *testing.T) {
	p := New("lists")
	for _, h := range []string{"h2", "h1", "fe"} {
		if err := p.AddHost(h, ip("10.0.0.1"), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddRouter("r"); err != nil {
		t.Fatal(err)
	}
	p.Frontend = "fe"
	hosts := p.Hosts()
	if want := []string{"h1", "h2"}; !reflect.DeepEqual(hosts, want) {
		t.Fatalf("Hosts() = %v, want %v", hosts, want)
	}
	hosts[0] = "mutated"
	p.Nodes()[0] = "mutated"
	if got := p.Hosts(); got[0] != "h1" {
		t.Fatalf("a caller's edit reached the cached host list: %v", got)
	}
	if got, want := p.Nodes(), []string{"fe", "h1", "h2", "r"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	if err := p.AddHost("h0", ip("10.0.0.2"), 1e9); err != nil {
		t.Fatal(err)
	}
	p.Frontend = "h2"
	if got, want := p.Hosts(), []string{"fe", "h0", "h1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddHost and a new frontend, Hosts() = %v, want %v", got, want)
	}
	if got := p.Nodes(); !slices.IsSorted(got) || len(got) != 5 {
		t.Fatalf("after AddHost, Nodes() = %v", got)
	}
}

// TestNameListsConcurrent: the lazily built name lists and route trees
// of one platform may be first used from several goroutines at once.
func TestNameListsConcurrent(t *testing.T) {
	p, err := LAN(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hosts := p.Hosts()
			if len(hosts) != 64 || len(p.Nodes()) != 67 {
				t.Errorf("%d hosts, %d nodes; want 64, 67", len(hosts), len(p.Nodes()))
				return
			}
			if _, err := p.Path(hosts[g], hosts[63-g]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
