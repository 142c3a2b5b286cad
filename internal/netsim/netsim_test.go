package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// staticRoutes is a trivial RouteProvider for tests.
type staticRoutes struct {
	routes map[[2]string]*Route
}

func (sr *staticRoutes) Route(src, dst string) (*Route, error) {
	if r, ok := sr.routes[[2]string{src, dst}]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("no route")
}

// pair builds a two-host network joined by one link.
func pair(t testing.TB, bw, lat float64) (*des.Simulation, *Network) {
	t.Helper()
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	if _, err := n.AddHost("a", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("b", 1e9); err != nil {
		t.Fatal(err)
	}
	l, err := n.AddLink("ab", bw, lat)
	if err != nil {
		t.Fatal(err)
	}
	r := &Route{Links: []*Link{l}, Latency: lat}
	sr.routes[[2]string{"a", "b"}] = r
	sr.routes[[2]string{"b", "a"}] = r
	return sim, n
}

func TestSingleFlowTime(t *testing.T) {
	sim, n := pair(t, 1e6, 0.01) // 1 MB/s, 10 ms
	var done float64 = -1
	if _, err := n.StartFlow("a", "b", 2e6, func() { done = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	want := 0.01 + 2.0 // latency + 2 MB / 1 MB/s
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("completion = %v, want %v", done, want)
	}
}

func TestZeroByteFlowIsLatencyOnly(t *testing.T) {
	sim, n := pair(t, 1e6, 0.25)
	var done float64 = -1
	if _, err := n.StartFlow("a", "b", 0, func() { done = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if math.Abs(done-0.25) > 1e-12 {
		t.Fatalf("zero-byte completion = %v, want 0.25", done)
	}
}

func TestLoopbackFlow(t *testing.T) {
	sim, n := pair(t, 1e6, 0.25)
	var done float64 = -1
	if _, err := n.StartFlow("a", "a", 1e9, func() { done = sim.Now() }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if done != LoopbackLatency {
		t.Fatalf("loopback completion = %v, want %v", done, LoopbackLatency)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	sim, n := pair(t, 1e6, 0)
	var d1, d2 float64 = -1, -1
	n.StartFlow("a", "b", 1e6, func() { d1 = sim.Now() })
	n.StartFlow("a", "b", 1e6, func() { d2 = sim.Now() })
	sim.Run()
	// Both share 1 MB/s -> each gets 0.5 MB/s -> both finish at t=2.
	if math.Abs(d1-2) > 1e-9 || math.Abs(d2-2) > 1e-9 {
		t.Fatalf("completions = %v, %v; want 2, 2", d1, d2)
	}
}

func TestLateFlowReclaimsBandwidth(t *testing.T) {
	sim, n := pair(t, 1e6, 0)
	var d1, d2 float64
	n.StartFlow("a", "b", 1e6, func() { d1 = sim.Now() })
	sim.Schedule(0.5, func() {
		n.StartFlow("a", "b", 1e6, func() { d2 = sim.Now() })
	})
	sim.Run()
	// Flow1: 0.5 MB alone in [0,0.5], then shares 0.5 MB/s.
	// Remaining 0.5 MB at 0.5 MB/s -> done at 1.5.
	if math.Abs(d1-1.5) > 1e-9 {
		t.Fatalf("d1 = %v, want 1.5", d1)
	}
	// Flow2: [0.5,1.5] at 0.5 MB/s -> 0.5 MB done, 0.5 MB left alone at
	// full speed -> done at 2.0.
	if math.Abs(d2-2.0) > 1e-9 {
		t.Fatalf("d2 = %v, want 2.0", d2)
	}
}

func TestMultiLinkBottleneck(t *testing.T) {
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	n.AddHost("a", 1e9)
	n.AddHost("b", 1e9)
	fast, _ := n.AddLink("fast", 10e6, 0.001)
	slow, _ := n.AddLink("slow", 1e6, 0.002)
	sr.routes[[2]string{"a", "b"}] = &Route{Links: []*Link{fast, slow}, Latency: 0.003}
	var done float64
	n.StartFlow("a", "b", 1e6, func() { done = sim.Now() })
	sim.Run()
	want := 0.003 + 1.0 // bottleneck 1 MB/s
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestMaxMinFairnessAsymmetric(t *testing.T) {
	// Flow X crosses links L1(1MB/s) and L2(10MB/s); flow Y crosses only
	// L2. X is capped at 1 on L1 shared alone; Y gets the rest of L2.
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	n.AddHost("a", 1e9)
	n.AddHost("b", 1e9)
	n.AddHost("c", 1e9)
	l1, _ := n.AddLink("l1", 1e6, 0)
	l2, _ := n.AddLink("l2", 10e6, 0)
	sr.routes[[2]string{"a", "b"}] = &Route{Links: []*Link{l1, l2}}
	sr.routes[[2]string{"c", "b"}] = &Route{Links: []*Link{l2}}
	var fx, fy *Flow
	fx, _ = n.StartFlow("a", "b", 1e6, nil)
	fy, _ = n.StartFlow("c", "b", 90e6, nil)
	sim.Schedule(0, func() {}) // force activation events to run first
	sim.RunUntil(0.0001)
	if math.Abs(fx.Rate()-1e6) > 1 {
		t.Fatalf("fx rate = %v, want 1e6", fx.Rate())
	}
	if math.Abs(fy.Rate()-9e6) > 1 {
		t.Fatalf("fy rate = %v, want 9e6 (residual of l2)", fy.Rate())
	}
	sim.Run()
}

func TestUnknownHostErrors(t *testing.T) {
	_, n := pair(t, 1e6, 0)
	if _, err := n.StartFlow("a", "zzz", 10, nil); err == nil {
		t.Fatal("expected error for unknown host")
	}
	if _, err := n.TransferTime("zzz", "a", 10); err == nil {
		t.Fatal("expected error for unknown host")
	}
}

func TestNoRouteErrors(t *testing.T) {
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	n.AddHost("a", 1e9)
	n.AddHost("b", 1e9)
	if _, err := n.StartFlow("a", "b", 10, nil); err == nil {
		t.Fatal("expected routing error")
	}
}

func TestDuplicateHostAndLink(t *testing.T) {
	sim := des.New()
	n := New(sim, &staticRoutes{})
	if _, err := n.AddHost("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("a", 1); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if _, err := n.AddLink("l", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("l", 1, 0); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if _, err := n.AddHost("bad", 0); err == nil {
		t.Fatal("zero-speed host accepted")
	}
	if _, err := n.AddLink("bad", -1, 0); err == nil {
		t.Fatal("negative-bandwidth link accepted")
	}
}

func TestTransferTime(t *testing.T) {
	_, n := pair(t, 2e6, 0.1)
	got, err := n.TransferTime("a", "b", 4e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.1) > 1e-9 {
		t.Fatalf("TransferTime = %v, want 2.1", got)
	}
}

func TestHostsSorted(t *testing.T) {
	sim := des.New()
	n := New(sim, &staticRoutes{})
	n.AddHost("c", 1)
	n.AddHost("a", 1)
	n.AddHost("b", 1)
	names := n.Hosts()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Hosts() = %v", names)
	}
}

// Property: total bytes conservation — a solo flow of any size over any
// link finishes at exactly latency + bytes/bandwidth.
func TestPropertySoloFlowExactTime(t *testing.T) {
	f := func(kb uint16, bwKBs uint16, latMs uint8) bool {
		bytes := float64(kb)*1024 + 1
		bw := float64(bwKBs)*1024 + 1024
		lat := float64(latMs) / 1000.0
		sim, n := pairQuick(bw, lat)
		var done float64 = -1
		n.StartFlow("a", "b", bytes, func() { done = sim.Now() })
		sim.Run()
		want := lat + bytes/bw
		return math.Abs(done-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with k equal flows on one link, all finish simultaneously at
// latency + k*bytes/bandwidth.
func TestPropertyEqualSharing(t *testing.T) {
	f := func(kRaw uint8, kb uint16) bool {
		k := int(kRaw%7) + 1
		bytes := float64(kb) + 1000
		bw := 1e6
		sim, n := pairQuick(bw, 0)
		times := make([]float64, 0, k)
		for i := 0; i < k; i++ {
			n.StartFlow("a", "b", bytes, func() { times = append(times, sim.Now()) })
		}
		sim.Run()
		want := float64(k) * bytes / bw
		for _, tm := range times {
			if math.Abs(tm-want) > 1e-6*want+1e-9 {
				return false
			}
		}
		return len(times) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func pairQuick(bw, lat float64) (*des.Simulation, *Network) {
	sim := des.New()
	sr := &staticRoutes{routes: make(map[[2]string]*Route)}
	n := New(sim, sr)
	n.AddHost("a", 1e9)
	n.AddHost("b", 1e9)
	l, _ := n.AddLink("ab", bw, lat)
	r := &Route{Links: []*Link{l}, Latency: lat}
	sr.routes[[2]string{"a", "b"}] = r
	sr.routes[[2]string{"b", "a"}] = r
	return sim, n
}

// --- Post (mailbox) tests ---

func TestPostSendRecv(t *testing.T) {
	sim, n := pair(t, 1e6, 0.01)
	po := NewPost(n)
	var recvAt float64 = -1
	var got Message
	sim.Spawn("recv", 0, func(p *des.Process) {
		got = po.Recv(p, "b", "data")
		recvAt = p.Now()
	})
	sim.Spawn("send", 0, func(p *des.Process) {
		if err := po.Send(p, "a", "b", "data", 1e6, "hello"); err != nil {
			t.Error(err)
		}
		// Synchronous send returns only after delivery.
		if p.Now() < 1.01-1e-9 {
			t.Errorf("send returned early at %v", p.Now())
		}
	})
	sim.Run()
	want := 0.01 + 1.0
	if math.Abs(recvAt-want) > 1e-9 {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
	if got.Payload.(string) != "hello" || got.From != "a" {
		t.Fatalf("bad message %+v", got)
	}
	if got.SentAt != 0 || math.Abs(got.DeliveredAt-want) > 1e-9 {
		t.Fatalf("timestamps: %+v", got)
	}
}

func TestPostSendAsyncDoesNotBlock(t *testing.T) {
	sim, n := pair(t, 1e3, 0) // slow link: 1 KB/s
	po := NewPost(n)
	var sendDone float64 = -1
	sim.Spawn("send", 0, func(p *des.Process) {
		if err := po.SendAsync("a", "b", "t", 1e3, nil); err != nil {
			t.Error(err)
		}
		sendDone = p.Now()
	})
	var recvAt float64
	sim.Spawn("recv", 0, func(p *des.Process) {
		po.Recv(p, "b", "t")
		recvAt = p.Now()
	})
	sim.Run()
	if sendDone != 0 {
		t.Fatalf("async send blocked until %v", sendDone)
	}
	if math.Abs(recvAt-1.0) > 1e-9 {
		t.Fatalf("recv at %v, want 1.0", recvAt)
	}
}

func TestPostTryRecv(t *testing.T) {
	sim, n := pair(t, 1e6, 0)
	po := NewPost(n)
	if _, ok := po.TryRecv("b", "t"); ok {
		t.Fatal("TryRecv on empty mailbox succeeded")
	}
	po.SendAsync("a", "b", "t", 100, 42)
	sim.Run()
	if po.Pending("b", "t") != 1 {
		t.Fatalf("pending = %d", po.Pending("b", "t"))
	}
	m, ok := po.TryRecv("b", "t")
	if !ok || m.Payload.(int) != 42 {
		t.Fatalf("TryRecv = %+v, %v", m, ok)
	}
}

func TestPostTagsAreIndependent(t *testing.T) {
	sim, n := pair(t, 1e9, 0)
	po := NewPost(n)
	po.SendAsync("a", "b", "t1", 8, "one")
	po.SendAsync("a", "b", "t2", 8, "two")
	var got string
	sim.Spawn("r", 0, func(p *des.Process) {
		got = po.Recv(p, "b", "t2").Payload.(string)
	})
	sim.Run()
	if got != "two" {
		t.Fatalf("got %q from tag t2", got)
	}
	if po.Pending("b", "t1") != 1 {
		t.Fatal("t1 message lost")
	}
}

func TestPostCompute(t *testing.T) {
	sim, n := pair(t, 1e6, 0)
	po := NewPost(n)
	var at float64
	sim.Spawn("c", 0, func(p *des.Process) {
		if err := po.Compute(p, "a", 2e9); err != nil { // 2 Gflop at 1 Gflop/s
			t.Error(err)
		}
		at = p.Now()
	})
	sim.Run()
	if math.Abs(at-2.0) > 1e-9 {
		t.Fatalf("compute finished at %v, want 2.0", at)
	}
}

func TestPostComputeErrors(t *testing.T) {
	sim, n := pair(t, 1e6, 0)
	po := NewPost(n)
	sim.Spawn("c", 0, func(p *des.Process) {
		if err := po.Compute(p, "nope", 1); err == nil {
			t.Error("unknown host accepted")
		}
		if err := po.Compute(p, "a", -5); err == nil {
			t.Error("negative work accepted")
		}
	})
	sim.Run()
}

func BenchmarkThousandFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, n := pairQuick(1e9, 0.0001)
		for j := 0; j < 1000; j++ {
			n.StartFlow("a", "b", 1e6, nil)
		}
		sim.Run()
	}
}
