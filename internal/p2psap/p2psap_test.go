package p2psap

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/proximity"
)

// lanPair builds a 2-host LAN-latency platform network.
func lanPair(t testing.TB, bw, lat float64) (*des.Simulation, *netsim.Post) {
	t.Helper()
	p := platform.New("pair")
	ip := proximity.MustParseAddr
	if err := p.AddHost("a", ip("10.0.0.1"), 1e9); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHost("b", ip("10.0.0.2"), 1e9); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect("a", "b", "ab", bw, lat); err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	n, err := p.NewNetwork(sim)
	if err != nil {
		t.Fatal(err)
	}
	return sim, netsim.NewPost(n)
}

func TestAdaptProfileThresholds(t *testing.T) {
	if got := AdaptProfile(100e-6); got.Name != "cluster" {
		t.Fatalf("100µs -> %s, want cluster", got.Name)
	}
	if got := AdaptProfile(2e-3); got.Name != "lan" {
		t.Fatalf("2ms -> %s, want lan", got.Name)
	}
	if got := AdaptProfile(30e-3); got.Name != "wan" {
		t.Fatalf("30ms -> %s, want wan", got.Name)
	}
}

func TestChannelAdaptsToPathLatency(t *testing.T) {
	sim, post := lanPair(t, 12.5e6, 2e-3) // 2 ms path -> LAN profile
	pr := New(post)
	ch, err := pr.Channel("a", "b", "t", Synchronous)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Profile().Name != "lan" {
		t.Fatalf("profile = %s, want lan", ch.Profile().Name)
	}
	if pr.Adaptations != 1 {
		t.Fatalf("adaptations = %d", pr.Adaptations)
	}
	_ = sim
}

func TestChannelIsSymmetricAndCached(t *testing.T) {
	_, post := lanPair(t, 12.5e6, 1e-4)
	pr := New(post)
	ab, _ := pr.Channel("a", "b", "t", Synchronous)
	ba, _ := pr.Channel("b", "a", "t", Synchronous)
	if ab != ba {
		t.Fatal("channel not shared between directions")
	}
	other, _ := pr.Channel("a", "b", "u", Synchronous)
	if other == ab {
		t.Fatal("different tags must give different channels")
	}
}

func TestSchemeChangeCountsAdaptation(t *testing.T) {
	_, post := lanPair(t, 12.5e6, 1e-4)
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "t", Synchronous)
	before := pr.Adaptations
	ch2, _ := pr.Channel("a", "b", "t", Asynchronous)
	if ch2 != ch {
		t.Fatal("reconfiguration must reuse the channel")
	}
	if pr.Adaptations != before+1 {
		t.Fatal("scheme change not counted as adaptation")
	}
	if ch.Scheme() != Asynchronous {
		t.Fatal("scheme not updated")
	}
}

func TestSendBlockingWaitsForDelivery(t *testing.T) {
	sim, post := lanPair(t, 1e6, 0.01)
	pr := New(post)
	ch, err := pr.Channel("a", "b", "data", Synchronous)
	if err != nil {
		t.Fatal(err)
	}
	var sendReturned, recvAt float64 = -1, -1
	sim.Spawn("sender", 0, func(p *des.Process) {
		if err := ch.SendBlocking(p, "a", 1e6, "payload"); err != nil {
			t.Error(err)
		}
		sendReturned = p.Now()
	})
	sim.Spawn("receiver", 0, func(p *des.Process) {
		v, err := ch.Recv(p, "b")
		if err != nil {
			t.Error(err)
		}
		if v.(string) != "payload" {
			t.Errorf("payload = %v", v)
		}
		recvAt = p.Now()
	})
	sim.Run()
	// 10 ms path latency adapts to the WAN profile.
	prof := ch.Profile()
	if prof.Name != "wan" {
		t.Fatalf("profile = %s, want wan for a 10 ms path", prof.Name)
	}
	// Wire time: sendOverhead + latency + (1e6+frame)/1e6.
	wire := prof.SendOverhead + 0.01 + (1e6+prof.FrameBytes)/1e6
	if math.Abs(sendReturned-wire) > 1e-6 {
		t.Fatalf("send returned at %v, want ~%v", sendReturned, wire)
	}
	if recvAt < sendReturned {
		t.Fatalf("recv (%v) before send completion (%v)", recvAt, sendReturned)
	}
	if math.Abs(recvAt-(wire+prof.RecvOverhead)) > 1e-6 {
		t.Fatalf("recv at %v, want wire+recvOverhead", recvAt)
	}
}

func TestEagerSendDoesNotBlock(t *testing.T) {
	sim, post := lanPair(t, 1e3, 0) // very slow link
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "data", Synchronous)
	var sendReturned float64 = -1
	sim.Spawn("sender", 0, func(p *des.Process) {
		if err := ch.Send(p, "a", 1e3, nil); err != nil {
			t.Error(err)
		}
		sendReturned = p.Now()
	})
	sim.Spawn("receiver", 0, func(p *des.Process) {
		ch.Recv(p, "b")
	})
	sim.Run()
	if sendReturned > ClusterProfile.SendOverhead+1e-9 {
		t.Fatalf("async send blocked until %v", sendReturned)
	}
}

func TestTryRecvLatestDropsStale(t *testing.T) {
	sim, post := lanPair(t, 1e9, 1e-4)
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "bnd", Asynchronous)
	sim.Spawn("sender", 0, func(p *des.Process) {
		for i := 0; i < 5; i++ {
			if err := ch.Send(p, "a", 8, i); err != nil {
				t.Error(err)
			}
		}
	})
	var got interface{}
	var ok bool
	sim.Spawn("receiver", 1, func(p *des.Process) { // starts after all arrive
		var err error
		got, ok, err = ch.TryRecvLatest(p, "b")
		if err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if !ok || got.(int) != 4 {
		t.Fatalf("latest = %v (ok=%v), want 4", got, ok)
	}
	if ch.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4", ch.Dropped)
	}
}

// TestTryRecvLatestSurvivesRecycling: the payload TryRecvLatest
// returns stays as it was after later messages reuse the records of
// the ones it dropped.
func TestTryRecvLatestSurvivesRecycling(t *testing.T) {
	sim, post := lanPair(t, 1e9, 1e-4)
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "bnd", Asynchronous)
	burst := func(p *des.Process, from, to int) {
		for i := from; i < to; i++ {
			if err := ch.Send(p, "a", 8, []int{i}); err != nil {
				t.Error(err)
			}
		}
	}
	var first, second interface{}
	sim.Spawn("sender", 0, func(p *des.Process) {
		burst(p, 0, 4)
		p.Sleep(1)
		burst(p, 4, 8)
	})
	sim.Spawn("receiver", 0.5, func(p *des.Process) {
		first, _, _ = ch.TryRecvLatest(p, "b")
		p.Sleep(1)
		second, _, _ = ch.TryRecvLatest(p, "b")
	})
	sim.Run()
	if got, ok := first.([]int); !ok || len(got) != 1 || got[0] != 3 {
		t.Fatalf("first latest = %v, want [3]", first)
	}
	if got, ok := second.([]int); !ok || len(got) != 1 || got[0] != 7 {
		t.Fatalf("second latest = %v, want [7]", second)
	}
	if ch.Dropped != 6 || ch.Received != 2 {
		t.Fatalf("dropped %d, received %d; want 6, 2", ch.Dropped, ch.Received)
	}
}

func TestTryRecvLatestEmpty(t *testing.T) {
	sim, post := lanPair(t, 1e9, 1e-4)
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "bnd", Asynchronous)
	sim.Spawn("receiver", 0, func(p *des.Process) {
		_, ok, err := ch.TryRecvLatest(p, "b")
		if err != nil || ok {
			t.Errorf("empty TryRecvLatest = ok=%v err=%v", ok, err)
		}
	})
	sim.Run()
}

func TestEndpointValidation(t *testing.T) {
	sim, post := lanPair(t, 1e9, 1e-4)
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "t", Synchronous)
	sim.Spawn("x", 0, func(p *des.Process) {
		if err := ch.Send(p, "zzz", 8, nil); err == nil {
			t.Error("foreign sender accepted")
		}
		if _, err := ch.Recv(p, "zzz"); err == nil {
			t.Error("foreign receiver accepted")
		}
		if err := ch.Send(p, "a", -1, nil); err == nil {
			t.Error("negative size accepted")
		}
	})
	sim.Run()
}

func TestChannelUnknownHost(t *testing.T) {
	_, post := lanPair(t, 1e9, 1e-4)
	pr := New(post)
	if _, err := pr.Channel("a", "nosuch", "t", Synchronous); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestTrafficCounters(t *testing.T) {
	sim, post := lanPair(t, 1e9, 1e-4)
	pr := New(post)
	ch, _ := pr.Channel("a", "b", "t", Synchronous)
	sim.Spawn("s", 0, func(p *des.Process) {
		ch.Send(p, "a", 1000, nil)
		ch.Send(p, "a", 1000, nil)
	})
	sim.Spawn("r", 0, func(p *des.Process) {
		ch.Recv(p, "b")
		ch.Recv(p, "b")
	})
	sim.Run()
	if ch.Sent != 2 || ch.Received != 2 {
		t.Fatalf("sent/received = %d/%d", ch.Sent, ch.Received)
	}
	wantWire := 2 * (1000 + ClusterProfile.FrameBytes)
	if math.Abs(ch.BytesOnWire-wantWire) > 1e-9 {
		t.Fatalf("wire bytes = %v, want %v", ch.BytesOnWire, wantWire)
	}
}

func TestSchemeString(t *testing.T) {
	if Synchronous.String() != "synchronous" || Asynchronous.String() != "asynchronous" {
		t.Fatal("scheme names wrong")
	}
}
