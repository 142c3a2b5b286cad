package netsim

import (
	"testing"

	"repro/internal/des"
)

type poolRoutes struct{ links []*Link }

func (r poolRoutes) Route(src, dst string) (*Route, error) {
	return &Route{Links: r.links, Latency: 1e-4}, nil
}

func poolNet(t *testing.T) (*des.Simulation, *Network) {
	t.Helper()
	sim := des.New()
	n := New(sim, nil)
	if _, err := n.AddHost("a", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("b", 1e9); err != nil {
		t.Fatal(err)
	}
	l, err := n.AddLink("ab", 1e8, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	n.provider = poolRoutes{links: []*Link{l}}
	return sim, n
}

// TestTransientFlowPooling: transient flows are recycled after
// completion and reused by later transfers; persistent flows are not.
func TestTransientFlowPooling(t *testing.T) {
	sim, n := poolNet(t)
	done := 0
	for i := 0; i < 8; i++ {
		if _, err := n.StartFlowTransient("a", "b", 1e6, func() { done++ }); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	}
	if done != 8 {
		t.Fatalf("completed %d transfers, want 8", done)
	}
	if len(n.flowPool) != 1 {
		t.Fatalf("flow pool holds %d records, want 1 (sequential transfers reuse one)", len(n.flowPool))
	}

	// A persistent handle may draw from the pool but is never
	// returned to it, so its fields survive completion.
	f, err := n.StartFlow("a", "b", 2e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(n.flowPool) != 0 {
		t.Fatalf("persistent flow was recycled (pool %d)", len(n.flowPool))
	}
	if f.Bytes != 2e6 || f.Remaining() != 0 || !f.done {
		t.Fatalf("persistent handle corrupted: %+v", f)
	}
}

// TestTransientLoopbackAndZeroByte: the recycle paths that bypass
// bandwidth sharing (loopback, zero-byte) also return records to the
// pool.
func TestTransientLoopbackAndZeroByte(t *testing.T) {
	sim, n := poolNet(t)
	ran := 0
	if _, err := n.StartFlowTransient("a", "a", 123, func() { ran++ }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if _, err := n.StartFlowTransient("a", "b", 0, func() { ran++ }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if ran != 2 {
		t.Fatalf("callbacks ran %d times, want 2", ran)
	}
	if len(n.flowPool) != 1 {
		t.Fatalf("flow pool holds %d records, want 1", len(n.flowPool))
	}
}

// TestPendingMessages: the post office reports delivered-but-unread
// messages across all mailboxes.
func TestPendingMessages(t *testing.T) {
	sim, n := poolNet(t)
	po := NewPost(n)
	if err := po.SendAsync("a", "b", "x", 100, "hi"); err != nil {
		t.Fatal(err)
	}
	if err := po.SendAsync("a", "b", "y", 100, "ho"); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got := po.PendingMessages(); got != 2 {
		t.Fatalf("PendingMessages = %d, want 2", got)
	}
	if _, ok := po.TryRecv("b", "x"); !ok {
		t.Fatal("message not delivered")
	}
	if got := po.PendingMessages(); got != 1 {
		t.Fatalf("PendingMessages = %d after one read, want 1", got)
	}
}

// TestRecycledMessageKeepsReceivedValue: Recv returns the message by
// value and recycles its record at once, so later sends that reuse the
// record never change what was already received.
func TestRecycledMessageKeepsReceivedValue(t *testing.T) {
	sim, n := poolNet(t)
	po := NewPost(n)
	var first Message
	sim.Spawn("recv", 0, func(p *des.Process) {
		first = po.Recv(p, "b", "x")
		if len(po.free) != 1 {
			t.Errorf("pool holds %d records after the read, want 1", len(po.free))
		}
		for i := 1; i <= 3; i++ {
			if err := po.SendAsync("a", "b", "x", 100, i); err != nil {
				t.Error(err)
			}
		}
		for i := 1; i <= 3; i++ {
			if m := po.Recv(p, "b", "x"); m.Payload != i {
				t.Errorf("message %d carried %v", i, m.Payload)
			}
		}
	})
	if err := po.SendAsync("a", "b", "x", 100, "first"); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	want := Message{From: "a", To: "b", Tag: "x", Bytes: 100, Payload: "first", SentAt: 0, DeliveredAt: first.DeliveredAt}
	if first != want || first.DeliveredAt <= 0 {
		t.Fatalf("received %+v, want %+v", first, want)
	}
	if len(po.free) != 3 || po.PendingMessages() != 0 {
		t.Fatalf("pool %d records, %d pending; want 3, 0", len(po.free), po.PendingMessages())
	}
}

// TestRecycledMessageAfterDrainingStale: draining a mailbox for its
// latest message, as TryRecvLatest does, recycles every dropped record;
// refilling the mailbox from those records leaves the kept value as it
// was.
func TestRecycledMessageAfterDrainingStale(t *testing.T) {
	sim, n := poolNet(t)
	po := NewPost(n)
	send := func(payloads ...string) {
		t.Helper()
		for _, v := range payloads {
			if err := po.SendAsync("a", "b", "x", 100, v); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
	}
	send("stale1", "stale2", "latest")
	var last Message
	dropped := -1
	for {
		m, ok := po.TryRecv("b", "x")
		if !ok {
			break
		}
		last = m
		dropped++
	}
	if last.Payload != "latest" || dropped != 2 || len(po.free) != 3 {
		t.Fatalf("kept %v after dropping %d (pool %d), want latest after 2 (pool 3)", last.Payload, dropped, len(po.free))
	}
	send("next1", "next2", "next3")
	if len(po.free) != 0 || po.Pending("b", "x") != 3 {
		t.Fatalf("refill left pool %d, pending %d; want 0, 3", len(po.free), po.Pending("b", "x"))
	}
	if last.Payload != "latest" || last.Tag != "x" || last.Bytes != 100 {
		t.Fatalf("kept message changed to %+v", last)
	}
}
