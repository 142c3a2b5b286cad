package netsim

import (
	"fmt"

	"repro/internal/des"
)

// Message is a payload delivered through a mailbox once its simulated
// transfer completes. Receives return it by value: the record that
// carried it is recycled for a later send as soon as it is read, and
// the copy the receiver holds never changes.
type Message struct {
	From    string
	To      string
	Tag     string
	Bytes   float64
	Payload interface{}
	// SentAt and DeliveredAt are virtual timestamps.
	SentAt      float64
	DeliveredAt float64
}

// Mailbox is the per-(host, tag) queue of delivered messages, resolved
// once by name (Post.Mailbox) and then used as a handle: SendAsyncTo
// and SendTo deliver into it, Recv and TryRecv read from it.
type Mailbox struct {
	post *Post
	host *Host  // nil for a box a receive opened on an unknown host name
	at   string // the host name
	tag  string
	q    *des.Queue // of *Message records from the post's pool
}

// boxKey addresses a mailbox by name. A struct key keeps the lookup
// allocation-free (a concatenated string key would allocate).
type boxKey struct {
	host, tag string
}

// FlowStart is the boundary record of one message send, exchanged
// between the kernels of a partitioned replay. The owning partition
// records every non-loopback send; every other partition injects the
// record as a ghost flow (see Network.InjectArrival) so flow-level
// bandwidth sharing stays a bit-identical global computation, and the
// partition owning the destination host additionally delivers the
// message into its local mailbox at the flow's completion.
type FlowStart struct {
	Src, Dst string
	Tag      string
	Bytes    float64 // on-wire size, framing included
	Payload  interface{}
	// StartedAt is the virtual send instant in the originating kernel.
	StartedAt float64
	// Seq orders same-instant records from one partition (the
	// originating kernel's send order); the merge across partitions is
	// (StartedAt, partition, Seq).
	Seq uint64
}

// Post is the message-passing layer over the flow simulator. A Post is
// bound to one Network; mailboxes are created on demand.
type Post struct {
	net   *Network
	boxes map[boxKey]*Mailbox
	// free is the Message record pool; pending counts the messages
	// delivered and not yet read, across all mailboxes.
	free    []*Message
	pending int

	// Partition mode (see SetPartition): local filters delivery to the
	// hosts this kernel owns, onStart observes every non-loopback send
	// for the boundary exchange, sendSeq orders the records.
	local   func(host string) bool
	onStart func(FlowStart)
	sendSeq uint64
}

// NewPost creates the message layer for a network.
func NewPost(n *Network) *Post {
	return &Post{net: n, boxes: make(map[boxKey]*Mailbox)}
}

// SetPartition switches the message layer into (or out of) partition
// mode. With a non-nil local predicate, a completed transfer is
// delivered into its destination mailbox only when the destination
// host is local — the kernel owning that host performs the delivery
// from its own injected copy of the flow — and every non-loopback
// send is reported to onStart for the boundary exchange. Passing
// (nil, nil) restores monolithic behaviour. The send sequence counter
// restarts on every call so records from successive runs are ordered
// from zero.
func (po *Post) SetPartition(local func(host string) bool, onStart func(FlowStart)) {
	po.local = local
	po.onStart = onStart
	po.sendSeq = 0
}

// newMessage takes a Message record from the pool, or allocates one.
func (po *Post) newMessage() *Message {
	if k := len(po.free); k > 0 {
		m := po.free[k-1]
		po.free[k-1] = nil
		po.free = po.free[:k-1]
		return m
	}
	return &Message{}
}

// delivers reports whether this kernel delivers to the host: always,
// unless partition mode leaves the host to another kernel.
func (po *Post) delivers(host string) bool {
	return po.local == nil || po.local(host)
}

// deliver places a completed transfer's message in the mailbox.
func (b *Mailbox) deliver(m *Message) {
	m.DeliveredAt = b.post.net.sim.Now()
	b.post.pending++
	b.q.Put(m)
}

// take copies a read record out and recycles it.
func (b *Mailbox) take(v interface{}) Message {
	m := v.(*Message)
	out := *m
	*m = Message{}
	po := b.post
	po.pending--
	po.free = append(po.free, m)
	return out
}

// record reports a send to the boundary exchange. Loopback transfers
// never leave their partition (they do not consume link bandwidth and
// both endpoints are one host), so they are not recorded.
func (po *Post) record(src, dst, tag string, bytes float64, payload interface{}) {
	if po.onStart == nil || src == dst {
		return
	}
	po.sendSeq++
	po.onStart(FlowStart{
		Src: src, Dst: dst, Tag: tag, Bytes: bytes, Payload: payload,
		StartedAt: po.net.sim.Now(), Seq: po.sendSeq,
	})
}

// InjectRemote replays another partition's FlowStart record in this
// kernel: the flow participates in bandwidth sharing from its exact
// remote activation instant, and — when this partition owns the
// destination host — delivers the message on completion.
func (po *Post) InjectRemote(rec FlowStart) error {
	if !po.delivers(rec.Dst) {
		return po.net.InjectArrival(rec.Src, rec.Dst, rec.Bytes, rec.StartedAt, nil)
	}
	box := po.box(rec.Dst, rec.Tag)
	msg := &Message{From: rec.Src, To: rec.Dst, Tag: rec.Tag, Bytes: rec.Bytes, Payload: rec.Payload, SentAt: rec.StartedAt}
	return po.net.InjectArrival(rec.Src, rec.Dst, rec.Bytes, rec.StartedAt, func() { box.deliver(msg) })
}

// Net returns the underlying network.
func (po *Post) Net() *Network { return po.net }

// box returns the (host, tag) mailbox, creating it on first use. A box
// on an unknown host can be waited on but never receives anything.
func (po *Post) box(host, tag string) *Mailbox {
	key := boxKey{host: host, tag: tag}
	b, ok := po.boxes[key]
	if !ok {
		b = &Mailbox{post: po, host: po.net.hosts[host], at: host, tag: tag, q: po.net.sim.NewQueue()}
		po.boxes[key] = b
	}
	return b
}

// Mailbox resolves the (host, tag) mailbox once, creating it on first
// use; the handle then serves every send and receive.
func (po *Post) Mailbox(host, tag string) (*Mailbox, error) {
	if po.net.hosts[host] == nil {
		return nil, fmt.Errorf("netsim: mailbox on unknown host %q", host)
	}
	return po.box(host, tag), nil
}

// resolve looks up a send's endpoints by name.
func (po *Post) resolve(src, dst, tag string) (*Host, *Mailbox, error) {
	hs, hd := po.net.hosts[src], po.net.hosts[dst]
	if hs == nil || hd == nil {
		return nil, nil, fmt.Errorf("netsim: unknown host in flow %s -> %s", src, dst)
	}
	return hs, po.box(dst, tag), nil
}

// SendAsync starts the transfer and returns immediately; the message
// appears in the destination mailbox when the flow completes. It
// resolves the names and delegates to SendAsyncTo.
func (po *Post) SendAsync(src, dst, tag string, bytes float64, payload interface{}) error {
	hs, box, err := po.resolve(src, dst, tag)
	if err != nil {
		return err
	}
	return po.SendAsyncTo(hs, box, bytes, payload)
}

// Send transfers synchronously: the calling process blocks until the
// message has been fully delivered into the destination mailbox. It
// resolves the names and delegates to SendTo.
func (po *Post) Send(p *des.Process, src, dst, tag string, bytes float64, payload interface{}) error {
	hs, box, err := po.resolve(src, dst, tag)
	if err != nil {
		return err
	}
	return po.SendTo(p, hs, box, bytes, payload)
}

// SendAsyncTo is SendAsync on resolved handles: the transfer from src
// to the mailbox's host starts and the call returns; the message
// appears in the mailbox when the flow completes. The flow and message
// records are pooled, so a steady-state send allocates nothing.
func (po *Post) SendAsyncTo(src *Host, to *Mailbox, bytes float64, payload interface{}) error {
	return po.send(src, to, bytes, payload, nil)
}

// SendTo is Send on resolved handles: the calling process blocks until
// the message has been delivered into the mailbox.
func (po *Post) SendTo(p *des.Process, src *Host, to *Mailbox, bytes float64, payload interface{}) error {
	c := po.net.sim.NewCond()
	if err := po.send(src, to, bytes, payload, c); err != nil {
		return err
	}
	c.Wait(p)
	return nil
}

// send starts a message transfer whose flow delivers into the mailbox
// and then signals wake, if set.
func (po *Post) send(src *Host, to *Mailbox, bytes float64, payload interface{}, wake *des.Cond) error {
	n := po.net
	route, err := n.routeFor(src, to.host, bytes)
	if err != nil {
		return err
	}
	f := n.newFlow()
	f.pooled, f.wake = true, wake
	if po.delivers(to.at) {
		m := po.newMessage()
		*m = Message{From: src.Name, To: to.at, Tag: to.tag, Bytes: bytes, Payload: payload, SentAt: n.sim.Now()}
		f.msg, f.box = m, to
	}
	n.launch(f, src, to.host, bytes, route)
	po.record(src.Name, to.at, to.tag, bytes, payload)
	return nil
}

// Recv blocks the process until a message is available in the mailbox
// (host, tag) and returns it. It resolves the names and delegates to
// Mailbox.Recv.
func (po *Post) Recv(p *des.Process, host, tag string) Message {
	return po.box(host, tag).Recv(p)
}

// TryRecv returns a queued message without blocking; ok reports whether
// one was available. This is the primitive behind asynchronous
// iterative schemes: a peer polls for fresher boundary data and keeps
// computing when none has arrived. It resolves the names and delegates
// to Mailbox.TryRecv.
func (po *Post) TryRecv(host, tag string) (Message, bool) {
	return po.box(host, tag).TryRecv()
}

// Recv blocks the process until a message is available and returns
// it by value.
func (b *Mailbox) Recv(p *des.Process) Message {
	return b.take(b.q.Get(p))
}

// TryRecv returns a queued message by value without blocking; ok
// reports whether one was available.
func (b *Mailbox) TryRecv() (Message, bool) {
	v, ok := b.q.TryGet()
	if !ok {
		return Message{}, false
	}
	return b.take(v), true
}

// Pending reports queued (already delivered) messages for a mailbox.
func (po *Post) Pending(host, tag string) int {
	return po.box(host, tag).q.Len()
}

// PendingMessages reports the total number of delivered-but-unconsumed
// messages across all mailboxes. The replay fast-forward engine uses
// it as part of its quiescence check: a round boundary with a message
// still parked in a mailbox is not a clean steady-state snapshot.
func (po *Post) PendingMessages() int { return po.pending }

// Compute blocks the process for the time the host needs to execute the
// given amount of work (flops / host speed).
func (po *Post) Compute(p *des.Process, host string, flops float64) error {
	h := po.net.Host(host)
	if h == nil {
		return fmt.Errorf("netsim: compute on unknown host %q", host)
	}
	if flops < 0 {
		return fmt.Errorf("netsim: negative work %v", flops)
	}
	p.Sleep(flops / h.Speed)
	return nil
}
