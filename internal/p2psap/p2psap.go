// Package p2psap models the Peer-To-Peer Self-Adaptive communication
// Protocol (El-Baz & Nguyen, PDP'10) that P2PDC uses for direct
// peer-to-peer data exchange. The protocol picks a transport profile
// per channel according to context: the computation scheme chosen at
// application level (synchronous or asynchronous iterations) and the
// network context at transport level (cluster, LAN or WAN/xDSL,
// detected from path latency). Profiles differ in framing overhead and
// in per-message send/receive processing cost — the protocol-stack
// work that dominates small-message behaviour on consumer links.
//
// A channel resolves its names once, when it is opened: it holds both
// endpoint hosts and the mailbox at each end, and its per-message
// calls use netsim's handle-based message path directly.
package p2psap

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/netsim"
)

// Scheme is the application-level iterative scheme (paper §I: P2PSAP
// "chooses dynamically appropriate communication mode between any
// peers according to decisions taken at application level like
// schemes of computation, e.g. synchronous or asynchronous iterative
// schemes").
type Scheme int

// Schemes.
const (
	Synchronous Scheme = iota
	Asynchronous
)

func (s Scheme) String() string {
	if s == Synchronous {
		return "synchronous"
	}
	return "asynchronous"
}

// Profile is a transport configuration chosen by self-adaptation.
type Profile struct {
	Name string
	// FrameBytes is added to every message on the wire (headers,
	// acknowledgements amortized).
	FrameBytes float64
	// SendOverhead is CPU time spent by the sender per message.
	SendOverhead float64
	// RecvOverhead is CPU time spent by the receiver per message
	// before the payload is available (session handling, reordering,
	// checksum). Serialized at the receiving peer.
	RecvOverhead float64
}

// The three context profiles. Thresholds and costs are calibrated
// against the paper's figures; internal/experiments' TestFig9Calibration
// and TestFig10PredictionAccuracy check the result.
var (
	ClusterProfile = Profile{Name: "cluster", FrameBytes: 64, SendOverhead: 20e-6, RecvOverhead: 50e-6}
	LANProfile     = Profile{Name: "lan", FrameBytes: 128, SendOverhead: 200e-6, RecvOverhead: 2.5e-3}
	WANProfile     = Profile{Name: "wan", FrameBytes: 256, SendOverhead: 300e-6, RecvOverhead: 1.5e-3}
)

// AdaptProfile's path-latency thresholds, in seconds: below
// ClusterMaxLatency peers talk through the cluster profile, below
// LANMaxLatency through the LAN profile, and beyond through the WAN
// profile.
const (
	ClusterMaxLatency = 0.5e-3
	LANMaxLatency     = 5e-3
)

// AdaptProfile selects the transport profile from the measured
// one-way path latency between two peers — the transport-level
// context element of the paper.
func AdaptProfile(pathLatency float64) Profile {
	switch {
	case pathLatency < ClusterMaxLatency:
		return ClusterProfile
	case pathLatency < LANMaxLatency:
		return LANProfile
	default:
		return WANProfile
	}
}

// Protocol is a P2PSAP instance bound to a simulated network.
type Protocol struct {
	post *netsim.Post

	// Adaptations counts profile or scheme reconfigurations, a metric
	// for the self-adaptive behaviour.
	Adaptations int

	channels map[string]*Channel
}

// New creates a protocol instance over the given message layer.
func New(post *netsim.Post) *Protocol {
	return &Protocol{post: post, channels: make(map[string]*Channel)}
}

// Post exposes the underlying message layer.
func (pr *Protocol) Post() *netsim.Post { return pr.post }

// Channel returns (creating on first use) the bidirectional channel
// between two hosts for the given logical tag. The transport profile
// is chosen by probing the path latency; the scheme configures
// blocking behaviour.
func (pr *Protocol) Channel(a, b, tag string, scheme Scheme) (*Channel, error) {
	key := a + "|" + b + "|" + tag
	if a > b {
		key = b + "|" + a + "|" + tag
	}
	if ch, ok := pr.channels[key]; ok {
		if ch.scheme != scheme {
			// Application-level context changed: reconfigure.
			ch.scheme = scheme
			pr.Adaptations++
		}
		return ch, nil
	}
	net := pr.post.Net()
	lat, err := net.TransferTime(a, b, 0)
	if err != nil {
		return nil, fmt.Errorf("p2psap: cannot probe %s<->%s: %w", a, b, err)
	}
	ch := &Channel{
		proto:   pr,
		a:       a,
		b:       b,
		hostA:   net.Host(a),
		hostB:   net.Host(b),
		tag:     tag,
		profile: AdaptProfile(lat),
		scheme:  scheme,
	}
	// Each direction has its own mailbox, resolved once here.
	if ch.boxA, err = pr.post.Mailbox(a, "p2psap:"+tag+":"+a); err != nil {
		return nil, err
	}
	if ch.boxB, err = pr.post.Mailbox(b, "p2psap:"+tag+":"+b); err != nil {
		return nil, err
	}
	pr.channels[key] = ch
	pr.Adaptations++
	return ch, nil
}

// Channel is a configured point-to-point session.
type Channel struct {
	proto        *Protocol
	a, b         string
	hostA, hostB *netsim.Host
	tag          string
	profile      Profile
	scheme       Scheme
	// boxA/boxB are the mailboxes of messages arriving at endpoint a
	// and b respectively.
	boxA, boxB *netsim.Mailbox

	// Traffic counters.
	Sent, Received int
	BytesOnWire    float64
	// Dropped counts stale asynchronous messages discarded by
	// latest-value reception.
	Dropped int
}

// Profile returns the adapted transport profile.
func (c *Channel) Profile() Profile { return c.profile }

// Scheme returns the configured application scheme.
func (c *Channel) Scheme() Scheme { return c.scheme }

// route returns the sending endpoint's host and the mailbox at the
// other end.
func (c *Channel) route(from string) (*netsim.Host, *netsim.Mailbox, error) {
	switch from {
	case c.a:
		return c.hostA, c.boxB, nil
	case c.b:
		return c.hostB, c.boxA, nil
	}
	return nil, nil, c.notEndpoint(from)
}

// inbox returns the mailbox of messages arriving at the endpoint.
func (c *Channel) inbox(at string) (*netsim.Mailbox, error) {
	switch at {
	case c.a:
		return c.boxA, nil
	case c.b:
		return c.boxB, nil
	}
	return nil, c.notEndpoint(at)
}

func (c *Channel) notEndpoint(host string) error {
	return fmt.Errorf("p2psap: host %q not an endpoint of channel %s<->%s", host, c.a, c.b)
}

// Send transmits payload from the given endpoint. Sends are eager
// under both schemes: the caller pays the local protocol processing
// cost and the transfer proceeds in the background. Synchronization
// comes from reception — under the synchronous scheme a peer cannot
// start its next iteration before Recv returns the partner's data,
// which is how P2PSAP's synchronous iterative mode synchronizes
// computations (per-iteration sync, not per-message rendezvous).
func (c *Channel) Send(p *des.Process, from string, bytes float64, payload interface{}) error {
	src, to, err := c.route(from)
	if err != nil {
		return err
	}
	if bytes < 0 {
		return fmt.Errorf("p2psap: negative message size %v", bytes)
	}
	// Sender-side protocol processing.
	if c.profile.SendOverhead > 0 {
		p.Sleep(c.profile.SendOverhead)
	}
	wire := bytes + c.profile.FrameBytes
	c.Sent++
	c.BytesOnWire += wire
	return c.proto.post.SendAsyncTo(src, to, wire, payload)
}

// SendBlocking is the rendezvous variant: the caller blocks until the
// message is fully delivered. P2PSAP uses it for control traffic that
// must be acknowledged before proceeding.
func (c *Channel) SendBlocking(p *des.Process, from string, bytes float64, payload interface{}) error {
	src, to, err := c.route(from)
	if err != nil {
		return err
	}
	if bytes < 0 {
		return fmt.Errorf("p2psap: negative message size %v", bytes)
	}
	if c.profile.SendOverhead > 0 {
		p.Sleep(c.profile.SendOverhead)
	}
	wire := bytes + c.profile.FrameBytes
	c.Sent++
	c.BytesOnWire += wire
	return c.proto.post.SendTo(p, src, to, wire, payload)
}

// Recv blocks until a message for this endpoint arrives, then charges
// the receiver-side processing overhead and returns the payload.
func (c *Channel) Recv(p *des.Process, at string) (interface{}, error) {
	box, err := c.inbox(at)
	if err != nil {
		return nil, err
	}
	m := box.Recv(p)
	if c.profile.RecvOverhead > 0 {
		p.Sleep(c.profile.RecvOverhead)
	}
	c.Received++
	return m.Payload, nil
}

// TryRecvLatest polls without blocking and returns only the freshest
// pending message, discarding older ones — the latest-value semantics
// asynchronous iterative schemes want (stale boundary values are
// useless once a fresher one exists).
func (c *Channel) TryRecvLatest(p *des.Process, at string) (interface{}, bool, error) {
	box, err := c.inbox(at)
	if err != nil {
		return nil, false, err
	}
	var last netsim.Message
	got := false
	for {
		m, ok := box.TryRecv()
		if !ok {
			break
		}
		if got {
			c.Dropped++
		}
		last, got = m, true
	}
	if !got {
		return nil, false, nil
	}
	if c.profile.RecvOverhead > 0 {
		p.Sleep(c.profile.RecvOverhead)
	}
	c.Received++
	return last.Payload, true, nil
}
