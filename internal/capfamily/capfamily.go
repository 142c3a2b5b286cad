// Package capfamily is the capacity-planning configuration family
// shared by examples/capacity, the dperf scan tests, the cmd/dperf
// -scan smoke path and dperfd's /v1/scan: a star LAN of w desktops
// behind one switch running the iterative ghost-exchange kernel, with
// NIC bandwidth, drop latency and node speed as the three free scan
// parameters.
//
// The symbolic family (Family) and the concrete builders (Concrete,
// Source) construct the *same* configuration: evaluating the family's
// tape at a point is bit-identical to a full analytic evaluation of
// the concrete platform and trace at that point — the property every
// scan consumer asserts.
package capfamily

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/proximity"
	"repro/internal/trace"
)

const (
	// FlopsPerCell is the per-cell update cost: compute-led rounds, as
	// in the paper's obstacle kernel.
	FlopsPerCell = 50.0
	// RefSpeed is the reference desktop grade.
	RefSpeed = 3e9
)

// Scan parameter indices: every point is [bandwidth, latency, speed].
const (
	ParamBandwidth = 0
	ParamLatency   = 1
	ParamSpeed     = 2
	NumParams      = 3
)

// The demo scan: the family the dperf CLI's -scan smoke path and
// dperfd's /v1/scan evaluate, a small fat-region configuration.
const (
	DemoPeers  = 2
	DemoN      = 256
	DemoRounds = 40
)

// DemoGrid returns the demo scan's default axes, 3 bandwidths × 4
// latencies × 2 speeds. The latency axis straddles the 0.5 ms profile
// threshold, so a scan of the grid exercises both tape replay and
// guard fallback.
func DemoGrid() (bandwidths, latencies, speeds []float64) {
	return []float64{200 * platform.Mbps, 204 * platform.Mbps, 208 * platform.Mbps},
		[]float64{100e-6, 103e-6, 900e-6, 927e-6},
		[]float64{3e9, 3.06e9}
}

// Star builds the symbolic scan platform: w peers behind one switch
// on drop links whose bandwidth/latency the family overrides
// symbolically (the concrete values set here are placeholders), plus
// the submitting frontend on a fast uplink.
func Star(w int) (*platform.Platform, error) {
	return build(fmt.Sprintf("star-sym-%d", w), w, 100*platform.Mbps, 300e-6)
}

// Concrete builds the same star topology with concrete drop links —
// the platform a full (un-taped) evaluation of the family at
// (bw, lat, ·) runs on.
func Concrete(w int, bw, lat float64) (*platform.Platform, error) {
	return build(fmt.Sprintf("star-%d-%g-%g", w, bw, lat), w, bw, lat)
}

func build(name string, w int, bw, lat float64) (*platform.Platform, error) {
	p := platform.New(name)
	if err := p.AddRouter("switch"); err != nil {
		return nil, err
	}
	base := proximity.MustParseAddr("10.20.0.0")
	for i := 0; i < w; i++ {
		host := fmt.Sprintf("peer-%02d", i)
		if err := p.AddHost(host, proximity.Addr(uint32(base)+uint32(i)+1), RefSpeed); err != nil {
			return nil, err
		}
		if err := p.Connect(host, "switch", fmt.Sprintf("drop-%02d", i), bw, lat); err != nil {
			return nil, err
		}
	}
	if err := p.AddHost("frontend", proximity.MustParseAddr("192.168.100.1"), RefSpeed); err != nil {
		return nil, err
	}
	p.Frontend = "frontend"
	if err := p.Connect("frontend", "switch", "uplink", 1*platform.Gbps, 100e-6); err != nil {
		return nil, err
	}
	return p, nil
}

// StripBytes is the per-peer scatter/gather payload at problem size n
// on w peers.
func StripBytes(w, n int) float64 {
	return 8 * float64(n) * float64(n) / float64(w)
}

// Source builds the concrete iterative ghost-exchange kernel at
// problem size n on w peers of the given speed: each round computes
// the rank's strip (n²/w cells, slightly skewed so the steady state is
// not trivially symmetric), exchanges 8n-byte ghost rows with its line
// neighbours and joins the convergence test.
func Source(w, n, rounds int, speed float64) trace.FoldedSource {
	ghost := 8 * float64(n)
	fs := make([]*trace.Folded, w)
	for r := 0; r < w; r++ {
		cells := float64(n) * float64(n) / float64(w)
		skew := 1 + 0.02*float64(r)/float64(w)
		ns := FlopsPerCell * cells * skew / speed * 1e9
		body := []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: ns}},
		}
		if r > 0 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: r - 1, Bytes: ghost}})
		}
		if r < w-1 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: r + 1, Bytes: ghost}})
		}
		if r > 0 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: r - 1, Bytes: ghost}})
		}
		if r < w-1 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: r + 1, Bytes: ghost}})
		}
		body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindConv}})
		fs[r] = &trace.Folded{Rank: r, Of: w, Ops: []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: ns / 10}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			{Count: rounds, Body: body},
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e3}},
		}}
	}
	return fs
}

// Spec assembles the concrete analytic spec for the family's
// configuration on plat.
func Spec(plat *platform.Platform, w, n int, scheme p2psap.Scheme, src trace.Source) analytic.Spec {
	strip := StripBytes(w, n)
	hosts, _ := plat.FirstHosts(w) // nil past the platform's hosts, which evaluation rejects
	return analytic.Spec{
		Platform:     plat,
		Hosts:        hosts,
		Submitter:    plat.Frontend,
		Scheme:       scheme,
		ScatterBytes: strip,
		GatherBytes:  strip,
		Source:       src,
	}
}

// Evaluate runs the full (un-taped) analytic evaluation of the family
// at one point — the reference every tape replay must match bit for
// bit.
func Evaluate(w, n, rounds int, scheme p2psap.Scheme, bw, lat, speed float64) (*analytic.Result, error) {
	plat, err := Concrete(w, bw, lat)
	if err != nil {
		return nil, err
	}
	return analytic.Evaluate(Spec(plat, w, n, scheme, Source(w, n, rounds, speed)))
}

// Family builds the symbolic ghost-exchange spec for w peers at
// problem size n over the given rounds: parameters [bw, lat, speed].
// The NS expressions replicate Source's float sequence with the speed
// symbolic (constant prefixes folded exactly as Go folds them left to
// right), and the drop links bind their bandwidth/latency to the
// scan parameters. plat must come from Star(w).
func Family(plat *platform.Platform, w, n, rounds int, scheme p2psap.Scheme) func(*analytic.Symbolic) (*analytic.SymSpec, error) {
	return func(s *analytic.Symbolic) (*analytic.SymSpec, error) {
		bw := s.Param(ParamBandwidth)
		lat := s.Param(ParamLatency)
		speed := s.Param(ParamSpeed)
		ghost := s.Const(8 * float64(n))
		hosts, have := plat.FirstHosts(w)
		if have < w {
			return nil, fmt.Errorf("capfamily: platform has %d hosts, need %d", have, w)
		}
		ranks := make([][]analytic.SymOp, w)
		for r := 0; r < w; r++ {
			cells := float64(n) * float64(n) / float64(w)
			skew := 1 + 0.02*float64(r)/float64(w)
			ns := s.Mul(s.Div(s.Const(FlopsPerCell*cells*skew), speed), s.Const(1e9))
			body := []analytic.SymOp{{Count: 1, Kind: trace.KindCompute, NS: ns}}
			if r > 0 {
				body = append(body, analytic.SymOp{Count: 1, Kind: trace.KindSend, Peer: r - 1, Bytes: ghost})
			}
			if r < w-1 {
				body = append(body, analytic.SymOp{Count: 1, Kind: trace.KindSend, Peer: r + 1, Bytes: ghost})
			}
			if r > 0 {
				body = append(body, analytic.SymOp{Count: 1, Kind: trace.KindRecv, Peer: r - 1, Bytes: ghost})
			}
			if r < w-1 {
				body = append(body, analytic.SymOp{Count: 1, Kind: trace.KindRecv, Peer: r + 1, Bytes: ghost})
			}
			body = append(body, analytic.SymOp{Count: 1, Kind: trace.KindConv})
			ranks[r] = []analytic.SymOp{
				{Count: 1, Kind: trace.KindCompute, NS: s.Div(ns, s.Const(10))},
				{Count: 1, Kind: trace.KindConv},
				{Count: rounds, Body: body},
				{Count: 1, Kind: trace.KindCompute, NS: s.Const(1e3)},
			}
		}
		strip := s.Const(StripBytes(w, n))
		ss := &analytic.SymSpec{
			Hosts:        hosts,
			Submitter:    plat.Frontend,
			Scheme:       scheme,
			ScatterBytes: strip,
			GatherBytes:  strip,
			Ranks:        ranks,
			Bandwidth:    map[string]analytic.SymVal{},
			Latency:      map[string]analytic.SymVal{},
		}
		for i := 0; i < w; i++ {
			link := fmt.Sprintf("drop-%02d", i)
			ss.Bandwidth[link] = bw
			ss.Latency[link] = lat
		}
		return ss, nil
	}
}
