package analytic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/proximity"
	"repro/internal/trace"
)

// Symbolic capacity family: the examples/capacity star-LAN candidate
// with NIC bandwidth (param 0), drop latency (param 1) and node speed
// (param 2) free. The placeholder values on the platform's drop links
// are irrelevant — the SymSpec overrides them — but host/link names
// and topology match examples/capacity exactly.
const (
	tpFlopsPerCell = 50.0
	tpRefSpeed     = 3e9
)

func starPlatform(t testing.TB, w int) *platform.Platform {
	t.Helper()
	p := platform.New(fmt.Sprintf("star-sym-%d", w))
	if err := p.AddRouter("switch"); err != nil {
		t.Fatal(err)
	}
	base := proximity.MustParseAddr("10.20.0.0")
	for i := 0; i < w; i++ {
		name := fmt.Sprintf("peer-%02d", i)
		if err := p.AddHost(name, proximity.Addr(uint32(base)+uint32(i)+1), tpRefSpeed); err != nil {
			t.Fatal(err)
		}
		if err := p.Connect(name, "switch", fmt.Sprintf("drop-%02d", i), 100*platform.Mbps, 300e-6); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddHost("frontend", proximity.MustParseAddr("192.168.100.1"), tpRefSpeed); err != nil {
		t.Fatal(err)
	}
	p.Frontend = "frontend"
	if err := p.Connect("frontend", "switch", "uplink", 1*platform.Gbps, 100e-6); err != nil {
		t.Fatal(err)
	}
	return p
}

// symGhostSpec builds the symbolic ghost-exchange spec for w peers at
// problem size n over rounds iterations: params [bw, lat, speed]. The
// NS expressions replicate ghostSource's float sequence with speed
// symbolic, so a replay at speed s computes exactly the floats
// ghostSource(w, n, s) would put in the trace.
func symGhostSpec(plat *platform.Platform, w, n, rounds int) func(*Symbolic) (*SymSpec, error) {
	return func(s *Symbolic) (*SymSpec, error) {
		bw, lat, speed := s.Param(0), s.Param(1), s.Param(2)
		ghost := s.Const(8 * float64(n))
		hosts := plat.Hosts()[:w]
		ranks := make([][]SymOp, w)
		for r := 0; r < w; r++ {
			cells := float64(n) * float64(n) / float64(w)
			skew := 1 + 0.02*float64(r)/float64(w)
			// ns = flopsPerCell * cells * skew / speed * 1e9, with the
			// constant prefix folded exactly as Go folds it left to right.
			ns := s.Mul(s.Div(s.Const(tpFlopsPerCell*cells*skew), speed), s.Const(1e9))
			body := []SymOp{{Count: 1, Kind: trace.KindCompute, NS: ns}}
			if r > 0 {
				body = append(body, SymOp{Count: 1, Kind: trace.KindSend, Peer: r - 1, Bytes: ghost})
			}
			if r < w-1 {
				body = append(body, SymOp{Count: 1, Kind: trace.KindSend, Peer: r + 1, Bytes: ghost})
			}
			if r > 0 {
				body = append(body, SymOp{Count: 1, Kind: trace.KindRecv, Peer: r - 1, Bytes: ghost})
			}
			if r < w-1 {
				body = append(body, SymOp{Count: 1, Kind: trace.KindRecv, Peer: r + 1, Bytes: ghost})
			}
			body = append(body, SymOp{Count: 1, Kind: trace.KindConv})
			ranks[r] = []SymOp{
				{Count: 1, Kind: trace.KindCompute, NS: s.Div(ns, s.Const(10))},
				{Count: 1, Kind: trace.KindConv},
				{Count: rounds, Body: body},
				{Count: 1, Kind: trace.KindCompute, NS: s.Const(1e3)},
			}
		}
		strip := s.Const(8 * float64(n) * float64(n) / float64(w))
		ss := &SymSpec{
			Hosts:        hosts,
			Submitter:    plat.Frontend,
			Scheme:       p2psap.Synchronous,
			ScatterBytes: strip,
			GatherBytes:  strip,
			Ranks:        ranks,
			Bandwidth:    map[string]SymVal{},
			Latency:      map[string]SymVal{},
		}
		for i := 0; i < w; i++ {
			name := fmt.Sprintf("drop-%02d", i)
			ss.Bandwidth[name] = bw
			ss.Latency[name] = lat
		}
		return ss, nil
	}
}

// concreteGhost evaluates the same configuration the slow way: a
// fresh star platform with the point's concrete bandwidth/latency and
// a ghostSource-equivalent concrete trace at the point's speed.
func concreteGhost(t testing.TB, w, n, rounds int, bw, lat, speed float64) *Result {
	t.Helper()
	p := platform.New(fmt.Sprintf("star-conc-%d-%g-%g", w, bw, lat))
	if err := p.AddRouter("switch"); err != nil {
		t.Fatal(err)
	}
	base := proximity.MustParseAddr("10.20.0.0")
	for i := 0; i < w; i++ {
		name := fmt.Sprintf("peer-%02d", i)
		if err := p.AddHost(name, proximity.Addr(uint32(base)+uint32(i)+1), tpRefSpeed); err != nil {
			t.Fatal(err)
		}
		if err := p.Connect(name, "switch", fmt.Sprintf("drop-%02d", i), bw, lat); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddHost("frontend", proximity.MustParseAddr("192.168.100.1"), tpRefSpeed); err != nil {
		t.Fatal(err)
	}
	p.Frontend = "frontend"
	if err := p.Connect("frontend", "switch", "uplink", 1*platform.Gbps, 100e-6); err != nil {
		t.Fatal(err)
	}
	src := tapeGhostSource(w, n, rounds, speed)
	strip := 8 * float64(n) * float64(n) / float64(w)
	res, err := Evaluate(Spec{
		Platform:     p,
		Hosts:        p.Hosts()[:w],
		Submitter:    p.Frontend,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: strip,
		GatherBytes:  strip,
		Source:       src,
	})
	if err != nil {
		t.Fatalf("concrete evaluate: %v", err)
	}
	return res
}

// tapeGhostSource mirrors examples/capacity ghostSource (with a
// configurable round count) so the concrete comparison evaluates the
// exact float sequence the symbolic build puts on the tape.
func tapeGhostSource(w, n, rounds int, speed float64) trace.FoldedSource {
	ghost := 8 * float64(n)
	fs := make([]*trace.Folded, w)
	for r := 0; r < w; r++ {
		cells := float64(n) * float64(n) / float64(w)
		skew := 1 + 0.02*float64(r)/float64(w)
		ns := tpFlopsPerCell * cells * skew / speed * 1e9
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

// compileGhost records the symbolic family's tape at the given point.
func compileGhost(t testing.TB, plat *platform.Platform, w, n, rounds int, point []float64) *Tape {
	t.Helper()
	tape, err := CompileTape(plat, point, symGhostSpec(plat, w, n, rounds))
	if err != nil {
		t.Fatalf("CompileTape: %v", err)
	}
	return tape
}

// TestTapeReplayBitIdentical scans a small grid through lazily
// recorded tapes and requires every point — replayed or fallback — to
// match the full analytic evaluation bit for bit.
func TestTapeReplayBitIdentical(t *testing.T) {
	// The w=2/n=256 family has wide guard regions (the flow solution's
	// control flow is stable under multi-percent parameter moves), so a
	// fine grid exercises genuine replays; the latitude axis straddles
	// the 0.5 ms profile threshold to force a second region.
	const w, n, rounds = 2, 256, 40
	plat := starPlatform(t, w)
	bws := []float64{200 * platform.Mbps, 204 * platform.Mbps, 208 * platform.Mbps}
	lats := []float64{100e-6, 103e-6, 900e-6, 927e-6} // straddles the 0.5 ms profile threshold
	speeds := []float64{3e9, 3.06e9}

	var tapes []*Tape
	points, replays, fallbacks := 0, 0, 0
	var res Result
	for _, bw := range bws {
		for _, lat := range lats {
			for _, speed := range speeds {
				point := []float64{bw, lat, speed}
				points++
				got := false
				for _, tape := range tapes {
					if tape.Replay(point, &res) {
						got = true
						replays++
						break
					}
				}
				if !got {
					fallbacks++
					tape := compileGhost(t, plat, w, n, rounds, point)
					tapes = append(tapes, tape)
					if !tape.Replay(point, &res) {
						t.Fatalf("fresh tape rejects its own record point %v", point)
					}
				}
				want := concreteGhost(t, w, n, rounds, bw, lat, speed)
				if res != *want {
					t.Fatalf("tape result diverged at bw=%g lat=%g speed=%g:\ntape %+v\nfull %+v", bw, lat, speed, res, *want)
				}
			}
		}
	}
	if len(tapes) < 2 {
		t.Fatalf("grid straddling the profile threshold produced %d region(s), want >= 2", len(tapes))
	}
	if replays == 0 {
		t.Fatal("no point was served by tape replay")
	}
	// The recording is deterministic, so tape 0's shape is pinned
	// exactly, as recorded (its unpruned twin) and as pruned: a change
	// to the arithmetic the engine or its fast-forward controller
	// records, or to the guards pruning drops, shows up here before it
	// reaches a prediction.
	full := compileUnpruned(t, plat, []float64{bws[0], lats[0], speeds[0]}, symGhostSpec(plat, w, n, rounds))
	if got, want := [3]int{full.NumInstrs(), full.NumGuards(), full.NumConsts()}, [3]int{193, 211, 19}; got != want {
		t.Fatalf("tape 0 records %v instrs/guards/consts, want %v", got, want)
	}
	if got, want := [3]int{tapes[0].NumInstrs(), tapes[0].NumGuards(), tapes[0].NumConsts()}, [3]int{177, 131, 19}; got != want {
		t.Fatalf("tape 0 keeps %v instrs/guards/consts after pruning, want %v", got, want)
	}
	t.Logf("%d points: %d replayed, %d fallbacks, %d regions (%d instrs, %d guards, %d consts on tape 0)",
		points, replays, fallbacks, len(tapes), tapes[0].NumInstrs(), tapes[0].NumGuards(), tapes[0].NumConsts())
}

// TestTapeGuardViolation: crossing the P2PSAP profile threshold must
// violate a guard, not silently replay the wrong profile's formula.
func TestTapeGuardViolation(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	plat := starPlatform(t, w)
	cluster := []float64{200 * platform.Mbps, 100e-6, 3e9} // lat < 0.5 ms: Cluster profile
	lan := []float64{200 * platform.Mbps, 900e-6, 3e9}     // 0.5 ms <= lat < 5 ms: LAN profile
	tape := compileGhost(t, plat, w, n, rounds, cluster)
	var res Result
	if !tape.Replay(cluster, &res) {
		t.Fatal("tape rejects its own record point")
	}
	if tape.Replay(lan, &res) {
		t.Fatal("tape recorded under the Cluster profile accepted a LAN-profile point")
	}
	lanTape := compileGhost(t, plat, w, n, rounds, lan)
	if !lanTape.Replay(lan, &res) {
		t.Fatal("LAN tape rejects its own record point")
	}
	if lanTape.Replay(cluster, &res) {
		t.Fatal("LAN tape accepted a Cluster-profile point")
	}
}

// TestTapeRecordDeterminism: recording the same family at the same
// point twice yields identical tapes (instruction-for-instruction) and
// bit-identical replays — the symbolic-determinism contract.
func TestTapeRecordDeterminism(t *testing.T) {
	const w, n, rounds = 4, 512, 60
	plat := starPlatform(t, w)
	point := []float64{200 * platform.Mbps, 300e-6, 3e9}
	a := compileGhost(t, plat, w, n, rounds, point)
	b := compileGhost(t, plat, w, n, rounds, point)
	if a.NumInstrs() != b.NumInstrs() || a.NumGuards() != b.NumGuards() || a.NumConsts() != b.NumConsts() {
		t.Fatalf("re-recording diverged: %d/%d/%d vs %d/%d/%d instrs/guards/consts",
			a.NumInstrs(), a.NumGuards(), a.NumConsts(), b.NumInstrs(), b.NumGuards(), b.NumConsts())
	}
	for i := range a.instrs {
		if a.instrs[i] != b.instrs[i] {
			t.Fatalf("instr %d differs: %+v vs %+v", i, a.instrs[i], b.instrs[i])
		}
	}
	for i := range a.guards {
		if a.guards[i] != b.guards[i] {
			t.Fatalf("guard %d differs: %+v vs %+v", i, a.guards[i], b.guards[i])
		}
	}
	probe := []float64{220 * platform.Mbps, 280e-6, 2.5e9}
	var ra, rb Result
	oka, okb := a.Replay(probe, &ra), b.Replay(probe, &rb)
	if oka != okb || (oka && ra != rb) {
		t.Fatalf("replay diverged between identical tapes: %v/%v %+v vs %+v", oka, okb, ra, rb)
	}
}

// TestTapeGrad: the dual-number replay must agree with central finite
// differences of the replayed prediction inside the guard region, and
// reject points outside it.
func TestTapeGrad(t *testing.T) {
	// Use the wide-region w=2/n=256 family so the finite-difference
	// probes stay inside the guard region.
	const w, n, rounds = 2, 256, 40
	plat := starPlatform(t, w)
	point := []float64{200 * platform.Mbps, 300e-6, 3e9}
	tape := compileGhost(t, plat, w, n, rounds, point)
	g, ok := tape.Grad(point)
	if !ok {
		t.Fatal("Grad rejects the record point")
	}
	var base Result
	if !tape.Replay(point, &base) || base != g.Res {
		t.Fatalf("Grad value diverged from Replay: %+v vs %+v", g.Res, base)
	}
	for k := 0; k < tape.NumParams(); k++ {
		h := point[k] * 1e-6
		hi := append([]float64(nil), point...)
		lo := append([]float64(nil), point...)
		hi[k] += h
		lo[k] -= h
		var rhi, rlo Result
		if !tape.Replay(hi, &rhi) || !tape.Replay(lo, &rlo) {
			t.Fatalf("finite-difference probe left the guard region on param %d", k)
		}
		fd := (rhi.PredictedSeconds - rlo.PredictedSeconds) / (hi[k] - lo[k])
		ad := g.Grad[k]
		denom := math.Max(math.Abs(fd), math.Abs(ad))
		if denom == 0 {
			if fd != ad {
				t.Fatalf("param %d: fd %g vs ad %g", k, fd, ad)
			}
			continue
		}
		if math.Abs(fd-ad)/denom > 1e-3 {
			t.Fatalf("param %d: finite difference %g vs dual-number %g", k, fd, ad)
		}
	}
	if _, ok := tape.Grad([]float64{200 * platform.Mbps, 2e-3, 3e9}); ok {
		t.Fatal("Grad accepted a point outside the guard region")
	}
}

// TestTapeBatchMatchesScalar: ReplayBatch must agree with scalar
// Replay lane by lane — same ok verdicts, bit-identical results. The
// fixture's ±0.1% bandwidth fan deliberately includes a lane that
// falls outside the guard region (regions can be perforated at fine
// scales), exercising the partial-batch path.
func TestTapeBatchMatchesScalar(t *testing.T) {
	const w, n, rounds = 2, 512, 60
	plat := starPlatform(t, w)
	point := []float64{200 * platform.Mbps, 300e-6, 3e9}
	tape := compileGhost(t, plat, w, n, rounds, point)
	pts := make([]float64, 0, BatchLanes*3)
	for l := 0; l < BatchLanes; l++ {
		pts = append(pts, point[0]*(1+0.001*float64(l)), point[1], point[2])
	}
	var res [BatchLanes]Result
	var ok [BatchLanes]bool
	nv := tape.ReplayBatch(pts, &res, &ok)
	t.Logf("batch valid=%d ok=%v", nv, ok)
	for l := 0; l < BatchLanes; l++ {
		var sres Result
		sok := tape.Replay(pts[l*3:l*3+3], &sres)
		if sok != ok[l] {
			t.Errorf("lane %d: scalar ok=%v batch ok=%v", l, sok, ok[l])
		} else if sok && sres != res[l] {
			t.Errorf("lane %d: scalar %+v batch %+v", l, sres, res[l])
		}
	}
}

// BenchmarkTapeReplay: the symbolic scan's per-point cost at the
// capacity family's shape.
func BenchmarkTapeReplay(b *testing.B) {
	const w, n, rounds = 4, 512, 60
	plat := starPlatform(b, w)
	point := []float64{200 * platform.Mbps, 300e-6, 3e9}
	tape := compileGhost(b, plat, w, n, rounds, point)
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		if !tape.Replay(point, &res) {
			b.Fatal("guard violation at the record point")
		}
	}
}

// BenchmarkTapeReplayReject: scalar replay of a 2-peer tape at points
// outside its region, one point per op, cycling through them. A
// rejecting replay stops at the first violated guard, so it costs a
// prefix of the tape: near points, from a dense cell around the record
// point, leave the region at guards late in the tape; far points, past
// the 0.5 ms profile threshold, fail a guard on the parameters alone.
func BenchmarkTapeReplayReject(b *testing.B) {
	const w, n, rounds = 2, 256, 40
	plat := starPlatform(b, w)
	tape := compileGhost(b, plat, w, n, rounds, []float64{196 * platform.Mbps, 98e-6, 2.98e9})
	for _, c := range []struct {
		name string
		lat  float64 // the cell's lowest latency
	}{{"near", 98e-6}, {"far", 900e-6}} {
		var rejected [][]float64
		var res Result
		for i := 0; i < 40; i++ {
			for j := 0; j < 20; j++ {
				for k := 0; k < 8; k++ {
					pt := []float64{
						(196 + 10*float64(i)/39) * platform.Mbps,
						c.lat * (1 + 0.05*float64(j)/19),
						2.98e9 + 0.07e9*float64(k)/7,
					}
					if !tape.Replay(pt, &res) {
						rejected = append(rejected, pt)
					}
				}
			}
		}
		if len(rejected) == 0 {
			b.Fatalf("%s: the tape accepts the whole cell", c.name)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tape.Replay(rejected[i%len(rejected)], &res) {
					b.Fatal("a rejected point was accepted")
				}
			}
		})
	}
}

// BenchmarkTapeCompile: the cost of recording one region.
func BenchmarkTapeCompile(b *testing.B) {
	const w, n, rounds = 4, 512, 60
	plat := starPlatform(b, w)
	point := []float64{200 * platform.Mbps, 300e-6, 3e9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileTape(plat, point, symGhostSpec(plat, w, n, rounds)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTapeReplayBatch8: the 8-lane SoA replay across tape
// shapes; per-point cost is ns/op divided by BatchLanes.
func BenchmarkTapeReplayBatch8(b *testing.B) {
	for _, c := range []struct{ w, n, rounds int }{
		{2, 256, 40}, {2, 512, 60}, {4, 512, 60},
	} {
		plat := starPlatform(b, c.w)
		point := []float64{200 * platform.Mbps, 300e-6, 3e9}
		tape := compileGhost(b, plat, c.w, c.n, c.rounds, point)
		pts := make([]float64, 0, BatchLanes*3)
		for l := 0; l < BatchLanes; l++ {
			pts = append(pts, point...)
		}
		b.Run(fmt.Sprintf("w%dn%d", c.w, c.n), func(b *testing.B) {
			b.ReportAllocs()
			var res [BatchLanes]Result
			var ok [BatchLanes]bool
			for i := 0; i < b.N; i++ {
				if tape.ReplayBatch(pts, &res, &ok) != BatchLanes {
					b.Fatal("lane violation")
				}
			}
		})
	}
}

// BenchmarkTapeGrad: dual-number replay cost (3 params).
func BenchmarkTapeGrad(b *testing.B) {
	const w, n, rounds = 4, 512, 60
	plat := starPlatform(b, w)
	point := []float64{200 * platform.Mbps, 300e-6, 3e9}
	tape := compileGhost(b, plat, w, n, rounds, point)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tape.Grad(point); !ok {
			b.Fatal("guard violation at the record point")
		}
	}
}
