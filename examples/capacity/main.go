// Capacity planning: the paper's headline use case — "how many
// peer-to-peer desktop machines match the computing power of a
// cluster?" — upgraded from a six-point search to the full
// procurement grid. Every candidate configuration (NIC bandwidth ×
// switch latency × machine grade × peer count × problem size: half a
// million points) is answered by the analytic prediction tier in
// microseconds, with no DES run on the prediction path; a sampled DES
// fast-forward replay cross-checks the tier bit for bit. The grid has
// no scheme axis: no predicted time depends on the P2PSAP scheme, so
// a scheme loop would only evaluate every point twice.
//
// On top of the coarse grid, the symbolic stage refines each winning
// cell through guarded evaluation tapes (dperf.Scan): a dense local
// scan around the frontier point replays a recorded straight-line
// formula instead of re-running the analytic kernel, with guard
// fallbacks re-recording wherever the control flow changes, and a
// dual-number gradient search (Tape.Grad) walks the bandwidth axis to
// the exact break-even NIC.
//
//	go run ./examples/capacity
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/dperf"
	"repro/internal/analytic"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

const (
	rounds       = 300 // iterative rounds per run
	clusterPeers = 4   // the Stage-1 target to beat
	refN         = 3072
	refSpeed     = capfamily.RefSpeed // Bordeplage-grade desktops
)

// logspace returns k points log-spaced over [lo, hi].
func logspace(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		f := float64(i) / float64(k-1)
		out[i] = lo * math.Pow(hi/lo, f)
	}
	return out
}

// linspace returns k points evenly spaced over [lo, hi].
func linspace(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return out
}

func main() {
	// The procurement grid: 40 NIC bandwidths × 25 switch latencies ×
	// 5 machine grades × a peers/problem-size plan of 100 points per
	// cell = 500,000 configurations.
	bws := logspace(40*platform.Mbps, 8*platform.Gbps, 40)
	lats := logspace(50e-6, 1.5e-3, 25)
	speeds := []float64{1.5e9, 2e9, 2.5e9, 3e9, 3.5e9}
	// Problem sizes: 70 master values; larger peer counts scan nested
	// subsequences sized so rounds stay compute-led across the whole
	// grid (per-rank work shrinks with the peer count, and fast
	// steady-state costing needs the leading compute to outlast the
	// ghost exchange even at the slowest corner). All three plans
	// include the reference N=3072 at index 48.
	master := make([]int, 70)
	for i := range master {
		master[i] = 1536 + 32*i
	}
	idx2 := make([]int, 0, 70)
	for i := 0; i < 70; i++ {
		idx2 = append(idx2, i)
	}
	idx4 := make([]int, 0, 24)
	for i := 0; i < 70; i += 3 {
		idx4 = append(idx4, i)
	}
	plan := []struct {
		peers int
		idx   []int
	}{
		{2, idx2},
		{4, idx4},
		{8, []int{24, 32, 40, 48, 56, 64}},
	}

	// The target: the Stage-1 cluster, predicted through the same
	// analytic tier, once per problem size.
	clusterPlat, err := platform.Cluster(clusterPeers)
	if err != nil {
		log.Fatal(err)
	}
	clusterModel, err := analytic.NewModel(clusterPlat)
	if err != nil {
		log.Fatal(err)
	}
	target := make(map[int]float64, len(master))
	for _, n := range master {
		src := capfamily.Source(clusterPeers, n, rounds, platform.NodeSpeed)
		res, err := clusterModel.Evaluate(capfamily.Spec(clusterPlat, clusterPeers, n, p2psap.Synchronous, src))
		if err != nil {
			log.Fatal(err)
		}
		target[n] = res.PredictedSeconds
	}
	fmt.Printf("target: %d cluster nodes solve N=%d in %.3f s\n\n", clusterPeers, refN, target[refN])

	// Sources depend only on (peers, N, speed): build each once and
	// reuse it across the 1,000 platforms.
	type srcKey struct {
		peers, n int
		speed    float64
	}
	sources := make(map[srcKey]trace.FoldedSource)
	for _, pp := range plan {
		for _, i := range pp.idx {
			for _, s := range speeds {
				k := srcKey{pp.peers, master[i], s}
				sources[k] = capfamily.Source(pp.peers, master[i], rounds, s)
			}
		}
	}

	// The coarse scan. One analytic model per candidate platform; every
	// point is a full closed-form evaluation — no DES anywhere on this
	// path. (The grid's 15% log spacing hops control-flow regions at
	// nearly every step, which is exactly the regime where tape replay
	// cannot amortize; the symbolic stage below picks up where the
	// spacing becomes dense.)
	type frontierVal struct {
		bw, lat, t float64
	}
	frontier := make(map[int]frontierVal) // peers -> cheapest winning NIC at the reference point
	var points, beats int64
	start := time.Now()
	for _, bw := range bws {
		for _, lat := range lats {
			for _, pp := range plan {
				plat, err := capfamily.Concrete(pp.peers, bw, lat)
				if err != nil {
					log.Fatal(err)
				}
				model, err := analytic.NewModel(plat)
				if err != nil {
					log.Fatal(err)
				}
				for _, s := range speeds {
					for _, i := range pp.idx {
						n := master[i]
						spec := capfamily.Spec(plat, pp.peers, n, p2psap.Synchronous, sources[srcKey{pp.peers, n, s}])
						res, err := model.Evaluate(spec)
						if err != nil {
							log.Fatal(err)
						}
						points++
						if res.PredictedSeconds <= target[n] {
							beats++
							if n == refN && s == refSpeed {
								cur, ok := frontier[pp.peers]
								if !ok || bw < cur.bw {
									frontier[pp.peers] = frontierVal{bw, lat, res.PredictedSeconds}
								}
							}
						}
						if points%100000 == 0 {
							el := time.Since(start)
							fmt.Printf("  %7d points in %6.1f s (%.0f points/s)\n",
								points, el.Seconds(), float64(points)/el.Seconds())
						}
					}
				}
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\nanalytic scan: %d configurations in %.1f s — %.0f points/s, %.1f µs/point\n",
		points, elapsed.Seconds(), float64(points)/elapsed.Seconds(),
		elapsed.Seconds()/float64(points)*1e6)
	fmt.Printf("%d of %d configurations (%.1f%%) beat the cluster\n\n",
		beats, points, 100*float64(beats)/float64(points))

	fmt.Printf("capacity answer at N=%d, %.1f GHz desktops:\n", refN, refSpeed/1e9)
	for _, pp := range plan {
		if f, ok := frontier[pp.peers]; ok {
			fmt.Printf("  %d peers beat the cluster from %.0f Mbps NICs (%.0f µs drops): %.3f s vs %.3f s\n",
				pp.peers, f.bw/platform.Mbps, f.lat*1e6, f.t, target[refN])
		} else {
			fmt.Printf("  %d peers never beat the cluster on this grid\n", pp.peers)
		}
	}

	// Symbolic refinement: around each frontier winner, a dense local
	// grid (±2% bandwidth, ±2% latency, 3 machine grades) runs through
	// guarded evaluation tapes via dperf.Scan — recorded straight-line
	// replay where the control flow is stable, guard-fallback recording
	// where it is not. The per-cell region and fallback counts are a
	// deterministic fingerprint of the family's control-flow geometry:
	// the 2-peer cell sits in a wide region and almost every point
	// replays; the 4- and 8-peer cells at this scale are guard-dense
	// (flow residues sit near epsilon thresholds) and fall back
	// per point, each fallback answering bit-identically via a fresh
	// recording.
	fmt.Println("\nsymbolic refinement (guarded tape scan around each frontier point):")
	predictor := dperf.NewPredictor()
	for _, pp := range plan {
		fv, ok := frontier[pp.peers]
		if !ok {
			continue
		}
		plat, err := capfamily.Star(pp.peers)
		if err != nil {
			log.Fatal(err)
		}
		fam := dperf.ScanFamily{
			Platform:  plat,
			NumParams: capfamily.NumParams,
			Build:     capfamily.Family(plat, pp.peers, refN, rounds, p2psap.Synchronous),
			Key:       fmt.Sprintf("refine-%d", pp.peers),
		}
		var pts []float64
		for _, bw := range linspace(fv.bw*0.98, fv.bw*1.02, 12) {
			for _, lat := range linspace(fv.lat*0.98, fv.lat*1.02, 6) {
				for _, s := range []float64{2.5e9, 3e9, 3.5e9} {
					pts = append(pts, bw, lat, s)
				}
			}
		}
		best := math.Inf(1)
		stats, err := predictor.Scan(fam, pts, func(i int, res *dperf.EngineResult) {
			if res.PredictedSeconds < best {
				best = res.PredictedSeconds
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		// Spot-check one refined point against the un-taped evaluator:
		// tape replay must be bit-identical, not merely close.
		check, err := capfamily.Evaluate(pp.peers, refN, rounds, p2psap.Synchronous, pts[0], pts[1], pts[2])
		if err != nil {
			log.Fatal(err)
		}
		var first dperf.EngineResult
		if _, err := predictor.Scan(fam, pts[:capfamily.NumParams], func(_ int, res *dperf.EngineResult) {
			first = *res
		}); err != nil {
			log.Fatal(err)
		}
		if first.PredictedSeconds != check.PredictedSeconds {
			log.Fatalf("tape scan diverged from full evaluation: %v vs %v", first.PredictedSeconds, check.PredictedSeconds)
		}
		fmt.Printf("  %d peers: %d points — %d replayed, %d guard fallbacks, %d tape regions; best %.3f s\n",
			pp.peers, stats.Points, stats.Replayed, stats.Fallbacks, stats.Regions, best)
	}

	// Gradient capacity search: the tape's dual-number replay gives
	// exact ∂t/∂bandwidth, so Newton iteration walks the smallest
	// winning cell's bandwidth axis to the break-even NIC where the
	// desktops exactly match the cluster — no grid, a handful of
	// replays.
	gw := 0
	for _, pp := range plan {
		if _, ok := frontier[pp.peers]; ok {
			gw = pp.peers
			break
		}
	}
	if fv, ok := frontier[gw]; ok {
		plat, err := capfamily.Star(gw)
		if err != nil {
			log.Fatal(err)
		}
		build := capfamily.Family(plat, gw, refN, rounds, p2psap.Synchronous)
		point := []float64{fv.bw, fv.lat, refSpeed}
		tape, err := analytic.CompileTape(plat, point, build)
		if err != nil {
			log.Fatal(err)
		}
		goal := target[refN]
		steps := 0
		for ; steps < 12; steps++ {
			g, ok := tape.Grad(point)
			if !ok {
				// Left the recorded region: re-record at the current
				// point and continue — the gradient walk's guard
				// fallback.
				if tape, err = analytic.CompileTape(plat, point, build); err != nil {
					log.Fatal(err)
				}
				if g, ok = tape.Grad(point); !ok {
					log.Fatal("fresh tape rejects its own record point")
				}
			}
			resid := g.Res.PredictedSeconds - goal
			if math.Abs(resid) < 1e-6*goal || g.Grad[capfamily.ParamBandwidth] == 0 {
				break
			}
			point[capfamily.ParamBandwidth] -= resid / g.Grad[capfamily.ParamBandwidth]
		}
		final, err := capfamily.Evaluate(gw, refN, rounds, p2psap.Synchronous,
			point[0], point[1], point[2])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ngradient capacity search (dual-number tape replay):\n")
		fmt.Printf("  %d peers match the cluster at %.1f Mbps NICs after %d Newton steps: %.6f s vs target %.6f s\n",
			gw, point[0]/platform.Mbps, steps, final.PredictedSeconds, goal)
	}

	// DES spot-check: replay a handful of scanned points (and the
	// cluster target) through the fast-forward DES engine; the
	// analytic tier must agree bit for bit.
	fmt.Println("\nDES spot-check (analytic vs fast-forward replay):")
	checks := []struct {
		label  string
		plat   *platform.Platform
		peers  int
		scheme p2psap.Scheme
		speed  float64
		bw     float64
	}{
		{"cluster target", clusterPlat, clusterPeers, p2psap.Synchronous, platform.NodeSpeed, 0},
		{"2 peers, 100 Mbps", nil, 2, p2psap.Synchronous, refSpeed, 100 * platform.Mbps},
		{"4 peers, 100 Mbps", nil, 4, p2psap.Asynchronous, refSpeed, 100 * platform.Mbps},
		{"8 peers, 1 Gbps", nil, 8, p2psap.Synchronous, refSpeed, 1 * platform.Gbps},
	}
	worst := 0.0
	for _, c := range checks {
		plat := c.plat
		if plat == nil {
			var err error
			plat, err = capfamily.Concrete(c.peers, c.bw, 300e-6)
			if err != nil {
				log.Fatal(err)
			}
		}
		src := capfamily.Source(c.peers, refN, rounds, c.speed)
		spec := capfamily.Spec(plat, c.peers, refN, c.scheme, src)
		ares, err := analytic.Evaluate(spec)
		if err != nil {
			log.Fatal(err)
		}
		rres, err := replay.RunSource(replay.Spec{
			Platform:     plat,
			Hosts:        spec.Hosts,
			Submitter:    spec.Submitter,
			Scheme:       spec.Scheme,
			ScatterBytes: spec.ScatterBytes,
			GatherBytes:  spec.GatherBytes,
			FastForward:  replay.FFOn,
		}, src)
		if err != nil {
			log.Fatal(err)
		}
		diff := math.Abs(ares.PredictedSeconds - rres.PredictedSeconds)
		if diff > worst {
			worst = diff
		}
		mark := "bit-identical"
		if diff != 0 {
			mark = fmt.Sprintf("delta %g s", diff)
		}
		fmt.Printf("  %-20s analytic %.6f s, DES %.6f s — %s\n",
			c.label, ares.PredictedSeconds, rres.PredictedSeconds, mark)
	}
	if worst != 0 {
		log.Fatalf("analytic tier diverged from DES replay by %g s", worst)
	}
}
