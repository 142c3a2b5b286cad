package main

import (
	"fmt"
	"io"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
)

// runScan is the -scan smoke path: compile capfamily's demo family,
// scan its default grid through guarded evaluation tapes, cross-check
// every point bit for bit against the full analytic evaluator, and
// print the deterministic region/fallback fingerprint.
func runScan(stdout io.Writer) error {
	bws, lats, speeds := capfamily.DemoGrid()
	plat, err := capfamily.Star(capfamily.DemoPeers)
	if err != nil {
		return err
	}
	fam := dperf.ScanFamily{
		Platform:  plat,
		NumParams: capfamily.NumParams,
		Build:     capfamily.Family(plat, capfamily.DemoPeers, capfamily.DemoN, capfamily.DemoRounds, p2psap.Synchronous),
	}
	pts := make([]float64, 0, len(bws)*len(lats)*len(speeds)*capfamily.NumParams)
	for _, bw := range bws {
		for _, lat := range lats {
			for _, s := range speeds {
				pts = append(pts, bw, lat, s)
			}
		}
	}

	lo, hi := 0.0, 0.0
	results := make([]dperf.EngineResult, len(pts)/capfamily.NumParams)
	stats, err := dperf.Scan(fam, pts, func(i int, res *dperf.EngineResult) {
		results[i] = *res
		if i == 0 || res.PredictedSeconds < lo {
			lo = res.PredictedSeconds
		}
		if res.PredictedSeconds > hi {
			hi = res.PredictedSeconds
		}
	})
	if err != nil {
		return err
	}

	// Bit-identity cross-check: every scanned point — replayed or
	// fallback — must equal the un-taped closed-form evaluation.
	match := 0
	for i := range results {
		bw, lat, s := pts[i*3], pts[i*3+1], pts[i*3+2]
		want, err := capfamily.Evaluate(capfamily.DemoPeers, capfamily.DemoN, capfamily.DemoRounds, p2psap.Synchronous, bw, lat, s)
		if err != nil {
			return err
		}
		if results[i].PredictedSeconds != want.PredictedSeconds ||
			results[i].ScatterSeconds != want.ScatterSeconds ||
			results[i].ComputeSeconds != want.ComputeSeconds ||
			results[i].GatherSeconds != want.GatherSeconds {
			return fmt.Errorf("tape scan diverged from full evaluation at bw=%g lat=%g speed=%g: %v vs %v",
				bw, lat, s, results[i].PredictedSeconds, want.PredictedSeconds)
		}
		match++
	}

	fmt.Fprintf(stdout, "symbolic scan: ghost-exchange family, %d peers, N=%d, %d rounds\n",
		capfamily.DemoPeers, capfamily.DemoN, capfamily.DemoRounds)
	fmt.Fprintf(stdout, "  grid: %d bandwidths x %d latencies x %d speeds = %d points\n",
		len(bws), len(lats), len(speeds), stats.Points)
	fmt.Fprintf(stdout, "  tape replayed %d points, %d guard fallbacks, %d tape regions\n",
		stats.Replayed, stats.Fallbacks, stats.Regions)
	fmt.Fprintf(stdout, "  bit-identity: %d/%d points match the full analytic evaluation\n",
		match, stats.Points)
	fmt.Fprintf(stdout, "  t_predicted range: %.6f s .. %.6f s\n", lo, hi)
	return nil
}
