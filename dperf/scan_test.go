package dperf_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/platform"
)

// ghostFamily assembles the capacity family as a dperf.ScanFamily.
func ghostFamily(t testing.TB, w, n, rounds int, key string) dperf.ScanFamily {
	t.Helper()
	plat, err := capfamily.Star(w)
	if err != nil {
		t.Fatal(err)
	}
	return dperf.ScanFamily{
		Platform:  plat,
		NumParams: capfamily.NumParams,
		Build:     capfamily.Family(plat, w, n, rounds, p2psap.Synchronous),
		Key:       key,
	}
}

// grid builds the row-major cross product of the axes.
func grid(bws, lats, speeds []float64) []float64 {
	pts := make([]float64, 0, len(bws)*len(lats)*len(speeds)*3)
	for _, bw := range bws {
		for _, lat := range lats {
			for _, s := range speeds {
				pts = append(pts, bw, lat, s)
			}
		}
	}
	return pts
}

// linspace returns k points evenly spaced over [lo, hi].
func linspace(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return out
}

// verifyScan replays the grid through Scan and checks every visited
// result bit for bit against a full analytic evaluation of the same
// point. Returns the stats.
func verifyScan(t *testing.T, p *dperf.Predictor, f dperf.ScanFamily, w, n, rounds int, pts []float64) *dperf.ScanStats {
	t.Helper()
	got := make([]dperf.EngineResult, len(pts)/3)
	seen := make([]bool, len(got))
	stats, err := p.Scan(f, pts, func(i int, res *dperf.EngineResult) {
		got[i] = *res
		seen[i] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(got) || stats.Replayed+stats.Fallbacks != stats.Points {
		t.Fatalf("inconsistent stats: %+v over %d points", stats, len(got))
	}
	for i := range got {
		if !seen[i] {
			t.Fatalf("point %d never visited", i)
		}
		bw, lat, speed := pts[i*3], pts[i*3+1], pts[i*3+2]
		want, err := capfamily.Evaluate(w, n, rounds, p2psap.Synchronous, bw, lat, speed)
		if err != nil {
			t.Fatalf("full evaluation at point %d: %v", i, err)
		}
		if got[i].PredictedSeconds != want.PredictedSeconds ||
			got[i].ScatterSeconds != want.ScatterSeconds ||
			got[i].ComputeSeconds != want.ComputeSeconds ||
			got[i].GatherSeconds != want.GatherSeconds ||
			got[i].RoundsSimulated != want.RoundsSimulated ||
			got[i].RoundsFastForwarded != want.RoundsFastForwarded {
			t.Fatalf("scan diverged from full evaluation at bw=%g lat=%g speed=%g:\nscan %+v\nfull %+v",
				bw, lat, speed, got[i], *want)
		}
	}
	return stats
}

// TestScanBitIdentical: a grid straddling the P2PSAP profile
// threshold must be served bit-identically to the full analytic
// evaluator at every point — replayed points and guard fallbacks
// alike — and must discover at least two tape regions.
func TestScanBitIdentical(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	pts := grid(
		linspace(200*platform.Mbps, 210*platform.Mbps, 3),
		[]float64{100e-6, 103e-6, 900e-6, 927e-6}, // straddles the 0.5 ms profile threshold
		[]float64{3e9, 3.06e9},
	)
	stats := verifyScan(t, dperf.NewPredictor(), ghostFamily(t, w, n, rounds, ""), w, n, rounds, pts)
	if stats.Regions < 2 {
		t.Fatalf("threshold-straddling grid produced %d region(s), want >= 2", stats.Regions)
	}
	if stats.Replayed == 0 {
		t.Fatal("no point was served by tape replay")
	}
	t.Logf("scan: %+v", *stats)
}

// TestScanSharedTapes: a keyed family caches its regions on the
// predictor, so a second scan of the same grid replays every point
// with zero fallbacks — and stays bit-identical.
func TestScanSharedTapes(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	p := dperf.NewPredictor()
	f := ghostFamily(t, w, n, rounds, "ghost-w2n256")
	pts := grid(
		linspace(200*platform.Mbps, 210*platform.Mbps, 3),
		[]float64{100e-6, 900e-6},
		[]float64{3e9},
	)
	first, err := p.Scan(f, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Fallbacks == 0 {
		t.Fatal("cold scan reported no fallbacks")
	}
	second := verifyScan(t, p, f, w, n, rounds, pts)
	if second.Fallbacks != 0 {
		t.Fatalf("warm scan of a keyed family recorded %d new region(s), want 0", second.Fallbacks)
	}
	if second.Replayed != second.Points {
		t.Fatalf("warm scan replayed %d of %d points", second.Replayed, second.Points)
	}
}

// TestScanErrors: malformed families and grids fail up front.
func TestScanErrors(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	f := ghostFamily(t, w, n, rounds, "")
	if _, err := dperf.Scan(dperf.ScanFamily{}, nil, nil); err == nil {
		t.Fatal("empty family accepted")
	}
	if _, err := dperf.Scan(dperf.ScanFamily{Platform: f.Platform, NumParams: 3}, nil, nil); err == nil {
		t.Fatal("family without build function accepted")
	}
	bad := f
	bad.NumParams = 0
	if _, err := dperf.Scan(bad, nil, nil); err == nil {
		t.Fatal("zero-parameter family accepted")
	}
	if _, err := dperf.Scan(f, []float64{1, 2}, nil); err == nil {
		t.Fatal("ragged grid accepted")
	}
}

// TestPredictorScanConcurrent exercises one shared Predictor under
// concurrent mixed-mode load: scans of a keyed family hitting the
// shared tape cache interleaved with analytic Predict calls hitting
// the shared certificate cache. Every scan must see the same bits as
// a serial reference scan; run under -race this is the concurrency
// contract of the serving caches.
func TestPredictorScanConcurrent(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	shared := dperf.NewPredictor()
	f := ghostFamily(t, w, n, rounds, "ghost-conc")
	pts := grid(
		linspace(200*platform.Mbps, 210*platform.Mbps, 4),
		[]float64{100e-6, 103e-6, 900e-6},
		[]float64{3e9, 3.06e9},
	)
	npts := len(pts) / 3

	// Serial reference on a private predictor.
	ref := make([]float64, npts)
	if _, err := dperf.NewPredictor().Scan(f, pts, func(i int, res *dperf.EngineResult) {
		ref[i] = res.PredictedSeconds
	}); err != nil {
		t.Fatal(err)
	}

	// Analytic-tier Predict fixture sharing the predictor.
	a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithPlatform(dperf.KindCluster), dperf.WithRanks(4)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	predOpts := []dperf.Option{
		dperf.WithPlatform(dperf.KindCluster),
		dperf.WithPredictMode(dperf.PredictAuto),
		dperf.WithPredictor(shared),
	}
	refPred, err := ts.Predict(predOpts...)
	if err != nil {
		t.Fatal(err)
	}

	const scanners, predictors, iters = 4, 2, 3
	var wg sync.WaitGroup
	errs := make(chan error, scanners+predictors)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				bad := -1
				stats, err := shared.Scan(f, pts, func(i int, res *dperf.EngineResult) {
					if res.PredictedSeconds != ref[i] && bad < 0 {
						bad = i
					}
				})
				if err != nil {
					errs <- err
					return
				}
				if bad >= 0 {
					t.Errorf("concurrent scan diverged from serial reference at point %d", bad)
					return
				}
				if stats.Replayed+stats.Fallbacks != stats.Points {
					t.Errorf("inconsistent concurrent stats: %+v", *stats)
					return
				}
			}
		}()
	}
	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters*2; it++ {
				pred, err := ts.Predict(predOpts...)
				if err != nil {
					errs <- err
					return
				}
				if pred.Predicted != refPred.Predicted || pred.Tier != refPred.Tier {
					t.Errorf("concurrent predict diverged: %+v vs %+v", pred, refPred)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The cache converged: one more scan must be all replays.
	final, err := shared.Scan(f, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Fallbacks != 0 {
		t.Fatalf("post-convergence scan still recorded %d region(s)", final.Fallbacks)
	}
}

// TestSymbolicScanSpeedup pins the work of the symbolic scan path on
// a dense capacity cell. The cold pass records 18 tape regions: 6382
// of its 6400 points are served by guarded replay and 18 by a fresh
// recording evaluation, and every one is checked bit for bit against
// the full analytic evaluator. Each warm pass then serves all 6400
// points by replay, with no fallback and no new region. The counts are
// deterministic, so they are pinned exactly; the throughput against
// the full evaluator is logged, not gated, because wall-clock ratios
// belong to the bench harness.
func TestSymbolicScanSpeedup(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	p := dperf.NewPredictor()
	f := ghostFamily(t, w, n, rounds, "ghost-speedup")

	// A dense procurement cell around the 200 Mbps / 100 µs / 3 GHz
	// corner: 40 × 20 × 8 = 6400 points, tight enough that the family's
	// control flow is stable across the cell.
	pts := grid(
		linspace(196*platform.Mbps, 206*platform.Mbps, 40),
		linspace(98e-6, 103e-6, 20),
		linspace(2.98e9, 3.05e9, 8),
	)
	npts := len(pts) / 3

	// Cold pass: discovers the cell's regions and pins every point to
	// the full evaluator bit for bit.
	cold := verifyScan(t, p, f, w, n, rounds, pts)
	if want := (dperf.ScanStats{Points: 6400, Replayed: 6382, Fallbacks: 18, Regions: 18}); *cold != want {
		t.Fatalf("cold scan work %+v, want %+v", *cold, want)
	}

	// The full closed-form evaluation rate of the same family, for the
	// log line only.
	const evalPts = 64
	evalStart := time.Now()
	var evalSink float64
	for i := 0; i < evalPts; i++ {
		res, err := capfamily.Evaluate(w, n, rounds, p2psap.Synchronous,
			pts[i*3], pts[i*3+1], pts[i*3+2])
		if err != nil {
			t.Fatal(err)
		}
		evalSink += res.PredictedSeconds
	}
	evalRate := evalPts / time.Since(evalStart).Seconds()

	// Warm passes: pure guarded replay over the cached regions.
	var sink float64
	best := time.Duration(math.MaxInt64)
	for run := 0; run < 5; run++ {
		start := time.Now()
		stats, err := p.Scan(f, pts, func(i int, res *dperf.EngineResult) {
			sink += res.PredictedSeconds
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		if want := (dperf.ScanStats{Points: 6400, Replayed: 6400, Fallbacks: 0, Regions: 18}); *stats != want {
			t.Fatalf("warm scan %d work %+v, want %+v", run, *stats, want)
		}
	}
	rate := float64(npts) / best.Seconds()
	t.Logf("symbolic scan: %d points in %v — %.0f points/s vs %.0f points/s full evaluation, %.1fx (sink %g, evalSink %g)",
		npts, best, rate, evalRate, rate/evalRate, sink, evalSink)
}

// goroutineID returns the running goroutine's id, read from the
// header line of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	return strings.Fields(string(line))[1]
}

// TestScanCoresDeterministic runs TestSymbolicScanSpeedup's 6400-point
// cell at GOMAXPROCS 1 and 4 on fresh predictors, in three passes: a
// 32-point corner of the cell, then the whole cell with the corner's
// regions cached (its workers defer the points those reject), then the
// whole cell warm. In every pass visit must see indices 0…n−1 in order
// on the calling goroutine, each result's bits must be the same at both
// settings, and both must count the work a serial scan counts.
func TestScanCoresDeterministic(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	bws := linspace(196*platform.Mbps, 206*platform.Mbps, 40)
	lats := linspace(98e-6, 103e-6, 20)
	speeds := linspace(2.98e9, 3.05e9, 8)
	passes := [][]float64{grid(bws[:2], lats[:2], speeds), grid(bws, lats, speeds), grid(bws, lats, speeds)}
	type run struct {
		stats []dperf.ScanStats
		bits  [][]uint64
	}
	scanAt := func(procs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p := dperf.NewPredictor()
		f := ghostFamily(t, w, n, rounds, "ghost-cores")
		caller := goroutineID()
		var out run
		for pass, pts := range passes {
			var bits []uint64
			var bad string
			stats, err := p.Scan(f, pts, func(i int, res *dperf.EngineResult) {
				if i != len(bits)/6 && bad == "" {
					bad = fmt.Sprintf("visit saw point %d after %d points", i, len(bits)/6)
				}
				if id := goroutineID(); id != caller && bad == "" {
					bad = fmt.Sprintf("visit ran on goroutine %s, the caller is %s", id, caller)
				}
				bits = append(bits,
					math.Float64bits(res.PredictedSeconds), math.Float64bits(res.ScatterSeconds),
					math.Float64bits(res.ComputeSeconds), math.Float64bits(res.GatherSeconds),
					uint64(res.RoundsSimulated), uint64(res.RoundsFastForwarded))
			})
			if err != nil {
				t.Fatal(err)
			}
			if bad != "" {
				t.Fatalf("GOMAXPROCS %d pass %d: %s", procs, pass, bad)
			}
			if len(bits) != 6*len(pts)/3 {
				t.Fatalf("GOMAXPROCS %d pass %d: visited %d of %d points", procs, pass, len(bits)/6, len(pts)/3)
			}
			out.stats = append(out.stats, *stats)
			out.bits = append(out.bits, bits)
		}
		return out
	}
	one, four := scanAt(1), scanAt(4)
	// A single serial pass over each grid in point order counts the
	// same: the half-warm pass records the 11 regions its 7 starting
	// tapes miss, and 7 + 11 is the cold cell's 18.
	want := []dperf.ScanStats{
		{Points: 32, Replayed: 25, Fallbacks: 7, Regions: 7},
		{Points: 6400, Replayed: 6389, Fallbacks: 11, Regions: 18},
		{Points: 6400, Replayed: 6400, Fallbacks: 0, Regions: 18},
	}
	for pass := range passes {
		if one.stats[pass] != want[pass] || four.stats[pass] != want[pass] {
			t.Fatalf("pass %d: GOMAXPROCS 1 %+v, GOMAXPROCS 4 %+v, want %+v", pass, one.stats[pass], four.stats[pass], want[pass])
		}
		for k, v := range one.bits[pass] {
			if four.bits[pass][k] != v {
				t.Fatalf("pass %d: point %d differs between GOMAXPROCS 1 and 4", pass, k/6)
			}
		}
	}
}

// BenchmarkSymbolicScan measures the warm scan path end to end
// through the public API (per-op time is for the whole 6400-point
// grid).
func BenchmarkSymbolicScan(b *testing.B) {
	const w, n, rounds = 2, 256, 40
	p := dperf.NewPredictor()
	plat, err := capfamily.Star(w)
	if err != nil {
		b.Fatal(err)
	}
	f := dperf.ScanFamily{
		Platform:  plat,
		NumParams: capfamily.NumParams,
		Build:     capfamily.Family(plat, w, n, rounds, p2psap.Synchronous),
		Key:       "ghost-bench",
	}
	pts := grid(
		linspace(196*platform.Mbps, 206*platform.Mbps, 40),
		linspace(98e-6, 103e-6, 20),
		linspace(2.98e9, 3.05e9, 8),
	)
	if _, err := p.Scan(f, pts, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Scan(f, pts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)/3)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// scanGridCells are the corners of the cells the served benchmark's
// scan-grid workload scans; each cell spans 3% of its corner on every
// axis.
var scanGridCells = [][3]float64{
	{100 * platform.Mbps, 300e-6, 2e9},
	{50 * platform.Mbps, 2e-3, 3e9},
	{20 * platform.Mbps, 10e-3, 1e9},
}

// cellGrid returns an 8×8×4 grid inside cell, the k-th of n values on
// an axis at(k, n) of the way across the cell.
func cellGrid(cell [3]float64, at func(k, n int) float64) []float64 {
	axis := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = v * (1 + 0.03*at(k, n))
		}
		return out
	}
	return grid(axis(cell[0], 8), axis(cell[1], 8), axis(cell[2], 4))
}

// TestScanWorkersStartAtAcceptingTape pins the rejecting tape replays
// of warm scans at GOMAXPROCS 1 and 2. Like the scan-grid workload, a
// predictor first scans each cell's corner and midpoint grids, caching
// the cells' regions in cell order; then one grid inside each of the
// second, third and first cell is scanned. Each worker walks its first
// point through the cached tapes before its first batch, so no first
// batch replays through another cell's tape and rejects all its lanes
// (without the walk, each worker whose chunk starts outside the first
// cached region would spend one such batch). The rejecting
// batches left meet perforations of their cell's regions; the scalar
// rejections are the first points' walks past other cells' tapes and
// the rejected lanes' walks. Both depend on where the chunks start, so
// each setting pins its own counts.
func TestScanWorkersStartAtAcceptingTape(t *testing.T) {
	const w, n, rounds = 2, 256, 40
	corners := func(k, n int) float64 { return float64(k) / float64(n-1) }
	midpoints := func(k, n int) float64 { return (float64(k) + 0.5) / float64(n) }
	inside := func(k, n int) float64 { return (float64(k) + 0.25) / float64(n) }
	type run struct {
		stats         []dperf.ScanStats
		batch, scalar int64
	}
	scanAt := func(procs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p := dperf.NewPredictor()
		f := ghostFamily(t, w, n, rounds, "scan-grid-cells")
		for _, cell := range scanGridCells {
			for _, at := range []func(k, n int) float64{corners, midpoints} {
				if _, err := p.Scan(f, cellGrid(cell, at), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		b0, s0 := p.ScanRejects()
		var out run
		for _, c := range []int{1, 2, 0} {
			stats, err := p.Scan(f, cellGrid(scanGridCells[c], inside), nil)
			if err != nil {
				t.Fatal(err)
			}
			out.stats = append(out.stats, *stats)
		}
		b1, s1 := p.ScanRejects()
		out.batch, out.scalar = b1-b0, s1-s0
		return out
	}
	// ScanStats does not depend on GOMAXPROCS. The first two scans each
	// meet a perforation of their cell's regions, one point that falls
	// back and records a region.
	wantStats := []dperf.ScanStats{
		{Points: 256, Replayed: 255, Fallbacks: 1, Regions: 7},
		{Points: 256, Replayed: 255, Fallbacks: 1, Regions: 8},
		{Points: 256, Replayed: 256, Fallbacks: 0, Regions: 8},
	}
	for _, c := range []struct {
		procs         int
		batch, scalar int64
	}{{1, 15, 101}, {2, 15, 111}} {
		got := scanAt(c.procs)
		t.Logf("GOMAXPROCS %d: %+v", c.procs, got)
		for k, st := range got.stats {
			if st != wantStats[k] {
				t.Fatalf("GOMAXPROCS %d: warm scan %d work %+v, want %+v", c.procs, k, st, wantStats[k])
			}
		}
		if got.batch != c.batch || got.scalar != c.scalar {
			t.Errorf("GOMAXPROCS %d: warm scans ran %d rejecting batch and %d rejecting scalar replays, want %d and %d",
				c.procs, got.batch, got.scalar, c.batch, c.scalar)
		}
	}
}
