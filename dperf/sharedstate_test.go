package dperf_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/dperf"
	"repro/internal/platform"
	"repro/internal/trace"
)

// TestSharedServingStateConcurrent is the serving-stack shared-state
// audit: one Predictor, one PeriodCache and one SessionPool serve a
// mix of pooled DES predicts, partitioned-parallel predicts, auto-tier
// predicts, sweeps, keyed scans and failing requests from many
// goroutines, while an evictor goroutine keeps closing idle sessions
// underneath them. Every successful result must be byte-identical to a
// cold single-threaded baseline — the caches and the pool are
// execution strategy, never observable state. Run under -race this is
// the eviction/rebuild interleaving matrix for the whole dperfd
// serving path.
func TestSharedServingStateConcurrent(t *testing.T) {
	a, err := dperf.New(smallObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces(dperf.WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cold baselines: fresh engine, predictor and caches per call.
	baseline := func(opts ...dperf.Option) string {
		t.Helper()
		pred, err := ts.Predict(append([]dperf.Option{dperf.WithFastForward(true)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pred.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	wantCluster := baseline(dperf.WithPlatform(dperf.KindCluster))
	wantLAN := baseline(dperf.WithPlatform(dperf.KindLAN))
	wantParallel := baseline(dperf.WithPlatform(dperf.KindCluster), dperf.WithReplayWorkers(2))
	wantAuto := baseline(dperf.WithPlatform(dperf.KindCluster), dperf.WithPredictMode(dperf.PredictAuto))

	sweepSpace := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Schemes:   []dperf.Scheme{dperf.Synchronous},
	}
	coldSweep, err := dperf.Sweep(ts, sweepSpace, dperf.SweepOptions(dperf.WithFastForward(true)))
	if err != nil {
		t.Fatal(err)
	}
	var sweepBuf bytes.Buffer
	if err := coldSweep.WriteJSON(&sweepBuf); err != nil {
		t.Fatal(err)
	}
	wantSweep := sweepBuf.String()

	const famW, famN, famRounds = 2, 256, 40
	scanPts := grid(
		linspace(200*platform.Mbps, 210*platform.Mbps, 2),
		[]float64{100e-6, 900e-6}, // straddles the profile threshold
		[]float64{3e9},
	)
	wantScan := make([]dperf.EngineResult, len(scanPts)/3)
	coldFam := ghostFamily(t, famW, famN, famRounds, "")
	if _, err := dperf.NewPredictor().Scan(coldFam, scanPts, func(i int, res *dperf.EngineResult) {
		wantScan[i] = *res
	}); err != nil {
		t.Fatal(err)
	}

	// The shared serving state, exactly as dperfd wires it.
	sp := dperf.NewPredictor()
	periods := dperf.NewPeriodCache()
	pool := dperf.NewSessionPool()
	sharedFam := ghostFamily(t, famW, famN, famRounds, "shared-race")
	sharedFam.Platform = coldFam.Platform // one platform identity for the keyed tapes
	sharedFam.Build = coldFam.Build
	shared := func(extra ...dperf.Option) []dperf.Option {
		return append([]dperf.Option{
			dperf.WithFastForward(true),
			dperf.WithPredictor(sp),
			dperf.WithPeriodCache(periods),
		}, extra...)
	}

	predictJSON := func(opts []dperf.Option) (string, error) {
		pred, err := ts.Predict(opts...)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := pred.WriteJSON(&buf); err != nil {
			return "", err
		}
		return buf.String(), nil
	}

	const goroutines = 6
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	var done atomic.Bool
	check := func(kind string, got string, err error, want string) {
		if err != nil {
			errs <- fmt.Errorf("%s: %w", kind, err)
			return
		}
		if got != want {
			errs <- fmt.Errorf("%s: shared-state result diverged from cold baseline:\n got: %s\nwant: %s", kind, got, want)
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 6 {
				case 0:
					got, err := predictJSON(shared(dperf.WithPlatform(dperf.KindCluster), dperf.WithEngine(pool)))
					check("pooled/grid5000", got, err, wantCluster)
				case 1:
					got, err := predictJSON(shared(dperf.WithPlatform(dperf.KindLAN), dperf.WithEngine(pool)))
					check("pooled/lan", got, err, wantLAN)
				case 2:
					got, err := predictJSON(shared(dperf.WithPlatform(dperf.KindCluster), dperf.WithReplayWorkers(2)))
					check("parallel", got, err, wantParallel)
				case 3:
					got, err := predictJSON(shared(dperf.WithPlatform(dperf.KindCluster), dperf.WithPredictMode(dperf.PredictAuto)))
					check("auto", got, err, wantAuto)
				case 4:
					res, err := dperf.Sweep(ts, sweepSpace, dperf.SweepOptions(shared(dperf.WithEngine(pool))...))
					if err != nil {
						errs <- fmt.Errorf("sweep: %w", err)
						continue
					}
					var buf bytes.Buffer
					if err := res.WriteJSON(&buf); err != nil {
						errs <- fmt.Errorf("sweep encode: %w", err)
						continue
					}
					check("sweep", buf.String(), nil, wantSweep)
				case 5:
					got := make([]dperf.EngineResult, len(wantScan))
					if _, err := sp.Scan(sharedFam, scanPts, func(i int, res *dperf.EngineResult) {
						got[i] = *res
					}); err != nil {
						errs <- fmt.Errorf("scan: %w", err)
						continue
					}
					for i := range got {
						if got[i] != wantScan[i] {
							errs <- fmt.Errorf("scan point %d diverged: %+v vs %+v", i, got[i], wantScan[i])
							break
						}
					}
				}
				// A failing request must not poison any shared structure
				// for the successful ones racing with it.
				if _, err := ts.Predict(shared(dperf.WithPlatform(dperf.Kind("no-such-platform")), dperf.WithEngine(pool))...); err == nil {
					errs <- fmt.Errorf("predict on an unknown platform succeeded")
				}
			}
		}(g)
	}
	// Evictor: tear down idle sessions continuously so checkouts race
	// with closes and rebuilds.
	evictDone := make(chan struct{})
	go func() {
		defer close(evictDone)
		for !done.Load() {
			pool.CloseIdle()
		}
	}()
	wg.Wait()
	done.Store(true)
	<-evictDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// scaleCompute multiplies every compute duration of a folded op
// sequence by f, in place.
func scaleCompute(ops []trace.Op, f float64) {
	for i := range ops {
		scaleCompute(ops[i].Body, f)
		if ops[i].Rec.Kind == trace.KindCompute {
			ops[i].Rec.NS *= f
		}
	}
}

// TestSharedCachesPinTheirSources: the Predictor's certificates and the
// PeriodCache key a trace source by its address. A long-lived pair of
// caches serving a stream of short-lived sets — each dropped and
// collected before the next arrives, so the allocator may hand the next
// set a freed set's address — must never serve one set another's
// cached answer: every auto prediction through the shared caches is
// byte-equal to a cold Predictor's.
func TestSharedCachesPinTheirSources(t *testing.T) {
	a, err := dperf.New(ffObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := base.WriteBinary(&artifact); err != nil {
		t.Fatal(err)
	}
	predictor, periods := dperf.NewPredictor(), dperf.NewPeriodCache()
	render := func(ts *dperf.TraceSet, opts ...dperf.Option) string {
		t.Helper()
		pred, err := ts.Predict(append([]dperf.Option{dperf.WithPredictMode(dperf.PredictAuto),
			dperf.WithFastForward(true), dperf.WithPlatform(dperf.KindCluster)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pred.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for i := 0; i < 24; i++ {
		ts, err := dperf.ReadTraceSetData("variant", artifact.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ts.Folded() {
			scaleCompute(f.Ops, 1+float64(i)/64)
		}
		if err := ts.Prepare(); err != nil {
			t.Fatal(err)
		}
		shared := render(ts, dperf.WithPredictor(predictor), dperf.WithPeriodCache(periods))
		if cold := render(ts); shared != cold {
			t.Fatalf("variant %d: shared caches served\n%s\nwant the cold prediction\n%s", i, shared, cold)
		}
		ts = nil
		runtime.GC()
	}
}
