package dperf_test

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"repro/dperf"
)

// ffObstacle is the smallest obstacle configuration whose rounds are
// compute-led enough for the steady-state machinery to engage (the
// leading compute must outlast the conv stagger).
func ffObstacle() dperf.ObstacleWorkload {
	return dperf.ObstacleWorkload{N: 1200, Rounds: 40, Sweeps: 15, BenchN: 32}
}

// TestAnalyticMatchesFastForward is the analytic tier's differential
// harness: across the three paper platforms, rank counts 2–16 and both
// schemes, the forced-analytic prediction must be bit-identical —
// timings and round accounting — to the DES fast-forward replay of the
// same traces. The obstacle here is small enough that not every point
// reaches a steady state; bit-identity must hold either way.
func TestAnalyticMatchesFastForward(t *testing.T) {
	w := dperf.ObstacleWorkload{N: 256, Rounds: 12, Sweeps: 2, BenchN: 16}
	a, err := dperf.New(w).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4, 8, 16} {
		ts, err := a.Traces(dperf.WithRanks(ranks))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []dperf.Kind{dperf.KindCluster, dperf.KindLAN, dperf.KindDaisy} {
			for _, scheme := range []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous} {
				opts := []dperf.Option{dperf.WithPlatform(kind), dperf.WithScheme(scheme)}
				des, err := ts.Predict(append(opts, dperf.WithFastForward(true))...)
				if err != nil {
					t.Fatal(err)
				}
				ana, err := ts.Predict(append(opts, dperf.WithPredictMode(dperf.PredictAnalytic))...)
				if err != nil {
					t.Fatalf("r%d %s %s: analytic predict: %v", ranks, kind, scheme, err)
				}
				if ana.Tier != dperf.TierAnalytic {
					t.Fatalf("r%d %s %s: tier %q, want %q", ranks, kind, scheme, ana.Tier, dperf.TierAnalytic)
				}
				if des.Tier != dperf.TierDES {
					t.Fatalf("r%d %s %s: DES tier %q, want %q", ranks, kind, scheme, des.Tier, dperf.TierDES)
				}
				if !predEqual(des, ana) {
					t.Fatalf("r%d %s %s: analytic diverged from fast-forward replay:\nDES      %+v\nanalytic %+v",
						ranks, kind, scheme, des, ana)
				}
			}
		}
	}
}

// TestPredictModeRouting pins the tier-selection rules: auto serves
// eligible workloads analytically after certification, falls back to
// DES for ineligible (refolded JSON) sets, and the forced analytic mode
// errors instead of falling back.
func TestPredictModeRouting(t *testing.T) {
	a, err := dperf.New(ffObstacle(), dperf.WithRanks(4)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}

	auto, err := ts.Predict(dperf.WithPredictMode(dperf.PredictAuto))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Tier != dperf.TierAnalytic {
		t.Fatalf("auto mode on an eligible steady-state workload served tier %q", auto.Tier)
	}
	ff, err := ts.Predict(dperf.WithFastForward(true))
	if err != nil {
		t.Fatal(err)
	}
	if !predEqual(ff, auto) {
		t.Fatalf("auto-tier prediction diverged from fast-forward replay:\nDES      %+v\nanalytic %+v", ff, auto)
	}

	// The JSON round trip refolds the records, and trace.Fold does not
	// recover this workload's rounds as a manageable loop, which makes
	// the set ineligible for the analytic tier.
	var js bytes.Buffer
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	flat, err := dperf.ReadTraceSetJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	fauto, err := flat.Predict(dperf.WithPredictMode(dperf.PredictAuto))
	if err != nil {
		t.Fatal(err)
	}
	if fauto.Tier != dperf.TierDES {
		t.Fatalf("auto mode on the refolded set served tier %q, want DES fallback", fauto.Tier)
	}
	if _, err := flat.Predict(dperf.WithPredictMode(dperf.PredictAnalytic)); err == nil {
		t.Fatal("forced analytic mode on the refolded set did not error")
	}

	if _, err := dperf.ParsePredictMode("nonsense"); err == nil {
		t.Fatal("ParsePredictMode accepted nonsense")
	}
	for in, want := range map[string]dperf.PredictMode{
		"":         dperf.PredictDES,
		"des":      dperf.PredictDES,
		"auto":     dperf.PredictAuto,
		"analytic": dperf.PredictAnalytic,
	} {
		got, err := dperf.ParsePredictMode(in)
		if err != nil || got != want {
			t.Fatalf("ParsePredictMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestSweepAnalyticTier: a sweep under predict-mode auto routes
// eligible points through the shared predictor and its predictions
// stay bit-identical to the per-point forced-analytic path.
func TestSweepAnalyticTier(t *testing.T) {
	a, err := dperf.New(ffObstacle(), dperf.WithRanks(4)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Ranks:     []int{4},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	res, err := dperf.Sweep(ts, space, dperf.SweepOptions(dperf.WithPredictMode(dperf.PredictAuto)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("swept %d points, want 4", len(res.Results))
	}
	for _, cr := range res.Results {
		if cr.Error != "" {
			t.Fatalf("%+v failed: %s", cr.Config, cr.Error)
		}
		if cr.Prediction.Tier != dperf.TierAnalytic {
			t.Fatalf("%+v served tier %q, want analytic", cr.Config, cr.Prediction.Tier)
		}
		direct, err := ts.Predict(
			dperf.WithPlatform(cr.Config.Platform),
			dperf.WithScheme(cr.Config.Scheme),
			dperf.WithPredictMode(dperf.PredictAnalytic))
		if err != nil {
			t.Fatal(err)
		}
		if !predEqual(direct, cr.Prediction) {
			t.Fatalf("%+v: sweep prediction diverged from direct analytic predict:\nsweep  %+v\ndirect %+v",
				cr.Config, cr.Prediction, direct)
		}
	}
}

// analyticPredictAllocs bounds the allocations of one warm
// analytic-tier Predict on the paper-scale set, served from a cached
// certificate: option and config assembly, the engine spec and the
// prediction.
const analyticPredictAllocs = 14

// TestAnalyticPaperScaleSpeedup is the analytic tier's acceptance gate
// on the paper-scale obstacle, in work counters. Certifying a
// configuration in auto mode runs exactly one replay, the
// verification, on the serving session pool, and leaves that session
// warm in the pool; analytic mode replays nothing. Once certified, a
// prediction in either mode is served from the certificate —
// bit-identical to the fast-forward DES replay — with no replay and at
// most analyticPredictAllocs allocations. The wall-clock ratio against
// that replay is logged, not gated.
func TestAnalyticPaperScaleSpeedup(t *testing.T) {
	ts := paperSet(t)
	desOpts := []dperf.Option{dperf.WithPlatform(dperf.KindCluster), dperf.WithFastForward(true)}
	ff, err := ts.Predict(desOpts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []dperf.PredictMode{dperf.PredictAnalytic, dperf.PredictAuto} {
		pool := dperf.NewSessionPool()
		opts := append(desOpts,
			dperf.WithPredictMode(mode),
			dperf.WithPredictor(dperf.NewPredictor()),
			dperf.WithEngine(pool))
		cold, err := ts.Predict(opts...) // certify (and, in auto mode, verify) once
		if err != nil {
			t.Fatal(err)
		}
		if cold.Tier != dperf.TierAnalytic {
			t.Fatalf("%v: tier %q, want analytic", mode, cold.Tier)
		}
		if !predEqual(ff, cold) {
			t.Fatalf("%v: analytic tier diverged from fast-forward replay:\nDES      %+v\nanalytic %+v", mode, ff, cold)
		}
		want := int64(0)
		if mode == dperf.PredictAuto {
			want = 1
		}
		if got := pool.Replays(); got != want {
			t.Fatalf("%v: cold prediction ran %d replays, want %d", mode, got, want)
		}
		if got := pool.Idle(); int64(got) != want {
			t.Fatalf("%v: cold prediction left %d idle sessions, want %d", mode, got, want)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ts.Predict(opts...); err != nil {
				t.Fatal(err)
			}
		})
		if got := pool.Replays() - want; got != 0 {
			t.Fatalf("%v: warm predictions ran %d replays, want 0", mode, got)
		}
		// The race detector's instrumentation allocates on its own.
		if !raceEnabled && allocs > analyticPredictAllocs {
			t.Fatalf("%v: warm prediction allocates %v times, want <= %d", mode, allocs, analyticPredictAllocs)
		}
		t.Logf("%v: %v allocations per warm prediction", mode, allocs)
	}

	// Wall clock, for the log only: best of a few warm predictions each.
	best := func(reps int, opts []dperf.Option) time.Duration {
		d := time.Duration(math.MaxInt64)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := ts.Predict(opts...); err != nil {
				t.Fatal(err)
			}
			d = min(d, time.Since(start))
		}
		return d
	}
	anaOpts := append(desOpts, dperf.WithPredictMode(dperf.PredictAnalytic), dperf.WithPredictor(dperf.NewPredictor()))
	des, ana := best(3, desOpts), best(50, anaOpts)
	t.Logf("paper-scale prediction: DES fast-forward %v, analytic %v (%.0fx)", des, ana, float64(des)/float64(ana))
}

// autoOpts are the options dperfd predicts with in auto mode: one
// shared Predictor and one SessionPool serve every request.
func autoOpts(p *dperf.Predictor, pool *dperf.SessionPool) []dperf.Option {
	return []dperf.Option{
		dperf.WithFastForward(true),
		dperf.WithPredictMode(dperf.PredictAuto),
		dperf.WithPredictor(p),
		dperf.WithEngine(pool),
	}
}

// TestAutoVerifyPooledSessions: cold auto-mode predictions verify
// their certificates on the serving pool's sessions, which then stay
// idle in the pool, one per platform, instead of a session realized
// for the verification and discarded.
func TestAutoVerifyPooledSessions(t *testing.T) {
	ts := paperSet(t)
	pool := dperf.NewSessionPool()
	opts := autoOpts(dperf.NewPredictor(), pool)
	for i, kind := range []dperf.Kind{dperf.KindCluster, dperf.KindLAN} {
		pred, err := ts.Predict(append(opts, dperf.WithPlatform(kind))...)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Tier != dperf.TierAnalytic {
			t.Fatalf("%s: tier %q, want analytic", kind, pred.Tier)
		}
		if got := pool.Idle(); got != i+1 {
			t.Fatalf("after the cold %s prediction the pool holds %d idle sessions, want %d", kind, got, i+1)
		}
	}
}

// TestAutoVerifySweep: an auto-mode sweep verifies each certified
// platform with one replay on the sweep's session pool, shared by its
// two scheme rows, and a repeat on the same Predictor replays nothing.
// The sweep runs at one worker: concurrent first uses of one
// certificate may each replay (see TestPredictionWorkCounters).
func TestAutoVerifySweep(t *testing.T) {
	ts := paperSet(t)
	pool := dperf.NewSessionPool()
	opts := dperf.SweepOptions(autoOpts(dperf.NewPredictor(), pool)...)
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	for pass, want := range []int64{2, 0} {
		before := pool.Replays()
		res, err := dperf.Sweep(ts, space, opts, dperf.SweepWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range res.Results {
			if cr.Error != "" {
				t.Fatalf("pass %d: %+v failed: %s", pass, cr.Config, cr.Error)
			}
			if cr.Prediction.Tier != dperf.TierAnalytic {
				t.Fatalf("pass %d: %+v served tier %q, want analytic", pass, cr.Config, cr.Prediction.Tier)
			}
		}
		if got := pool.Replays() - before; got != want {
			t.Fatalf("pass %d: the sweep ran %d replays, want %d", pass, got, want)
		}
	}
}

// TestPredictionWorkCounters pins what each distinct prediction costs,
// on a fresh Predictor and session pool:
//   - an auto sweep of {cluster, lan} × {sync, async} on paperSet runs
//     one verification replay and one certification per platform, 2
//     and 2, because a platform's two scheme rows share its
//     certificate entry. The replay count is exact at one worker; at
//     two, both scheme rows of a platform may verify concurrently and
//     each replay, so it is at most one per configuration, while
//     certification stays once per entry;
//   - a DES sweep of the same space replays each configuration, 4;
//   - a cold auto predict of unsettledSet runs 1 replay and no
//     certification, because that replay never jumped: with
//     fast-forward on it is the answer, and with fast-forward off the
//     answer costs a second replay.
func TestPredictionWorkCounters(t *testing.T) {
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	count := func(run func(p *dperf.Predictor, pool *dperf.SessionPool)) (replays, certs int64) {
		p, pool := dperf.NewPredictor(), dperf.NewSessionPool()
		run(p, pool)
		return pool.Replays(), p.Certifications()
	}
	for _, c := range []struct {
		mode                   dperf.PredictMode
		workers                int
		minReplays, maxReplays int64
		wantCert               int64
	}{
		{dperf.PredictAuto, 1, 2, 2, 2},
		{dperf.PredictAuto, 2, 2, 4, 2},
		{dperf.PredictDES, 1, 4, 4, 0},
		{dperf.PredictDES, 2, 4, 4, 0},
	} {
		replays, certs := count(func(p *dperf.Predictor, pool *dperf.SessionPool) {
			opts := []dperf.Option{dperf.WithFastForward(true), dperf.WithPredictMode(c.mode),
				dperf.WithPredictor(p), dperf.WithEngine(pool)}
			res, err := dperf.Sweep(paperSet(t), space, dperf.SweepOptions(opts...), dperf.SweepWorkers(c.workers))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() != 0 {
				t.Fatalf("%v sweep: %d failed configurations", c.mode, res.Failed())
			}
		})
		if replays < c.minReplays || replays > c.maxReplays || certs != c.wantCert {
			t.Errorf("%v sweep, %d workers: %d replays and %d certifications, want %d–%d and %d",
				c.mode, c.workers, replays, certs, c.minReplays, c.maxReplays, c.wantCert)
		}
	}
	for _, c := range []struct {
		ff          bool
		wantReplays int64
	}{{true, 1}, {false, 2}} {
		replays, certs := count(func(p *dperf.Predictor, pool *dperf.SessionPool) {
			opts := append(autoOpts(p, pool), dperf.WithFastForward(c.ff), dperf.WithPlatform(dperf.KindCluster))
			pred, err := unsettledSet(t).Predict(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if pred.Tier != dperf.TierDES {
				t.Fatalf("unsettled set served tier %q, want des", pred.Tier)
			}
		})
		if replays != c.wantReplays || certs != 0 {
			t.Errorf("cold auto predict of the unsettled set, fast-forward %t: %d replays and %d certifications, want %d and 0",
				c.ff, replays, certs, c.wantReplays)
		}
	}
}

// TestAutoVerifyRefusesMismatch: auto mode serves a certificate only
// if it matches the pool's verification replay bit for bit. Here the
// configuration's certificate is moved by 1e-9 s before any auto
// predict, so the verification replay (which jumps) refuses it: each
// predict answers with the fast-forward DES replay's bits and tier
// des. The verdict is kept, so the second predict replays once more
// and certifies nothing.
func TestAutoVerifyRefusesMismatch(t *testing.T) {
	ts := paperSet(t)
	cluster := dperf.WithPlatform(dperf.KindCluster)
	ref, err := ts.Predict(cluster, dperf.WithFastForward(true), dperf.WithEngine(dperf.NewSessionPool()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.RoundsFastForwarded == 0 {
		t.Fatalf("the reference replay never jumped: %+v", ref)
	}
	p, pool := dperf.NewPredictor(), dperf.NewSessionPool()
	opts := append(autoOpts(p, pool), cluster)
	if err := dperf.SkewCertificate(p, ts, 1e-9, opts...); err != nil {
		t.Fatal(err)
	}
	for i, wantReplays := range []int64{1, 2} {
		pred, err := ts.Predict(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Tier != dperf.TierDES || !predEqual(ref, pred) {
			t.Fatalf("predict %d: auto mode served %+v, want the fast-forward replay %+v with tier des", i, pred, ref)
		}
		if got, certs := pool.Replays(), p.Certifications(); got != wantReplays || certs != 1 {
			t.Fatalf("predict %d: %d replays and %d certifications, want %d and 1", i, got, certs, wantReplays)
		}
	}
}

// paperO2 holds the paper-scale obstacle@8 set at O2, whose ranks
// split their rounds into loops at different boundaries, so its replay
// never jumps.
var paperO2 struct {
	once sync.Once
	ts   *dperf.TraceSet
	err  error
}

func paperO2Set(tb testing.TB) *dperf.TraceSet {
	tb.Helper()
	paperO2.once.Do(func() {
		a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithPlatform(dperf.KindCluster),
			dperf.WithRanks(8), dperf.WithLevel(dperf.O2)).Analyze()
		if err != nil {
			paperO2.err = err
			return
		}
		paperO2.ts, paperO2.err = a.Traces()
	})
	if paperO2.err != nil {
		tb.Fatal(paperO2.err)
	}
	return paperO2.ts
}

// BenchmarkAutoPredictCold measures dperfd's paths for a fresh upload
// in auto mode: each iteration decodes a new copy of a set, so every
// certificate misses. One Predictor and one SessionPool serve every
// iteration, so the verification replays run on warm sessions.
//   - predict: the paper-scale O0 set predicted on grid5000 and lan;
//   - sweep: the same set swept over {cluster, lan} × {sync, async} at
//     one worker, dperfbench's new-trace sweep run in-process on two
//     of its three platforms;
//   - never-settles/auto: the paper-scale O2 set, whose replay never
//     jumps, predicted on grid5000, next to never-settles/des, the
//     same predict in DES mode.
func BenchmarkAutoPredictCold(b *testing.B) {
	encode := func(ts *dperf.TraceSet) []byte {
		var buf bytes.Buffer
		if err := ts.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	bench := func(b *testing.B, data []byte, mode dperf.PredictMode, serve func(ts *dperf.TraceSet, opts []dperf.Option)) {
		opts := append(autoOpts(dperf.NewPredictor(), dperf.NewSessionPool()), dperf.WithPredictMode(mode))
		run := func() {
			ts, err := dperf.ReadTraceSetData("set.bin", data)
			if err != nil {
				b.Fatal(err)
			}
			serve(ts, opts)
		}
		run() // build the platforms, their models and the pooled sessions
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
	predict := func(ts *dperf.TraceSet, opts []dperf.Option, kind dperf.Kind, tier string) {
		pred, err := ts.Predict(append(opts, dperf.WithPlatform(kind))...)
		if err != nil {
			b.Fatal(err)
		}
		if pred.Tier != tier {
			b.Fatalf("%s: tier %q, want %q", kind, pred.Tier, tier)
		}
	}

	paper := encode(paperSet(b))
	b.Run("predict", func(b *testing.B) {
		bench(b, paper, dperf.PredictAuto, func(ts *dperf.TraceSet, opts []dperf.Option) {
			for _, kind := range []dperf.Kind{dperf.KindCluster, dperf.KindLAN} {
				predict(ts, opts, kind, dperf.TierAnalytic)
			}
		})
	})
	b.Run("sweep", func(b *testing.B) {
		space := dperf.Space{
			Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
			Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
		}
		bench(b, paper, dperf.PredictAuto, func(ts *dperf.TraceSet, opts []dperf.Option) {
			res, err := dperf.Sweep(ts, space, dperf.SweepOptions(opts...), dperf.SweepWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			for _, cr := range res.Results {
				if cr.Prediction == nil || cr.Prediction.Tier != dperf.TierAnalytic {
					b.Fatalf("%+v: %+v (%s), want an analytic prediction", cr.Config, cr.Prediction, cr.Error)
				}
			}
		})
	})
	o2 := encode(paperO2Set(b))
	for _, mode := range []dperf.PredictMode{dperf.PredictAuto, dperf.PredictDES} {
		b.Run("never-settles/"+mode.String(), func(b *testing.B) {
			bench(b, o2, mode, func(ts *dperf.TraceSet, opts []dperf.Option) {
				predict(ts, opts, dperf.KindCluster, dperf.TierDES)
			})
		})
	}
}

// BenchmarkAnalyticPredict measures a warm analytic-tier prediction
// (certificate serving) on the paper-scale obstacle at 8 ranks.
func BenchmarkAnalyticPredict(b *testing.B) {
	ts := paperSet(b)
	p := dperf.NewPredictor()
	opts := []dperf.Option{
		dperf.WithPlatform(dperf.KindCluster),
		dperf.WithPredictMode(dperf.PredictAnalytic),
		dperf.WithPredictor(p),
	}
	if _, err := ts.Predict(opts...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Predict(opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticCertify measures a cold analytic evaluation (fresh
// predictor per iteration) of the same paper-scale spec.
func BenchmarkAnalyticCertify(b *testing.B) {
	ts := paperSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := []dperf.Option{
			dperf.WithPlatform(dperf.KindCluster),
			dperf.WithPredictMode(dperf.PredictAnalytic),
			dperf.WithPredictor(dperf.NewPredictor()),
		}
		if _, err := ts.Predict(opts...); err != nil {
			b.Fatal(err)
		}
	}
}
