package dperf_test

import (
	"bytes"
	"io"
	"math"
	"sync"
	"testing"

	"repro/dperf"
	"repro/internal/analytic"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
)

// paper holds the paper-scale obstacle trace set (N=1200, 120 rounds
// × 15 sweeps, 8 ranks, O0). Generating it interprets the workload for
// seconds, so the tests share one copy.
var paper struct {
	once sync.Once
	ts   *dperf.TraceSet
	err  error
}

// paperSet returns the shared paper-scale set; callers must not change
// it.
func paperSet(tb testing.TB) *dperf.TraceSet {
	tb.Helper()
	paper.once.Do(func() {
		a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithPlatform(dperf.KindCluster), dperf.WithRanks(8)).Analyze()
		if err != nil {
			paper.err = err
			return
		}
		paper.ts, paper.err = a.Traces()
	})
	if paper.err != nil {
		tb.Fatal(paper.err)
	}
	return paper.ts
}

// paperSpec returns the 8-rank cluster platform and the sync-scheme
// replay spec the paper-scale tests replay ts under.
func paperSpec(t *testing.T, ts *dperf.TraceSet) (*platform.Platform, replay.Spec) {
	t.Helper()
	plat, err := platform.ForKind(platform.Kind(dperf.KindCluster), 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := replay.Spec{
		Hosts:        plat.Hosts()[:8],
		Submitter:    plat.Frontend,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: ts.ScatterBytes,
		GatherBytes:  ts.GatherBytes,
	}
	return plat, spec
}

// TestFastForwardPaperScale is the acceptance gate of the steady-state
// fast-forward engine: on the paper-scale obstacle replay (8 ranks,
// sync scheme) the fast-forwarded prediction must be bit-identical to
// the per-iteration path and do exactly the pinned work. The managed
// loop has 119 rounds; fast-forward simulates 8 of them, jumps once
// and skips the other 111, and the analytic tier, which drives the
// same controller, must do exactly the same. The DES kernel executes
// 20,603 events in verify mode and 1,622 with fast-forward on, of
// which 6,241 and 469 are direct resumes.
func TestFastForwardPaperScale(t *testing.T) {
	ts := paperSet(t)
	src := ts.Source()
	plat, spec := paperSpec(t, ts)
	session, err := replay.NewSession(plat)
	if err != nil {
		t.Fatal(err)
	}

	run := func(mode replay.FFMode) *replay.Result {
		t.Helper()
		s := spec
		s.FastForward = mode
		res, err := session.RunSource(s, src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	verify := run(replay.FFVerify)
	on := run(replay.FFOn)
	if verify.PredictedSeconds != on.PredictedSeconds ||
		verify.ScatterSeconds != on.ScatterSeconds ||
		verify.ComputeSeconds != on.ComputeSeconds ||
		verify.GatherSeconds != on.GatherSeconds {
		t.Fatalf("fast-forward is not bit-identical to the per-iteration path:\nverify %+v\non     %+v",
			verify, on)
	}
	if want := (replay.FFStats{RoundsSimulated: 8, RoundsFastForwarded: 111, Jumps: 1}); on.FF != want {
		t.Fatalf("fast-forward work %+v, want %+v", on.FF, want)
	}
	if want := (replay.FFStats{RoundsSimulated: 119}); verify.FF != want {
		t.Fatalf("verify-mode work %+v, want %+v", verify.FF, want)
	}
	// Kernel work: events executed, popped or directly resumed, and
	// the direct resumes among them. Direct resume replaces one pop
	// per wakeup, so the event counts are those of the parked-only
	// kernel.
	for _, c := range []struct {
		mode           string
		res            *replay.Result
		events, direct int64
	}{
		{"verify", verify, 20603, 6241},
		{"on", on, 1622, 469},
	} {
		if c.res.KernelEvents != c.events || c.res.DirectResumes != c.direct {
			t.Fatalf("%s-mode kernel work %d events / %d direct resumes, want %d / %d",
				c.mode, c.res.KernelEvents, c.res.DirectResumes, c.events, c.direct)
		}
	}

	cert, err := analytic.Certify(analytic.Spec{
		Platform:     plat,
		Hosts:        spec.Hosts,
		Submitter:    spec.Submitter,
		Scheme:       spec.Scheme,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
		Source:       src,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cert.Res; got.RoundsSimulated != 8 || got.RoundsFastForwarded != 111 || got.Jumps != 1 {
		t.Fatalf("analytic work %d/%d/%d simulated/fast-forwarded/jumps, want 8/111/1",
			got.RoundsSimulated, got.RoundsFastForwarded, got.Jumps)
	}

	// Sanity against the legacy path: same prediction up to float64
	// rounding (the epoch-rebased clock rounds differently by ulps).
	off := run(replay.FFOff)
	if rel := math.Abs(on.PredictedSeconds-off.PredictedSeconds) / off.PredictedSeconds; rel > 1e-9 {
		t.Fatalf("fast-forward drifted from legacy replay: rel %g", rel)
	}
}

// TestFastForwardPaperScaleFormats pins that every format replays the
// paper-scale set with the same kernel work: the generated set, its
// JSON round trip and its v2 template round trip each execute 20,603
// events (6,241 direct resumes) with fast-forward off, to the same
// prediction bits, and the v2 set fast-forwards exactly like the
// generated one (1,622 events, 469 direct resumes, 8/111/1 rounds
// simulated/fast-forwarded/jumps).
func TestFastForwardPaperScaleFormats(t *testing.T) {
	ts := paperSet(t)
	plat, spec := paperSpec(t, ts)
	session, err := replay.NewSession(plat)
	if err != nil {
		t.Fatal(err)
	}
	load := func(name string, write func(io.Writer) error) (*dperf.TraceSet, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		ld, err := dperf.ReadTraceSetData(name, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return ld, buf.Bytes()
	}
	fromJSON, _ := load("paper.json", ts.WriteJSON)
	fromV2, data := load("paper-v2.bin", ts.WriteBinary)
	if data[4] != 2 {
		t.Fatalf("WriteBinary wrote container version %d, want 2", data[4])
	}

	run := func(set *dperf.TraceSet, mode replay.FFMode) *replay.Result {
		t.Helper()
		s := spec
		s.FastForward = mode
		res, err := session.RunSource(s, set.Source())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, c := range []struct {
		name string
		set  *dperf.TraceSet
	}{{"generated", ts}, {"json", fromJSON}, {"v2", fromV2}} {
		off := run(c.set, replay.FFOff)
		if off.KernelEvents != 20603 || off.DirectResumes != 6241 {
			t.Errorf("%s: fast-forward-off kernel work %d events / %d direct resumes, want 20603 / 6241",
				c.name, off.KernelEvents, off.DirectResumes)
		}
		if bits := math.Float64bits(off.PredictedSeconds); bits != 0x4023f873f93db563 {
			t.Errorf("%s: fast-forward-off prediction %v (bits %#x), want bits 0x4023f873f93db563",
				c.name, off.PredictedSeconds, bits)
		}
	}
	on := run(fromV2, replay.FFOn)
	if on.KernelEvents != 1622 || on.DirectResumes != 469 {
		t.Errorf("v2: fast-forward kernel work %d events / %d direct resumes, want 1622 / 469",
			on.KernelEvents, on.DirectResumes)
	}
	if want := (replay.FFStats{RoundsSimulated: 8, RoundsFastForwarded: 111, Jumps: 1}); on.FF != want {
		t.Errorf("v2: fast-forward work %+v, want %+v", on.FF, want)
	}
}

// TestPredictWithFastForward: the public pipeline option engages the
// engine, reports the round split on the Prediction, and agrees with
// the default path to float64 rounding.
func TestPredictWithFastForward(t *testing.T) {
	// Paper-scale grid (compute-dominated rounds — fast-forward only
	// engages when the leading compute outlasts the conv stagger)
	// with a reduced round count to keep the test quick.
	w := dperf.ObstacleWorkload{N: 1200, Rounds: 40, Sweeps: 15, BenchN: 32}
	pipe := dperf.New(w, dperf.WithPlatform(dperf.KindCluster), dperf.WithRanks(4))
	a, err := pipe.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ts.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if plain.RoundsFastForwarded != 0 || plain.RoundsSimulated != 0 {
		t.Fatalf("default predict reported fast-forward work: %+v", plain)
	}
	ff, err := ts.Predict(dperf.WithFastForward(true))
	if err != nil {
		t.Fatal(err)
	}
	if ff.RoundsFastForwarded == 0 {
		t.Fatalf("fast-forward never engaged: %+v", ff)
	}
	if rel := math.Abs(ff.Predicted-plain.Predicted) / plain.Predicted; rel > 1e-9 {
		t.Fatalf("fast-forwarded prediction drifted: %v vs %v (rel %g)",
			ff.Predicted, plain.Predicted, rel)
	}

	// Sweeps plumb the option through SweepOptions.
	res, err := dperf.Sweep(ts, dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster},
		Ranks:     []int{4},
	}, dperf.SweepOptions(dperf.WithFastForward(true)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].Error != "" {
		t.Fatalf("sweep failed: %+v", res.Results)
	}
	sp := res.Results[0].Prediction
	if sp.RoundsFastForwarded == 0 {
		t.Fatalf("sweep prediction did not fast-forward: %+v", sp)
	}
	if sp.Predicted != ff.Predicted {
		t.Fatalf("sweep prediction %v != predict %v", sp.Predicted, ff.Predicted)
	}
}
