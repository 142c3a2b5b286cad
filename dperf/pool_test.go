package dperf_test

import (
	"testing"

	"repro/dperf"
)

// TestPipelineReusesPooledSessions: a Pipeline's trace set resolves its
// platform through the pipeline's one Predictor, so repeated
// predictions on one platform replay on one pooled session, in DES and
// in auto mode, instead of realizing a session per call that the pool
// then keeps idle for good. A sweep checks a session out per
// configuration and back in, so at one worker the pool ends with one
// session per platform.
func TestPipelineReusesPooledSessions(t *testing.T) {
	for _, mode := range []dperf.PredictMode{dperf.PredictDES, dperf.PredictAuto} {
		pool := dperf.NewSessionPool()
		a, err := dperf.New(smallObstacle(), dperf.WithRanks(2), dperf.WithEngine(pool)).Analyze()
		if err != nil {
			t.Fatal(err)
		}
		ts, err := a.Traces()
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 3; call++ {
			if _, err := ts.Predict(dperf.WithPredictMode(mode), dperf.WithFastForward(true)); err != nil {
				t.Fatal(err)
			}
			if got := pool.Idle(); got != 1 {
				t.Fatalf("%v: after predict %d the pool holds %d idle sessions, want 1", mode, call, got)
			}
		}
	}

	ts, err := sweepAnalysis(t).Traces()
	if err != nil {
		t.Fatal(err)
	}
	pool := dperf.NewSessionPool()
	res, err := dperf.Sweep(ts, dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}, dperf.SweepOptions(dperf.WithEngine(pool)), dperf.SweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", firstErrors(res))
	}
	if got := pool.Idle(); got != 2 {
		t.Fatalf("after the sweep the pool holds %d idle sessions, want 2 (one per platform)", got)
	}
}
