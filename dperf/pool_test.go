package dperf_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
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

// TestReadSetPredictAllocs: a set a reader builds gets its engine and
// Predictor once, when it is read, as a Pipeline's sets do. A warm
// Predict on it then replays on a pooled session against the platform
// realized by the first call, and allocates within 2x of the same set
// predicted from its Pipeline, instead of realizing the platform again
// on every call.
func TestReadSetPredictAllocs(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(4)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var js, bin bytes.Buffer
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "set.bin")
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := encodeContainer(t, ts, 1)
	rankDir := filepath.Join(dir, "ranks")
	if err := trace.WriteAllFolded(rankDir, ts.Folded()); err != nil {
		t.Fatal(err)
	}

	lan := dperf.WithPlatform(dperf.KindLAN)
	warmAllocs := func(set *dperf.TraceSet) float64 {
		t.Helper()
		if _, err := set.Predict(lan); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := set.Predict(lan); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := warmAllocs(ts)
	readers := []struct {
		name string
		read func() (*dperf.TraceSet, error)
	}{
		{"json", func() (*dperf.TraceSet, error) { return dperf.ReadTraceSetJSON(bytes.NewReader(js.Bytes())) }},
		{"binary", func() (*dperf.TraceSet, error) { return dperf.ReadTraceSetBinary(bytes.NewReader(bin.Bytes())) }},
		{"data", func() (*dperf.TraceSet, error) { return dperf.ReadTraceSetData("set", bin.Bytes()) }},
		{"file", func() (*dperf.TraceSet, error) { return dperf.LoadTraceSet(binPath) }},
		{"v1", func() (*dperf.TraceSet, error) { return dperf.ReadTraceSetData("set-v1", v1) }},
		{"directory", func() (*dperf.TraceSet, error) { return dperf.LoadTraceSet(rankDir) }},
	}
	for _, r := range readers {
		set, err := r.read()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := warmAllocs(set)
		t.Logf("%s: %v allocations per warm Predict (Pipeline set: %v)", r.name, got, want)
		// The race detector's instrumentation allocates on its own.
		if !raceEnabled && got > 2*want {
			t.Errorf("%s: warm Predict on the read set allocates %v times, want <= 2x the Pipeline set's %v", r.name, got, want)
		}
	}
}
