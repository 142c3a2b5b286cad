package dperf_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/dperf"
	"repro/internal/costmodel"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// smallObstacle is a fast configuration shared by the tests.
func smallObstacle() dperf.ObstacleWorkload {
	return dperf.ObstacleWorkload{N: 128, Rounds: 4, Sweeps: 2, BenchN: 16}
}

// TestGoldenFacadeMatchesLegacy asserts the façade pipeline is
// numerically identical to the pre-façade wiring: explicit flat trace
// generation, folded back for replay, plus a hand-built replay.Spec.
func TestGoldenFacadeMatchesLegacy(t *testing.T) {
	w := smallObstacle()
	const peers = 4
	level := costmodel.O3
	kind := platform.KindCluster

	// Legacy wiring, spelled out by hand.
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := dperf.GenerateTraces(a, dperf.TraceSpec{
		Level:       level,
		FullParams:  map[string]int64{"N": w.N, "ROUNDS": w.Rounds, "SWEEPS": w.Sweeps},
		BenchParams: map[string]int64{"N": w.BenchN, "ROUNDS": w.Rounds, "SWEEPS": w.Sweeps},
		Ranks:       peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.ForKind(kind, peers)
	if err != nil {
		t.Fatal(err)
	}
	hosts := plat.Hosts()[:peers]
	src := make(trace.FoldedSource, len(traces))
	for i, tr := range traces {
		src[i] = trace.Fold(tr)
	}
	legacy, err := replay.RunSource(replay.Spec{
		Platform:     plat,
		Hosts:        hosts,
		Submitter:    plat.Frontend,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: 2 * 8 * float64(w.N) * float64(w.N) / peers,
		GatherBytes:  8 * float64(w.N) * float64(w.N) / peers,
	}, src)
	if err != nil {
		t.Fatal(err)
	}

	// Façade pipeline.
	pred, err := dperf.New(w,
		dperf.WithPlatform(kind), dperf.WithRanks(peers), dperf.WithLevel(level)).Predict()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Predicted != legacy.PredictedSeconds {
		t.Fatalf("façade t_predicted %v != legacy %v", pred.Predicted, legacy.PredictedSeconds)
	}
	if pred.Scatter != legacy.ScatterSeconds || pred.Compute != legacy.ComputeSeconds || pred.Gather != legacy.GatherSeconds {
		t.Fatalf("phase breakdown diverged: façade %+v legacy %+v", pred, legacy)
	}
	if pred.Workload != "obstacle" || pred.Engine != "replay" || pred.Ranks != peers {
		t.Fatalf("prediction metadata: %+v", pred)
	}
}

// TestTraceSetJSONRoundTrip: serialize → load → replay must give the
// same t_predicted, and the records must survive byte-for-byte.
func TestTraceSetJSONRoundTrip(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(3)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := dperf.ReadTraceSetJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != ts.Ranks || got.Workload != ts.Workload ||
		got.ScatterBytes != ts.ScatterBytes || got.GatherBytes != ts.GatherBytes {
		t.Fatalf("metadata round trip: %+v vs %+v", got, ts)
	}
	want, err := ts.Flat()
	if err != nil {
		t.Fatal(err)
	}
	back, err := got.Flat()
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if len(back[r].Records) != len(want[r].Records) {
			t.Fatalf("rank %d: %d records, want %d", r, len(back[r].Records), len(want[r].Records))
		}
		for i, rec := range want[r].Records {
			if back[r].Records[i] != rec {
				t.Fatalf("rank %d record %d changed: %+v vs %+v", r, i, back[r].Records[i], rec)
			}
		}
	}
	direct, err := ts.Predict(dperf.WithPlatform(dperf.KindLAN))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := got.Predict(dperf.WithPlatform(dperf.KindLAN))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Predicted != loaded.Predicted {
		t.Fatalf("JSON round trip changed the prediction: %v vs %v", direct.Predicted, loaded.Predicted)
	}
}

func TestTraceSetFileRoundTrip(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := ts.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := dperf.LoadTraceSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != 2 || len(got.Folded()) != 2 {
		t.Fatalf("loaded %d ranks / %d traces", got.Ranks, len(got.Folded()))
	}
}

func TestReadTraceSetRejectsGarbage(t *testing.T) {
	if _, err := dperf.ReadTraceSetJSON(bytes.NewReader([]byte("{}"))); err == nil {
		t.Fatal("versionless trace set accepted")
	}
	if _, err := dperf.ReadTraceSetJSON(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("non-JSON accepted")
	}
	// A set whose rank count disagrees with its traces must fail.
	bad := []byte(`{"dperf_traceset_version":1,"ranks":3,"traces":[]}`)
	if _, err := dperf.ReadTraceSetJSON(bytes.NewReader(bad)); err == nil {
		t.Fatal("inconsistent rank count accepted")
	}
	// Null trace entries must error, not panic in validation.
	nulls := []byte(`{"dperf_traceset_version":1,"ranks":2,"traces":[null,null]}`)
	if _, err := dperf.ReadTraceSetJSON(bytes.NewReader(nulls)); err == nil {
		t.Fatal("null trace entries accepted")
	}
}

// TestProgramWorkload drives an arbitrary mini-C source through the
// workload-agnostic pipeline.
func TestProgramWorkload(t *testing.T) {
	const src = `
param int N;
double a[N + 1];
int main() {
    int i; int s;
    for (s = 0; s < 3; s++) {
        for (i = 0; i < N; i++) {
            a[i] = a[i] + 1.0;
        }
    }
    return 0;
}
`
	w := dperf.ProgramWorkload{
		Label: "vector-add",
		Text:  src,
		Scale: []string{"N"},
		Full:  map[string]int64{"N": 4096},
		Bench: map[string]int64{"N": 64},
		ScatterPerPeer: func(ranks int) float64 {
			return 8 * 4096 / float64(ranks)
		},
	}
	pipe := dperf.New(w, dperf.WithRanks(2), dperf.WithLevel(dperf.O2))
	a, err := pipe.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Bench()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNS <= 0 {
		t.Fatal("empty benchmark")
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ts.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Workload != "vector-add" || len(flat) != 2 {
		t.Fatalf("trace set: %+v", ts)
	}
	if ts.GatherBytes != 0 {
		t.Fatalf("gather bytes = %v, want 0 (no shaper)", ts.GatherBytes)
	}
	pred, err := ts.Predict(dperf.WithPlatform(dperf.KindLAN))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Predicted <= 0 {
		t.Fatal("non-positive prediction")
	}
	if flat[0].TotalComputeNS() <= 0 {
		t.Fatal("no compute recorded")
	}
}

// TestTraceSetReplayableAcrossPlatforms is the paper's claim in
// miniature: one trace set, three platforms, the slower network must
// never be predicted faster than the quicker one.
func TestTraceSetReplayableAcrossPlatforms(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(4)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for _, kind := range []dperf.Kind{dperf.KindCluster, dperf.KindLAN, dperf.KindDaisy} {
		pred, err := ts.Predict(dperf.WithPlatform(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if pred.Predicted <= last {
			t.Fatalf("%s predicted %v, not slower than previous %v", kind, pred.Predicted, last)
		}
		last = pred.Predicted
	}
}

func TestBenchMatchesStandaloneBenchmark(t *testing.T) {
	w := smallObstacle()
	a, err := dperf.New(w, dperf.WithLevel(dperf.O1)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	viaStage, err := a.Bench()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := dperf.Benchmark(a, dperf.O1, w.SerialParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(viaStage.TotalNS-direct.TotalNS) > 1e-9 {
		t.Fatalf("stage %v != standalone %v", viaStage.TotalNS, direct.TotalNS)
	}
}

func TestAnalysisWithoutWorkloadErrors(t *testing.T) {
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bench(); err == nil {
		t.Fatal("Bench without workload accepted")
	}
	if _, err := a.Traces(); err == nil {
		t.Fatal("Traces without workload accepted")
	}
	// Binding a workload repairs both.
	if _, err := a.WithWorkload(smallObstacle()).Traces(dperf.WithRanks(2)); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitZeroRanksRejected(t *testing.T) {
	a, err := dperf.New(smallObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Traces(dperf.WithRanks(0)); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := a.Traces(dperf.WithRanks(-2)); err == nil {
		t.Fatal("negative ranks accepted")
	}
	// Unset ranks still defaults to 4.
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Ranks != 4 {
		t.Fatalf("default ranks = %d, want 4", ts.Ranks)
	}
}

func TestSerialParamsCheaperThanTraceParams(t *testing.T) {
	w := dperf.DefaultObstacleWorkload()
	if got := w.SerialParams()["ROUNDS"]; got != 2 {
		t.Fatalf("serial ROUNDS = %d, want 2", got)
	}
	if got := w.BenchParams(1)["ROUNDS"]; got != w.Rounds {
		t.Fatalf("trace-gen ROUNDS = %d, want %d", got, w.Rounds)
	}
	// ProgramWorkload falls back to Bench when Serial is nil.
	pw := dperf.ProgramWorkload{Bench: map[string]int64{"N": 8}}
	if got := pw.SerialParams()["N"]; got != 8 {
		t.Fatalf("fallback serial N = %d, want 8", got)
	}
}

func TestKindStringsRoundTripThroughJSON(t *testing.T) {
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindSend, trace.KindRecv, trace.KindConv, trace.KindBarrier} {
		got, err := trace.ParseKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("%v round-tripped to %v", k, got)
		}
	}
}
