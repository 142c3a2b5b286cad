package dperf_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

// Tests of the pipeline's stages on the obstacle kernel: analysis,
// block benchmarking, trace generation and replay, each called on its
// own as well as chained by New(...).Predict().

func analyzedObstacle(t testing.TB) *dperf.Analysis {
	t.Helper()
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// obstacleTraces generates the flat per-rank traces of the obstacle
// workload w at the given rank count and level.
func obstacleTraces(t testing.TB, a *dperf.Analysis, w dperf.ObstacleWorkload, ranks int, level dperf.Level) []*trace.Trace {
	t.Helper()
	ts, err := a.WithWorkload(w).Traces(dperf.WithRanks(ranks), dperf.WithLevel(level))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := ts.Flat()
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// replayObstacle replays flat traces on a platform kind with w's
// deployment bytes: the replay stage of the pipeline on its own.
func replayObstacle(t testing.TB, traces []*trace.Trace, kind dperf.Kind, level dperf.Level, w dperf.ObstacleWorkload) *dperf.Prediction {
	t.Helper()
	ranks := len(traces)
	ts := &dperf.TraceSet{
		Workload:     w.Name(),
		Ranks:        ranks,
		Level:        level,
		ScatterBytes: w.ScatterBytes(ranks),
		GatherBytes:  w.GatherBytes(ranks),
		Traces:       traces,
	}
	pred, err := ts.Predict(dperf.WithPlatform(kind))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func predictObstacle(t testing.TB, w dperf.ObstacleWorkload, kind dperf.Kind, ranks int, level dperf.Level) *dperf.Prediction {
	t.Helper()
	pred, err := dperf.New(w, dperf.WithPlatform(kind), dperf.WithRanks(ranks), dperf.WithLevel(level)).Predict()
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestAnalyzeObstacleSource(t *testing.T) {
	a := analyzedObstacle(t)
	sum := a.An.CommSummary()
	// The kernel has 2 sends, 2 recvs, 1 allreduce, 1 rank, 1 size.
	if sum[0] != 0 { // CommNone never recorded
		t.Fatal("CommNone recorded")
	}
	if got := len(a.An.Comm); got != 7 {
		t.Fatalf("comm sites = %d, want 7", got)
	}
	if !strings.Contains(a.Instrumented, "dperf_block_begin(") {
		t.Fatal("instrumented source lacks probes")
	}
	if !strings.Contains(a.Instrumented, "/* dperf: scales with parameter */") {
		t.Fatal("no loop marked as scaling")
	}
}

func TestAnalyzeBadSource(t *testing.T) {
	if _, err := dperf.AnalyzeSource("int main() { x = 1; }", nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := dperf.AnalyzeSource("int main() { return 0; }", []string{"N"}); err == nil {
		t.Fatal("unknown scale param accepted")
	}
}

func TestBenchmarkReport(t *testing.T) {
	a := analyzedObstacle(t)
	rep, err := dperf.Benchmark(a, dperf.O0, map[string]int64{"N": 24, "ROUNDS": 3, "SWEEPS": 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalNS <= 0 {
		t.Fatal("empty benchmark")
	}
	if len(rep.Blocks) == 0 {
		t.Fatal("no blocks measured")
	}
	// The dominant block must be the depth-2 cell kernel.
	var best dperf.BlockCost
	for _, b := range rep.Blocks {
		if b.SharePct > best.SharePct {
			best = b
		}
	}
	if best.Depth != 2 {
		t.Fatalf("hottest block depth = %d, want 2 (cell kernel)", best.Depth)
	}
	if best.SharePct < 40 {
		t.Fatalf("hottest block share = %.1f%%, implausibly low", best.SharePct)
	}
	// Instrumentation overhead should be small (paper: "reduced
	// slowdown").
	if rep.InstrumentationOverheadPct > 15 {
		t.Fatalf("instrumentation overhead %.1f%% too large", rep.InstrumentationOverheadPct)
	}
}

func TestBenchmarkLevelScaling(t *testing.T) {
	a := analyzedObstacle(t)
	params := map[string]int64{"N": 16, "ROUNDS": 2, "SWEEPS": 2}
	r0, err := dperf.Benchmark(a, dperf.O0, params)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := dperf.Benchmark(a, dperf.O3, params)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r3.TotalNS / r0.TotalNS
	if math.Abs(ratio-dperf.O3.Factor()) > 1e-9 {
		t.Fatalf("O3/O0 = %v, want %v", ratio, dperf.O3.Factor())
	}
}

func TestGenerateTracesStructure(t *testing.T) {
	a := analyzedObstacle(t)
	p := 4
	traces, err := dperf.GenerateTraces(a, dperf.TraceSpec{
		Level:       dperf.O0,
		FullParams:  map[string]int64{"N": 96, "ROUNDS": 5, "SWEEPS": 2},
		BenchParams: map[string]int64{"N": 16, "ROUNDS": 5, "SWEEPS": 2},
		Ranks:       p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != p {
		t.Fatalf("traces = %d", len(traces))
	}
	folded := make([]*trace.Folded, p)
	for i, tr := range traces {
		folded[i] = trace.Fold(tr)
	}
	if err := trace.ValidateFolded(folded); err != nil {
		t.Fatal(err)
	}
	// Middle ranks exchange with both neighbours every round: 2 sends,
	// 2 recvs, 1 conv per round.
	mid := traces[1]
	if got := mid.CountKind(trace.KindSend); got != 2*5 {
		t.Fatalf("middle rank sends = %d, want 10", got)
	}
	if got := mid.CountKind(trace.KindConv); got != 5 {
		t.Fatalf("convs = %d, want 5", got)
	}
	// End ranks have one neighbour.
	if got := traces[0].CountKind(trace.KindSend); got != 5 {
		t.Fatalf("end rank sends = %d, want 5", got)
	}
	// Message size is the full N (scaled from bench size): 96 doubles.
	for _, r := range mid.Records {
		if r.Kind == trace.KindSend && math.Abs(r.Bytes-8*96) > 1e-9 {
			t.Fatalf("send bytes = %v, want %v (size scaling)", r.Bytes, 8*96)
		}
	}
}

func TestTraceComputeScalesQuadratically(t *testing.T) {
	a := analyzedObstacle(t)
	gen := func(fullN int64) float64 {
		traces, err := dperf.GenerateTraces(a, dperf.TraceSpec{
			Level:       dperf.O0,
			FullParams:  map[string]int64{"N": fullN, "ROUNDS": 2, "SWEEPS": 1},
			BenchParams: map[string]int64{"N": 16, "ROUNDS": 2, "SWEEPS": 1},
			Ranks:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return traces[0].TotalComputeNS()
	}
	t64, t128 := gen(64), gen(128)
	ratio := t128 / t64
	// Cell work is O(N^2): doubling N must ~quadruple compute.
	if ratio < 3.6 || ratio > 4.4 {
		t.Fatalf("compute ratio for 2x N = %v, want ~4", ratio)
	}
}

func TestGenerateTracesErrors(t *testing.T) {
	a := analyzedObstacle(t)
	if _, err := dperf.GenerateTraces(a, dperf.TraceSpec{Ranks: 0}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := dperf.GenerateTraces(a, dperf.TraceSpec{
		Ranks:       2,
		FullParams:  map[string]int64{"ROUNDS": 1, "SWEEPS": 1},
		BenchParams: map[string]int64{"N": 8, "ROUNDS": 1, "SWEEPS": 1},
	}); err == nil {
		t.Fatal("missing scale param accepted")
	}
}

func TestPredictObstacleSmall(t *testing.T) {
	w := dperf.ObstacleWorkload{N: 128, Rounds: 4, Sweeps: 2, BenchN: 16}
	pred := predictObstacle(t, w, dperf.KindCluster, 4, dperf.O3)
	if pred.Predicted <= 0 {
		t.Fatal("non-positive prediction")
	}
	if pred.Scatter <= 0 || pred.Gather < 0 {
		t.Fatalf("phases: scatter=%v gather=%v", pred.Scatter, pred.Gather)
	}
	if pred.Ranks != 4 || pred.Platform != string(dperf.KindCluster) {
		t.Fatalf("metadata: %+v", pred)
	}
	traces, err := pred.TraceSet.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatal("traces not attached")
	}
}

func TestPredictionFasterOnFasterNetwork(t *testing.T) {
	w := dperf.ObstacleWorkload{N: 256, Rounds: 6, Sweeps: 2, BenchN: 16}
	traces := obstacleTraces(t, analyzedObstacle(t), w, 4, dperf.O0)
	cl := replayObstacle(t, traces, dperf.KindCluster, dperf.O0, w)
	dsl := replayObstacle(t, traces, dperf.KindDaisy, dperf.O0, w)
	if cl.Predicted >= dsl.Predicted {
		t.Fatalf("cluster (%v) not faster than xDSL (%v)", cl.Predicted, dsl.Predicted)
	}
}

func TestBenchNClampedToPeers(t *testing.T) {
	// BenchN smaller than the peer count must be raised so every rank
	// has at least one row.
	w := dperf.ObstacleWorkload{N: 64, Rounds: 2, Sweeps: 1, BenchN: 2}
	predictObstacle(t, w, dperf.KindCluster, 8, dperf.O0)
}

func TestPredictionDeterministic(t *testing.T) {
	w := dperf.ObstacleWorkload{N: 128, Rounds: 3, Sweeps: 1, BenchN: 16}
	a := predictObstacle(t, w, dperf.KindCluster, 2, dperf.O0)
	b := predictObstacle(t, w, dperf.KindCluster, 2, dperf.O0)
	if a.Predicted != b.Predicted {
		t.Fatalf("nondeterministic prediction: %v vs %v", a.Predicted, b.Predicted)
	}
}

// TestTraceDiskRoundTripPrediction proves the full dPerf artifact
// chain: traces written to disk, parsed back, and replayed give the
// same t_predicted as in-memory traces — the workflow of the original
// tool, where trace files are handed from the instrumented run to the
// SimGrid stage.
func TestTraceDiskRoundTripPrediction(t *testing.T) {
	w := dperf.ObstacleWorkload{N: 128, Rounds: 4, Sweeps: 2, BenchN: 16}
	traces := obstacleTraces(t, analyzedObstacle(t), w, 3, dperf.O0)
	direct := replayObstacle(t, traces, dperf.KindLAN, dperf.O0, w)

	dir := t.TempDir()
	var reloaded []*trace.Trace
	for _, tr := range traces {
		path := filepath.Join(dir, "rank.trace")
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		reloaded = append(reloaded, got)
	}
	viaDisk := replayObstacle(t, reloaded, dperf.KindLAN, dperf.O0, w)
	if direct.Predicted != viaDisk.Predicted {
		t.Fatalf("disk round trip changed the prediction: %v vs %v",
			direct.Predicted, viaDisk.Predicted)
	}
}

// TestInstrumentedSourceReparsesWithoutProbes: the probes are calls to
// undefined functions, so the instrumented text documents the
// transformation rather than re-entering the pipeline; analyzing the
// uninstrumented source twice must yield the same block structure.
func TestInstrumentedSourceReparsesWithoutProbes(t *testing.T) {
	a := analyzedObstacle(t)
	plain := analyzedObstacle(t)
	if len(plain.An.Blocks) != len(a.An.Blocks) {
		t.Fatal("analysis not deterministic")
	}
}
