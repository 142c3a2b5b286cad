package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// parallelBenchTraces builds the heterogeneous obstacle@64 fixture:
// 64 ranks of strip-decomposed obstacle rounds — a block of distinct
// per-sweep compute bursts (a deterministic splitmix walk, so neither
// loop folding nor steady-state fast-forward can compress anything),
// a halo exchange with the strip neighbours, and a periodic global
// convergence test. Sweep compute dominates each round, exactly like
// the paper's workload; those events are the per-partition work the
// parallel engine divides, while the (replicated) halo flows stay a
// small fraction.
func parallelBenchTraces(ranks, rounds, sweeps int) trace.FoldedSource {
	seed := uint64(0xdeadbeef)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	traces := make([]*trace.Trace, ranks)
	for r := range traces {
		traces[r] = &trace.Trace{Rank: r, Of: ranks}
	}
	for round := 0; round < rounds; round++ {
		for r := 0; r < ranks; r++ {
			add := func(rec trace.Record) {
				traces[r].Records = append(traces[r].Records, rec)
			}
			for s := 0; s < sweeps; s++ {
				add(trace.Record{Kind: trace.KindCompute, NS: 1e4 * float64(1+next()%30)})
			}
			bytes := float64(4096 * (1 + next()%16))
			if r > 0 {
				add(trace.Record{Kind: trace.KindSend, Peer: r - 1, Bytes: bytes})
			}
			if r < ranks-1 {
				add(trace.Record{Kind: trace.KindSend, Peer: r + 1, Bytes: bytes})
			}
			if r > 0 {
				add(trace.Record{Kind: trace.KindRecv, Peer: r - 1, Bytes: bytes})
			}
			if r < ranks-1 {
				add(trace.Record{Kind: trace.KindRecv, Peer: r + 1, Bytes: bytes})
			}
			if round%2 == 1 {
				add(trace.Record{Kind: trace.KindConv})
			}
		}
	}
	return foldTraces(traces)
}

func parallelBenchSpec(tb testing.TB, ranks int) replay.Spec {
	tb.Helper()
	plat, err := platform.ForKind(platform.KindCluster, ranks)
	if err != nil {
		tb.Fatal(err)
	}
	return replay.Spec{
		Platform:     plat,
		Hosts:        plat.Hosts()[:ranks],
		Submitter:    plat.Frontend,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: 64 * 1024,
		GatherBytes:  16 * 1024,
	}
}

// BenchmarkParallelReplay is the headline benchmark of
// BENCH_parallel.json: the heterogeneous obstacle@64 replay through
// one reused engine per worker count. The serial/w4 ratio is the
// wall-clock speedup of rank partitioning; predictions are
// bit-identical across all sub-benchmarks (asserted by
// TestParallelReplayCounters and the internal/replay differential
// tests, and cross-checked here).
func BenchmarkParallelReplay(b *testing.B) {
	const ranks, rounds, sweeps = 64, 4, 240
	spec := parallelBenchSpec(b, ranks)
	traces := parallelBenchTraces(ranks, rounds, sweeps)
	want := 0.0
	run := func(b *testing.B, workers int) {
		eng, err := replay.NewParallelEngine(spec.Platform, workers)
		if err != nil {
			b.Fatal(err)
		}
		var last *replay.Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.RunSource(spec, traces)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.StopTimer()
		if want == 0 {
			want = last.PredictedSeconds
		} else if last.PredictedSeconds != want {
			b.Fatalf("prediction diverged across worker counts: %v != %v", last.PredictedSeconds, want)
		}
		b.ReportMetric(last.PredictedSeconds, "vsec-predicted")
		if last.Par.Windows > 0 {
			b.ReportMetric(float64(last.Par.Windows), "windows")
			b.ReportMetric(float64(last.Par.BoundaryRecords), "boundary-records")
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("w2", func(b *testing.B) { run(b, 2) })
	b.Run("w4", func(b *testing.B) { run(b, 4) })
	b.Run("w8", func(b *testing.B) { run(b, 8) })
}

// TestParallelReplayCounters pins the parallel engine's work on the
// heterogeneous obstacle@64 fixture in exact, host-independent terms:
// the prediction is bit-equal at 1, 2, 4 and 8 workers, and at 2, 4
// and 8 workers the replay runs 917 conservative windows and exchanges
// 884 boundary flow records. The wall-clock ratio of serial to four
// workers is logged, not gated: it depends on the host's cores and
// load.
func TestParallelReplayCounters(t *testing.T) {
	const ranks, rounds, sweeps = 64, 4, 240
	const wantWindows, wantBoundary = 917, 884
	spec := parallelBenchSpec(t, ranks)
	traces := parallelBenchTraces(ranks, rounds, sweeps)

	run := func(workers int) (*replay.Result, time.Duration) {
		eng, err := replay.NewParallelEngine(spec.Platform, workers)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := eng.RunSource(spec, traces)
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(start)
	}
	serial, serialTime := run(1)
	var w4Time time.Duration
	for _, workers := range []int{2, 4, 8} {
		res, d := run(workers)
		if res.PredictedSeconds != serial.PredictedSeconds {
			t.Fatalf("%d workers predicted %v, serial %v", workers, res.PredictedSeconds, serial.PredictedSeconds)
		}
		if res.Par.Windows != wantWindows || res.Par.BoundaryRecords != wantBoundary {
			t.Fatalf("%d workers: %d windows, %d boundary records; want %d, %d",
				workers, res.Par.Windows, res.Par.BoundaryRecords, wantWindows, wantBoundary)
		}
		if workers == 4 {
			w4Time = d
		}
	}
	t.Logf("obstacle@64 heterogeneous: serial %v, 4 workers %v (%.2fx; %d CPUs)",
		serialTime, w4Time, float64(serialTime)/float64(w4Time), runtime.NumCPU())
}
