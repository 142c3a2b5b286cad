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
// bit-identical across all sub-benchmarks (asserted by the gate test
// and the differential harness, and cross-checked here).
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

// TestParallelSpeedupGate is the tentpole's wall-clock acceptance
// gate: on a host with at least 4 cores, the heterogeneous
// obstacle@64 replay at 4 workers must run >= 2.5x faster than the
// serial engine while predicting the identical value. Hosts with
// fewer cores cannot exhibit the parallelism and skip.
func TestParallelSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup gate is a timing test; skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("speedup gate needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	const ranks, rounds, sweeps = 64, 4, 240
	spec := parallelBenchSpec(t, ranks)
	traces := parallelBenchTraces(ranks, rounds, sweeps)

	measure := func(workers int) (time.Duration, float64) {
		eng, err := replay.NewParallelEngine(spec.Platform, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Warm once (environment construction), then best-of-3.
		res, err := eng.RunSource(spec, traces)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			r, err := eng.RunSource(spec, traces)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if r.PredictedSeconds != res.PredictedSeconds {
				t.Fatalf("prediction changed between runs: %v != %v", r.PredictedSeconds, res.PredictedSeconds)
			}
		}
		return best, res.PredictedSeconds
	}

	serialTime, serialPred := measure(1)
	parTime, parPred := measure(4)
	if parPred != serialPred {
		t.Fatalf("parallel prediction %v != serial %v", parPred, serialPred)
	}
	speedup := float64(serialTime) / float64(parTime)
	t.Logf("obstacle@64 heterogeneous: serial %v, 4 workers %v, speedup %.2fx", serialTime, parTime, speedup)
	if speedup < 2.5 {
		t.Fatalf("parallel replay speedup %.2fx at 4 workers, want >= 2.5x", speedup)
	}
}
