package repro

import (
	"testing"

	"repro/dperf"
)

// templateBenchSource builds a scale-shared source for the
// weak-scaling strip workload: one interpretation at 8 ranks serving
// every rank count of the sweep space.
func templateBenchSource(b *testing.B) *dperf.ScaledSource {
	b.Helper()
	w := dperf.StripObstacleWorkload{W: 48, H: 6, Rounds: 60, Sweeps: 3}
	a, err := dperf.New(w).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	src, err := a.ScaleShared(8)
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkTemplateInstantiate measures materializing a whole folded
// set from its rank-parameterized template — the per-rank cost a
// template set pays once, when it loads. The headline metrics of
// BENCH_template.json are ns/rank and B/rank here.
func BenchmarkTemplateInstantiate(b *testing.B) {
	ts := traceBenchSet(b, 8)
	tpl, err := ts.Template()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := tpl.Instantiate()
		if err != nil {
			b.Fatal(err)
		}
		if len(fs) != 8 {
			b.Fatal("short instantiation")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8), "ns/rank")
}

// BenchmarkSweepScaleShared compares a {2,4,8}-rank three-platform
// sweep served by one scale-shared template source against the same
// sweep re-interpreting the workload per rank count. The delta is the
// generation work the template layer removes from the sweep's serial
// resolution phase; predictions are bit-identical (asserted in
// dperf.TestTemplateScaleSharedSweep).
func BenchmarkSweepScaleShared(b *testing.B) {
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindDaisy, dperf.KindLAN},
		Ranks:     []int{2, 4, 8},
	}
	w := dperf.StripObstacleWorkload{W: 48, H: 6, Rounds: 60, Sweeps: 3}

	b.Run("shared", func(b *testing.B) {
		src := templateBenchSource(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := dperf.Sweep(src, space, dperf.SweepOptions(dperf.WithFastForward(true)))
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed() != 0 {
				b.Fatalf("%d sweep entries failed", res.Failed())
			}
		}
	})
	b.Run("per-rank-count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh analysis per iteration: the per-rank-count
			// source re-interprets the workload for each rank count,
			// which is exactly the cost being measured.
			a, err := dperf.New(w).Analyze()
			if err != nil {
				b.Fatal(err)
			}
			res, err := dperf.Sweep(a, space, dperf.SweepOptions(dperf.WithFastForward(true)))
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed() != 0 {
				b.Fatalf("%d sweep entries failed", res.Failed())
			}
		}
	})
}
