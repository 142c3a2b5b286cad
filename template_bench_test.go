package repro

import "testing"

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
