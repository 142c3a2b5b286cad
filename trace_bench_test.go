package repro

import (
	"bytes"
	"testing"

	"repro/dperf"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// traceBenchSet generates the obstacle trace set once (folded) at a
// realistic round count.
func traceBenchSet(b *testing.B, ranks int) *dperf.TraceSet {
	b.Helper()
	w := dperf.ObstacleWorkload{N: 600, Rounds: 120, Sweeps: 4, BenchN: 24}
	a, err := dperf.New(w, dperf.WithRanks(ranks)).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

func traceBenchSpec(b *testing.B, ranks int) replay.Spec {
	b.Helper()
	plat, err := platform.ForKind(platform.KindCluster, ranks)
	if err != nil {
		b.Fatal(err)
	}
	return replay.Spec{
		Platform:  plat,
		Hosts:     plat.Hosts()[:ranks],
		Submitter: plat.Frontend,
		Scheme:    p2psap.Synchronous,
	}
}

// BenchmarkTraceReplay replays the obstacle trace set from its shared
// folded source. ns/record and allocs/record are the headline metrics
// of BENCH_trace.json.
func BenchmarkTraceReplay(b *testing.B) {
	const ranks = 4
	ts := traceBenchSet(b, ranks)
	spec := traceBenchSpec(b, ranks)
	var records int64
	for _, f := range ts.Folded() {
		records += f.NumRecords()
	}
	s, err := replay.NewSession(spec.Platform)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("folded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunSource(spec, ts.Source()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	})
}

// BenchmarkTraceReplayComputeRuns isolates the compute-run fast path:
// a trace dominated by a long homogeneous compute run replays as one
// kernel event instead of one per record.
func BenchmarkTraceReplayComputeRuns(b *testing.B) {
	const runLen = 50000
	mk := func(rank, peer int) *trace.Folded {
		return &trace.Folded{Rank: rank, Of: 2, Ops: []trace.Op{
			{Count: runLen, Rec: trace.Record{Kind: trace.KindCompute, NS: 1000}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 64}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 64}},
		}}
	}
	folded := trace.FoldedSource{mk(0, 1), mk(1, 0)}
	spec := traceBenchSpec(b, 2)
	run := func(b *testing.B, src trace.Source) {
		s, err := replay.NewSession(spec.Platform)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunSource(spec, src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*runLen), "ns/record")
	}
	b.Run("aggregated", func(b *testing.B) { run(b, folded) })
	b.Run("per-record", func(b *testing.B) { run(b, perRecordSource(folded)) })
}

// foldTraces returns flat traces as the folded source replay takes.
func foldTraces(traces []*trace.Trace) trace.FoldedSource {
	fs := make(trace.FoldedSource, len(traces))
	for i, t := range traces {
		fs[i] = trace.Fold(t)
	}
	return fs
}

// perRecordSource forces the per-record slow path (the pre-refactor
// replay shape) for comparison: every run of n identical records
// becomes n single-record ops.
func perRecordSource(src trace.FoldedSource) trace.FoldedSource {
	out := make(trace.FoldedSource, len(src))
	for i, f := range src {
		var ops []trace.Op
		for _, op := range f.Ops {
			for k := 0; k < op.Count; k++ {
				ops = append(ops, trace.Lit(op.Rec))
			}
		}
		out[i] = &trace.Folded{Rank: f.Rank, Of: f.Of, Ops: ops}
	}
	return out
}

// BenchmarkTraceSetEncode measures whole-set serialization cost and
// size for the JSON and binary formats.
func BenchmarkTraceSetEncode(b *testing.B) {
	ts := traceBenchSet(b, 4)
	if _, err := ts.Flat(); err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			var cw countWriter
			if err := ts.WriteJSON(&cw); err != nil {
				b.Fatal(err)
			}
			n = cw.n
		}
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			var cw countWriter
			if err := ts.WriteBinary(&cw); err != nil {
				b.Fatal(err)
			}
			n = cw.n
		}
		b.ReportMetric(float64(n), "bytes")
	})
}

// BenchmarkTraceSetStats measures trace-set admission as dperfd's
// store runs it — decode, Prepare and Stats — on the paper-scale
// obstacle workload at 8 ranks, at O0 (its rounds settle) and O2 (they
// never do), from the v2 container WriteBinary writes (dperfbench's
// new-trace workload times v1 uploads end to end). With -benchmem the
// allocations are admission's memory cost.
func BenchmarkTraceSetStats(b *testing.B) {
	a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithRanks(8)).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range []dperf.Level{dperf.O0, dperf.O2} {
		ts, err := a.Traces(dperf.WithLevel(level))
		if err != nil {
			b.Fatal(err)
		}
		var artifact bytes.Buffer
		if err := ts.WriteBinary(&artifact); err != nil {
			b.Fatal(err)
		}
		b.Run(level.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ld, err := dperf.ReadTraceSetData("bench", artifact.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				if err := ld.Prepare(); err != nil {
					b.Fatal(err)
				}
				if _, err := ld.Stats(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkTraceGeneration measures the generation stage itself —
// folded emission keeps memory O(patterns) instead of O(iterations).
func BenchmarkTraceGeneration(b *testing.B) {
	w := dperf.ObstacleWorkload{N: 600, Rounds: 120, Sweeps: 4, BenchN: 24}
	a, err := dperf.New(w, dperf.WithRanks(4)).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Traces(); err != nil {
			b.Fatal(err)
		}
	}
}
