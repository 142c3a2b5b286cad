package repro

import (
	"fmt"
	"testing"

	"repro/dperf"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// sweepBenchSpace is the ≥16-configuration design space the sweep
// benchmarks explore: 3 platforms × 3 rank counts × 2 schemes = 18.
func sweepBenchSpace() dperf.Space {
	return dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindDaisy, dperf.KindLAN},
		Ranks:     []int{2, 4, 8},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
}

// cachedSource pre-generates one trace set per rank count so both
// sweep benchmarks measure replay orchestration, not trace
// generation.
type cachedSource map[int]*dperf.TraceSet

func (c cachedSource) SweepTraces(ranks int) (*dperf.TraceSet, error) {
	ts, ok := c[ranks]
	if !ok {
		return nil, fmt.Errorf("bench: no cached trace set for %d ranks", ranks)
	}
	return ts, nil
}

func sweepBenchSource(b *testing.B) cachedSource {
	b.Helper()
	w := dperf.ObstacleWorkload{N: 300, Rounds: 30, Sweeps: 30, BenchN: 20}
	a, err := dperf.New(w, dperf.WithLevel(dperf.O0)).Analyze()
	if err != nil {
		b.Fatal(err)
	}
	src := cachedSource{}
	for _, r := range sweepBenchSpace().Ranks {
		ts, err := a.Traces(dperf.WithRanks(r))
		if err != nil {
			b.Fatal(err)
		}
		src[r] = ts
	}
	return src
}

// BenchmarkSweepSerial is the sweep's serial baseline: one
// TraceSet.Predict call per configuration on one goroutine. The sets
// come from one Pipeline, so every iteration shares its Predictor's
// platforms and its pooled sessions, while each Sweep call in
// BenchmarkSweepConcurrent starts from a fresh Predictor and pool.
func BenchmarkSweepSerial(b *testing.B) {
	src := sweepBenchSource(b)
	configs := sweepBenchSpace().Expand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			ts := src[c.Ranks]
			if _, err := ts.Predict(
				dperf.WithPlatform(c.Platform), dperf.WithScheme(c.Scheme)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(configs))*float64(b.N)/b.Elapsed().Seconds(), "configs/sec")
}

// BenchmarkSweepConcurrent measures dperf.Sweep over the same space:
// bounded workers, shared platform graphs, pooled session reuse.
func BenchmarkSweepConcurrent(b *testing.B) {
	src := sweepBenchSource(b)
	space := sweepBenchSpace()
	nconfigs := len(space.Expand())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dperf.Sweep(src, space)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed() != 0 {
			b.Fatalf("%d sweep configs failed", res.Failed())
		}
	}
	b.ReportMetric(float64(nconfigs)*float64(b.N)/b.Elapsed().Seconds(), "configs/sec")
}

// replayBenchFixture builds a platform, spec and traces for the
// session-reuse allocation benchmarks. The campus LAN realizes all
// 1024 hosts, so rebuilding the environment per replay — what
// replay.RunSource did before Sessions — is the representative cost.
func replayBenchFixture(b *testing.B) (replay.Spec, trace.FoldedSource) {
	b.Helper()
	plat, err := platform.ForKind(platform.KindLAN, 4)
	if err != nil {
		b.Fatal(err)
	}
	hosts := plat.Hosts()[:4]
	spec := replay.Spec{
		Platform:     plat,
		Hosts:        hosts,
		Submitter:    plat.Frontend,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: 1e6,
		GatherBytes:  1e5,
	}
	traces := make([]*trace.Trace, 4)
	for r := 0; r < 4; r++ {
		var recs []trace.Record
		for round := 0; round < 20; round++ {
			recs = append(recs, trace.Record{Kind: trace.KindCompute, NS: 1e6})
			peer := (r + 1) % 4
			recs = append(recs,
				trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 1e4},
				trace.Record{Kind: trace.KindRecv, Peer: (r + 3) % 4, Bytes: 1e4},
				trace.Record{Kind: trace.KindConv})
		}
		traces[r] = &trace.Trace{Rank: r, Of: 4, Records: recs}
	}
	return spec, foldTraces(traces)
}

// BenchmarkReplayFreshEnv rebuilds the simulation environment per
// replay — the pre-Session behaviour of replay.RunSource.
func BenchmarkReplayFreshEnv(b *testing.B) {
	spec, traces := replayBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.RunSource(spec, traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaySessionReuse replays through one reused Session,
// keeping the realized network, route caches and mailboxes alive.
func BenchmarkReplaySessionReuse(b *testing.B) {
	spec, traces := replayBenchFixture(b)
	s, err := replay.NewSession(spec.Platform)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunSource(spec, traces); err != nil {
			b.Fatal(err)
		}
	}
}
