// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus three ablations: A1
// hierarchical allocation, A2 churn repair and A3 instrumentation
// overhead. Every benchmark runs a reduced-scale but structurally
// complete experiment per iteration and reports the *virtual* times
// as custom metrics (vsec-*); wall-clock ns/op measures the simulator
// itself. The full paper-scale numbers are regenerated by
// `go run ./cmd/experiments -all`; internal/experiments' tests
// (TestFig9Calibration, TestFig10PredictionAccuracy) check them.
package repro

import (
	"testing"

	"repro/dperf"
	"repro/internal/alloc"
	"repro/internal/costmodel"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/obstacle"
	"repro/internal/overlay"
	"repro/internal/p2pdc"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/proximity"
)

// benchWorkload is the reduced experiment configuration used by all
// figure benches (same structure as the paper-scale run: 2D obstacle
// grid, strip decomposition, per-round exchange + convergence test).
func benchWorkload(level costmodel.Level) obstacle.Config {
	cfg := obstacle.DefaultConfig(level)
	cfg.Problem.N = 300
	cfg.Rounds = 30
	cfg.Sweeps = 30
	return cfg
}

// predictProgram runs the analyzed obstacle program through trace
// generation and replay at benchWorkload's scale.
func predictProgram(a *dperf.Analysis, kind platform.Kind, peers int, level costmodel.Level) (*dperf.Prediction, error) {
	w := dperf.ObstacleWorkload{N: 300, Rounds: 30, Sweeps: 30, BenchN: 20}
	ts, err := a.WithWorkload(w).Traces(dperf.WithRanks(peers), dperf.WithLevel(level))
	if err != nil {
		return nil, err
	}
	return ts.Predict(dperf.WithPlatform(kind))
}

func runReference(b *testing.B, kind platform.Kind, peers int, level costmodel.Level) float64 {
	b.Helper()
	cfg := benchWorkload(level)
	plat, err := platform.ForKind(kind, peers)
	if err != nil {
		b.Fatal(err)
	}
	env, err := p2pdc.NewEnvironment(plat)
	if err != nil {
		b.Fatal(err)
	}
	hosts, err := p2pdc.HostsOf(plat, peers)
	if err != nil {
		b.Fatal(err)
	}
	spec := p2pdc.RunSpec{
		Submitter:    plat.Frontend,
		Hosts:        hosts,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: cfg.ScatterBytesPerPeer(peers),
		GatherBytes:  cfg.GatherBytesPerPeer(peers),
	}
	res, err := env.Run(spec, obstacle.App(cfg, nil))
	if err != nil {
		b.Fatal(err)
	}
	if err := res.FirstError(); err != nil {
		b.Fatal(err)
	}
	return res.Total
}

// BenchmarkFig9ReferenceTime regenerates one Fig. 9 cell per level:
// the Stage-1 reference execution on the cluster with 4 peers.
func BenchmarkFig9ReferenceTime(b *testing.B) {
	for _, level := range costmodel.Levels {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				vsec = runReference(b, platform.KindCluster, 4, level)
			}
			b.ReportMetric(vsec, "vsec-reference")
		})
	}
}

// BenchmarkFig10PredictionAccuracy regenerates the Fig. 10 comparison
// at O3: reference vs dPerf prediction on the cluster.
func BenchmarkFig10PredictionAccuracy(b *testing.B) {
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ref := runReference(b, platform.KindCluster, 4, costmodel.O3)
		pred, err := predictProgram(a, platform.KindCluster, 4, costmodel.O3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(ref, "vsec-reference")
			b.ReportMetric(pred.Predicted, "vsec-predicted")
			b.ReportMetric(100*(pred.Predicted-ref)/ref, "error-pct")
		}
	}
}

// BenchmarkFig11CrossPlatform regenerates one Fig. 11 column (4
// peers, O0): prediction on all three platforms from one trace set.
func BenchmarkFig11CrossPlatform(b *testing.B) {
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []platform.Kind{platform.KindCluster, platform.KindDaisy, platform.KindLAN} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			var vsec float64
			for i := 0; i < b.N; i++ {
				pred, err := predictProgram(a, kind, 4, costmodel.O0)
				if err != nil {
					b.Fatal(err)
				}
				vsec = pred.Predicted
			}
			b.ReportMetric(vsec, "vsec-predicted")
		})
	}
}

// BenchmarkTableIEquivalence regenerates one Table I row: 8 LAN peers
// vs 4 cluster nodes at O0 (the "same as" row).
func BenchmarkTableIEquivalence(b *testing.B) {
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		lan, err := predictProgram(a, platform.KindLAN, 8, costmodel.O0)
		if err != nil {
			b.Fatal(err)
		}
		g5k, err := predictProgram(a, platform.KindCluster, 4, costmodel.O0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(lan.Predicted, "vsec-8lan")
			b.ReportMetric(g5k.Predicted, "vsec-4g5k")
			b.ReportMetric(lan.Predicted/g5k.Predicted, "ratio")
		}
	}
}

// BenchmarkAblationAllocation compares hierarchical task allocation
// against the flat submitter-connects-to-everyone baseline (paper
// §III-C's design argument; ablation A1).
func BenchmarkAblationAllocation(b *testing.B) {
	build := func(b *testing.B) (*des.Simulation, *overlay.System, *alloc.Submitter, []proximity.Addr) {
		sim := des.New()
		sys, err := overlay.NewSystem(sim, overlay.DefaultConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		server := proximity.MustParseAddr("9.9.9.9")
		var cores []proximity.Addr
		for i := 0; i < 4; i++ {
			cores = append(cores, proximity.Addr(uint32(10)<<24|uint32(i)<<16|1))
		}
		if _, _, err := overlay.Bootstrap(sys, server, cores); err != nil {
			b.Fatal(err)
		}
		var collected []proximity.Addr
		for zi, c := range cores {
			for k := 0; k < 24; k++ {
				pa := proximity.Addr(uint32(c) + uint32(k) + 2)
				p, err := overlay.NewPeer(sys, pa, server, overlay.Resources{CPUFlops: 3e9})
				if err != nil {
					b.Fatal(err)
				}
				p.Join([]proximity.Addr{cores[zi]})
				alloc.NewAgent(sys, p)
				collected = append(collected, pa)
			}
		}
		sp, err := overlay.NewPeer(sys, proximity.Addr(uint32(cores[0])+200), server, overlay.Resources{})
		if err != nil {
			b.Fatal(err)
		}
		sp.Join(cores[:1])
		sim.RunUntil(5)
		sub, err := alloc.NewSubmitter(sys, sp)
		if err != nil {
			b.Fatal(err)
		}
		return sim, sys, sub, collected
	}
	b.Run("hierarchical", func(b *testing.B) {
		var vsec float64
		for i := 0; i < b.N; i++ {
			sim, _, sub, peers := build(b)
			var groups []alloc.Group
			sub.Allocate(peers, alloc.Cmax, func(g []alloc.Group, _ float64) { groups = g })
			sim.RunUntil(sim.Now() + 60)
			done := -1.0
			sub.Distribute(groups, 1e6, 1e4, func(el float64) { done = el })
			sim.RunUntil(sim.Now() + 3600)
			if done < 0 {
				b.Fatal("distribution hung")
			}
			vsec = done
		}
		b.ReportMetric(vsec, "vsec-distribute")
	})
	b.Run("flat", func(b *testing.B) {
		var vsec float64
		for i := 0; i < b.N; i++ {
			sim, _, sub, peers := build(b)
			done := -1.0
			sub.FlatDistribute(peers, 1e6, 1e4, func(el float64) { done = el })
			sim.RunUntil(sim.Now() + 3600)
			if done < 0 {
				b.Fatal("distribution hung")
			}
			vsec = done
		}
		b.ReportMetric(vsec, "vsec-distribute")
	})
}

// BenchmarkAblationChurn measures tracker-line repair cost (messages
// and virtual time) under crashes, for two neighbour-set sizes
// (ablation A2).
func BenchmarkAblationChurn(b *testing.B) {
	for _, nsize := range []int{4, 8} {
		nsize := nsize
		b.Run(map[int]string{4: "N4", 8: "N8"}[nsize], func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				sim := des.New()
				cfg := overlay.DefaultConfig()
				cfg.NSize = nsize
				sys, err := overlay.NewSystem(sim, cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				var cores []proximity.Addr
				for j := 0; j < 12; j++ {
					cores = append(cores, proximity.Addr(uint32(10)<<24|uint32(j)<<16|1))
				}
				_, trackers, err := overlay.Bootstrap(sys, proximity.MustParseAddr("9.9.9.9"), cores)
				if err != nil {
					b.Fatal(err)
				}
				sim.RunUntil(1)
				sys.ResetCounters()
				overlay.CrashTracker(sys, trackers[5])
				sim.RunUntil(sim.Now() + 60)
				overlay.CrashTracker(sys, trackers[6])
				sim.RunUntil(sim.Now() + 60)
				if err := overlay.CheckLine(sys); err != nil {
					b.Fatal(err)
				}
				msgs = float64(sys.TotalMessages())
			}
			b.ReportMetric(msgs, "repair-msgs")
		})
	}
}

// BenchmarkAblationInstrumentation quantifies dPerf's block-probe
// overhead (paper: "reduced slowdown due to block benchmarking";
// ablation A3).
func BenchmarkAblationInstrumentation(b *testing.B) {
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		b.Fatal(err)
	}
	var overhead float64
	for i := 0; i < b.N; i++ {
		rep, err := dperf.Benchmark(a, costmodel.O0, map[string]int64{"N": 48, "ROUNDS": 4, "SWEEPS": 4})
		if err != nil {
			b.Fatal(err)
		}
		overhead = rep.InstrumentationOverheadPct
	}
	b.ReportMetric(overhead, "overhead-pct")
}

// BenchmarkExperimentsHarness exercises the full Fig. 10 harness path
// end to end (reference + prediction + error) at reduced scale.
func BenchmarkExperimentsHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Small peer set keeps a harness iteration around a second.
		if _, err := experiments.Fig10(discard{}, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
