package replay

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/trace"
)

// heteroTraces builds a deterministic, heterogeneous (non-foldable)
// workload: each rank alternates pseudo-random compute bursts with a
// ring exchange and a global convergence test. Every compute burst
// differs, so neither loop folding nor steady-state fast-forward can
// compress it — exactly the replays the parallel engine targets.
func heteroTraces(n, rounds int, seed uint64) trace.FoldedSource {
	next := func() uint64 { // splitmix64: deterministic, no global rand
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	traces := make([]*trace.Trace, n)
	for r := range traces {
		traces[r] = &trace.Trace{Rank: r, Of: n}
	}
	for round := 0; round < rounds; round++ {
		for r := 0; r < n; r++ {
			ns := 1e6 * float64(1+next()%2000) // 1–2000 ms of work, all distinct
			bytes := float64(1024 * (1 + next()%64))
			rec := &traces[r].Records
			*rec = append(*rec, trace.Record{Kind: trace.KindCompute, NS: ns})
			if n > 1 {
				peer := (r + 1) % n
				prev := (r + n - 1) % n
				*rec = append(*rec,
					trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: bytes},
					trace.Record{Kind: trace.KindRecv, Peer: prev, Bytes: bytes},
				)
			}
			*rec = append(*rec, trace.Record{Kind: trace.KindConv})
		}
		// Re-mix so the send size a rank uses next round differs from
		// what its peer received this round.
		next()
	}
	return fold(traces)
}

func TestParallelBitIdenticalAcrossWorkers(t *testing.T) {
	platforms := []struct {
		name string
		kind platform.Kind
	}{
		{"cluster", platform.KindCluster},
		{"lan", platform.KindLAN},
	}
	schemes := []p2psap.Scheme{p2psap.Synchronous, p2psap.Asynchronous}
	for _, pk := range platforms {
		for _, ranks := range []int{2, 3, 5, 8} {
			plat, err := platform.ForKind(pk.kind, ranks)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range schemes {
				spec := Spec{
					Platform:     plat,
					Hosts:        plat.Hosts()[:ranks],
					Submitter:    plat.Frontend,
					Scheme:       scheme,
					ScatterBytes: 64 * 1024,
					GatherBytes:  16 * 1024,
				}
				traces := heteroTraces(ranks, 3, 42)
				want, err := RunSource(spec, traces)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					eng, err := NewParallelEngine(plat, workers)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.RunSource(spec, heteroTraces(ranks, 3, 42))
					if err != nil {
						t.Fatalf("%s/r%d/%v/w%d: %v", pk.name, ranks, scheme, workers, err)
					}
					if timings(got) != timings(want) {
						t.Errorf("%s/r%d/%v/w%d: parallel %+v != serial %+v",
							pk.name, ranks, scheme, workers, timings(got), timings(want))
					}
					if workers >= 2 && ranks >= 2 {
						wantP := workers
						if wantP > ranks {
							wantP = ranks
						}
						if got.Par.Workers != wantP {
							t.Errorf("%s/r%d/%v/w%d: ran with %d partitions, want %d",
								pk.name, ranks, scheme, workers, got.Par.Workers, wantP)
						}
						if got.Par.Windows == 0 || got.Par.BoundaryRecords == 0 {
							t.Errorf("%s/r%d/%v/w%d: no windows/records (%+v) — not actually partitioned?",
								pk.name, ranks, scheme, workers, got.Par)
						}
					}
				}
			}
		}
	}
}

// TestParallelFFModesBitIdentical completes the mode grid on an
// op-structured steady-state source: at FFOff the partitioned path
// must match the serial engine; FFVerify and FFOn route to the serial
// session (fast-forward already wins there) and must be
// indistinguishable from calling it directly.
func TestParallelFFModesBitIdentical(t *testing.T) {
	spec := clusterSpec(t, 2)
	src := trace.FoldedSource(steadyFixture(40))
	for _, mode := range []FFMode{FFOff, FFVerify, FFOn} {
		ms := spec
		ms.FastForward = mode
		want, err := RunSource(ms, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			eng, err := NewParallelEngine(spec.Platform, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.RunSource(ms, src)
			if err != nil {
				t.Fatalf("mode %v w%d: %v", mode, workers, err)
			}
			if timings(got) != timings(want) || got.FF != want.FF {
				t.Errorf("mode %v w%d: parallel %+v/%+v != serial %+v/%+v",
					mode, workers, timings(got), got.FF, timings(want), want.FF)
			}
			if mode != FFOff && workers > 1 && got.Par.Workers != 1 {
				t.Errorf("mode %v w%d: fast-forward replay took the partitioned path: %+v",
					mode, workers, got.Par)
			}
		}
	}
}

func TestParallelEngineReuseBitIdentical(t *testing.T) {
	spec := clusterSpec(t, 4)
	traces := heteroTraces(4, 2, 7)
	fresh, err := RunSource(spec, traces)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewParallelEngine(spec.Platform, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := eng.RunSource(spec, heteroTraces(4, 2, 7))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if timings(got) != timings(fresh) {
			t.Fatalf("run %d: reused engine %+v differs from fresh serial %+v",
				i, timings(got), timings(fresh))
		}
	}
}

func TestParallelSerialFallbacks(t *testing.T) {
	spec := clusterSpec(t, 4)

	t.Run("single-worker", func(t *testing.T) {
		eng, err := NewParallelEngine(spec.Platform, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunSource(spec, heteroTraces(4, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Par.Workers != 1 || res.Par.Windows != 0 {
			t.Fatalf("expected serial path, got %+v", res.Par)
		}
	})

	t.Run("fast-forward-ops-source", func(t *testing.T) {
		ff := spec
		ff.FastForward = FFOn
		eng, err := NewParallelEngine(spec.Platform, 4)
		if err != nil {
			t.Fatal(err)
		}
		// With fast-forward requested the engine must hand every source
		// to the serial session (partitions run no controller, so they
		// cannot honor Repeat-boundary snapshots).
		res, err := eng.RunSource(ff, heteroTraces(4, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Par.Workers != 1 {
			t.Fatalf("fast-forward replay took the partitioned path: %+v", res.Par)
		}
		want, err := RunSource(ff, heteroTraces(4, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if timings(res) != timings(want) {
			t.Fatalf("fallback result %+v != serial %+v", timings(res), timings(want))
		}
	})

	t.Run("duplicate-hosts", func(t *testing.T) {
		dup := spec
		dup.Hosts = append([]string{}, spec.Hosts...)
		dup.Hosts[1] = dup.Hosts[0] // two ranks share one host
		eng, err := NewParallelEngine(spec.Platform, 4)
		if err != nil {
			t.Fatal(err)
		}
		traces := heteroTraces(4, 1, 9)
		res, err := eng.RunSource(dup, traces)
		if err != nil {
			t.Fatal(err)
		}
		if res.Par.Workers != 1 {
			t.Fatalf("duplicate-host deployment took the partitioned path: %+v", res.Par)
		}
		want, err := RunSource(dup, heteroTraces(4, 1, 9))
		if err != nil {
			t.Fatal(err)
		}
		if timings(res) != timings(want) {
			t.Fatalf("fallback result %+v != serial %+v", timings(res), timings(want))
		}
	})
}

// TestParallelFailedRunReapsGoroutines extends the serial session's
// parked-goroutine regression test to a partitioned run: a stalled
// partition leaves rank processes parked in several kernels at once,
// and the engine's error path must shut every one of them down and
// recover for the next run.
func TestParallelFailedRunReapsGoroutines(t *testing.T) {
	spec := clusterSpec(t, 4)
	eng, err := NewParallelEngine(spec.Platform, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the engine so its partition environments exist before the
	// baseline goroutine count is taken.
	if _, err := eng.RunSource(spec, heteroTraces(4, 1, 5)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// Cyclic wait spanning partitions: ranks 0|1 and 2|3 land in
	// different partitions at P=2, and every rank Recvs before it
	// Sends, so all four park forever.
	bad := cyclicStall(4)
	for i := 0; i < 5; i++ {
		if _, err := eng.RunSource(spec, bad); err == nil {
			t.Fatal("stalled partitioned replay reported no error")
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked process goroutines leaked: %d before failed runs, %d after",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}

	// The engine must rebuild and predict bit-identically afterwards.
	fresh, err := RunSource(spec, heteroTraces(4, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunSource(spec, heteroTraces(4, 1, 5))
	if err != nil {
		t.Fatalf("engine unusable after failed run: %v", err)
	}
	if timings(got) != timings(fresh) {
		t.Fatalf("post-error engine result %+v differs from fresh %+v", timings(got), timings(fresh))
	}
}
