package analytic

import (
	"math"
	"strings"
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// steadySrc builds a line-topology iterative fixture: every rank runs
// a managed Repeat of compute + ghost exchange with its line
// neighbours + convergence test, with slightly rank-skewed compute so
// the steady state is not trivially symmetric.
func steadySrc(ranks, count int) trace.FoldedSource {
	fs := make([]*trace.Folded, ranks)
	for r := 0; r < ranks; r++ {
		body := []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 2e6 + float64(r)*1.7e4}},
		}
		if r > 0 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: r - 1, Bytes: 4096}})
		}
		if r < ranks-1 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: r + 1, Bytes: 4096}})
		}
		if r > 0 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: r - 1, Bytes: 4096}})
		}
		if r < ranks-1 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: r + 1, Bytes: 4096}})
		}
		body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindConv}})
		fs[r] = &trace.Folded{Rank: r, Of: ranks, Ops: []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1.5e6}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			{Count: count, Body: body},
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e3}},
		}}
	}
	return trace.FoldedSource(fs)
}

// perturbedSrc splits the loop around one heterogeneous round, so the
// controller joins two managed Repeats with a literal round between —
// the signature-chain-clearing paths get exercised.
func perturbedSrc(ranks int) trace.FoldedSource {
	fs := make([]*trace.Folded, ranks)
	for r := 0; r < ranks; r++ {
		round := func(ns float64) []trace.Op {
			peer := r ^ 1 // pairwise exchange; requires even ranks
			return []trace.Op{
				{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: ns}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 2048}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 2048}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			}
		}
		var ops []trace.Op
		ops = append(ops, trace.Op{Count: 10, Body: round(2e6)})
		ops = append(ops, round(3.3e6)...)
		ops = append(ops, trace.Op{Count: 10, Body: round(2e6)})
		fs[r] = &trace.Folded{Rank: r, Of: ranks, Ops: ops}
	}
	return fs
}

func specFor(t testing.TB, plat *platform.Platform, ranks int, scheme p2psap.Scheme, scatter, gather float64, src trace.Source) Spec {
	t.Helper()
	hosts := plat.Hosts()
	if len(hosts) < ranks {
		t.Fatalf("platform has %d hosts, need %d", len(hosts), ranks)
	}
	return Spec{
		Platform:     plat,
		Hosts:        hosts[:ranks],
		Submitter:    plat.Frontend,
		Scheme:       scheme,
		ScatterBytes: scatter,
		GatherBytes:  gather,
		Source:       src,
	}
}

// runBoth evaluates the same spec through the analytic tier and
// through replay with fast-forward on, and requires every timing field
// and the round accounting to match bit for bit.
func runBoth(t *testing.T, spec Spec) *Result {
	t.Helper()
	ares, err := Evaluate(spec)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	rres, err := replay.RunSource(replay.Spec{
		Platform:     spec.Platform,
		Hosts:        spec.Hosts,
		Submitter:    spec.Submitter,
		Scheme:       spec.Scheme,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
		FastForward:  replay.FFOn,
	}, spec.Source)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if ares.PredictedSeconds != rres.PredictedSeconds ||
		ares.ScatterSeconds != rres.ScatterSeconds ||
		ares.ComputeSeconds != rres.ComputeSeconds ||
		ares.GatherSeconds != rres.GatherSeconds {
		t.Fatalf("analytic diverged from fast-forward replay:\nanalytic %+v\nreplay   %+v", ares, rres)
	}
	if ares.RoundsSimulated != rres.FF.RoundsSimulated ||
		ares.RoundsFastForwarded != rres.FF.RoundsFastForwarded ||
		ares.Jumps != rres.FF.Jumps {
		t.Fatalf("round accounting diverged:\nanalytic %+v\nreplay   %+v", ares, rres.FF)
	}
	return ares
}

// TestAnalyticBitIdenticalCluster: the arithmetic port must reproduce
// the DES fast-forward replay bit for bit across rank counts, schemes
// and deployment phases.
func TestAnalyticBitIdenticalCluster(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		plat, err := platform.Cluster(ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []p2psap.Scheme{p2psap.Synchronous, p2psap.Asynchronous} {
			spec := specFor(t, plat, ranks, scheme, 8192, 4096, steadySrc(ranks, 40))
			res := runBoth(t, spec)
			if res.Jumps == 0 || res.RoundsFastForwarded == 0 {
				t.Fatalf("ranks=%d scheme=%v: steady fixture did not fast-forward: %+v", ranks, scheme, res)
			}
			if got := res.RoundsSimulated + res.RoundsFastForwarded; got != 40 {
				t.Fatalf("ranks=%d: rounds accounted %d, want 40", ranks, got)
			}
		}
	}
}

// TestAnalyticBitIdenticalLAN: same differential on the LAN platform
// profile (different latencies select a different P2PSAP profile).
func TestAnalyticBitIdenticalLAN(t *testing.T) {
	for _, ranks := range []int{2, 6} {
		plat, err := platform.LAN(ranks)
		if err != nil {
			t.Fatal(err)
		}
		spec := specFor(t, plat, ranks, p2psap.Synchronous, 4096, 4096, steadySrc(ranks, 24))
		runBoth(t, spec)
	}
}

// TestAnalyticBitIdenticalPerturbed: heterogeneous rounds break the
// signature chain; the analytic engine must fall back exactly like the
// DES engine.
func TestAnalyticBitIdenticalPerturbed(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 4, p2psap.Synchronous, 2048, 2048, perturbedSrc(4))
	runBoth(t, spec)
}

// TestAnalyticNoDeployment: zero scatter/gather bytes skip both
// phases (the submitter signals at t=0, before the watchdog's first
// activation — the pending-signal path), on a platform that fits the
// ranks exactly and on one with idle hosts.
func TestAnalyticNoDeployment(t *testing.T) {
	for _, hosts := range []int{2, 4} {
		plat, err := platform.Cluster(hosts)
		if err != nil {
			t.Fatal(err)
		}
		spec := specFor(t, plat, 2, p2psap.Synchronous, 0, 0, steadySrc(2, 12))
		res := runBoth(t, spec)
		if res.ScatterSeconds != 0 || res.GatherSeconds != 0 {
			t.Fatalf("Cluster(%d): deployment-free run has nonzero phase times: %+v", hosts, res)
		}
	}
}

// TestCertify: the steady-state fixture evaluates to a steady state,
// the jump a certificate needs before auto mode serves it.
func TestCertify(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 4, p2psap.Synchronous, 8192, 4096, steadySrc(4, 40))
	res, err := Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jumps == 0 {
		t.Fatalf("steady fixture did not certify a steady state: %+v", res)
	}
}

// TestModelReuse: one shared model serves many evaluations with
// results identical to throwaway models.
func TestModelReuse(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 4, p2psap.Synchronous, 8192, 4096, steadySrc(4, 24))
	first, err := m.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := m.Evaluate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if *again != *first {
			t.Fatalf("model reuse diverged on run %d: %+v vs %+v", i, again, first)
		}
	}
	solo, err := Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if *solo != *first {
		t.Fatalf("shared model diverged from throwaway model: %+v vs %+v", solo, first)
	}
}

// TestEligible: a manageable top-level Repeat on every rank is
// required.
func TestEligible(t *testing.T) {
	if err := Eligible(steadySrc(4, 24)); err != nil {
		t.Fatalf("steady source rejected: %v", err)
	}
	if err := Eligible(nil); err == nil {
		t.Fatal("nil source accepted")
	}
	// A rank without a manageable Repeat is ineligible.
	noLoop := trace.FoldedSource([]*trace.Folded{
		{Rank: 0, Of: 1, Ops: []trace.Op{{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e6}}}},
	})
	if err := Eligible(noLoop); err == nil {
		t.Fatal("loopless source accepted")
	}
}

// TestSpecValidation: the analytic tier's extra preconditions.
func TestSpecValidation(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	base := specFor(t, plat, 2, p2psap.Synchronous, 0, 0, steadySrc(2, 12))

	dup := base
	dup.Hosts = []string{base.Hosts[0], base.Hosts[0]}
	if _, err := Evaluate(dup); err == nil {
		t.Fatal("duplicate hosts accepted")
	}

	badSub := base
	badSub.Submitter = "no-such-host"
	if _, err := Evaluate(badSub); err == nil {
		t.Fatal("unknown submitter accepted")
	}

	neg := base
	neg.ScatterBytes = -1
	if _, err := Evaluate(neg); err == nil {
		t.Fatal("negative scatter bytes accepted")
	}

	unbalanced := base
	unbalanced.Source = trace.FoldedSource{
		{Rank: 0, Of: 2, Ops: []trace.Op{trace.Lit(trace.Record{Kind: trace.KindSend, Peer: 1, Bytes: 8})}},
		{Rank: 1, Of: 2},
	}
	if _, err := Evaluate(unbalanced); err == nil {
		t.Fatal("unbalanced source accepted")
	}

	other, err := platform.Cluster(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(base); err == nil {
		t.Fatal("foreign platform accepted")
	}
}

// TestGenericEngineValidation: the generic engine behind Model.Evaluate
// rejects bad specs on a reused model (one whose route cache is warm),
// and a rejection leaves the model usable for the next valid spec.
func TestGenericEngineValidation(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	base := specFor(t, plat, 2, p2psap.Synchronous, 0, 0, steadySrc(2, 12))
	want, err := m.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}

	dup := base
	dup.Hosts = []string{base.Hosts[0], base.Hosts[0]}
	if _, err := m.Evaluate(dup); err == nil {
		t.Fatal("duplicate hosts accepted")
	}

	badSub := base
	badSub.Submitter = "no-such-host"
	if _, err := m.Evaluate(badSub); err == nil {
		t.Fatal("unknown submitter accepted")
	}

	neg := base
	neg.ScatterBytes = -1
	if _, err := m.Evaluate(neg); err == nil {
		t.Fatal("negative scatter bytes accepted")
	}

	got, err := m.Evaluate(base)
	if err != nil {
		t.Fatalf("valid spec rejected after invalid ones: %v", err)
	}
	if *got != *want {
		t.Fatalf("rejections changed the model's result:\nbefore %+v\nafter  %+v", want, got)
	}
}

// TestDeploymentBytesRejectedByEveryTier: a negative, NaN or +Inf
// scatter or gather size fails every tier up front with an error that
// names the field — the DES tier no longer predicts an empty phase for
// -1 or NaN, or deadlocks on +Inf, and the analytic tier no longer
// stalls on +Inf.
func TestDeploymentBytesRejectedByEveryTier(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := replay.NewParallelEngine(plat, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ScatterBytes", "GatherBytes"} {
		for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
			spec := specFor(t, plat, 4, p2psap.Synchronous, 2048, 2048, steadySrc(4, 12))
			if field == "ScatterBytes" {
				spec.ScatterBytes = bad
			} else {
				spec.GatherBytes = bad
			}
			rspec := replay.Spec{
				Platform:     spec.Platform,
				Hosts:        spec.Hosts,
				Submitter:    spec.Submitter,
				Scheme:       spec.Scheme,
				ScatterBytes: spec.ScatterBytes,
				GatherBytes:  spec.GatherBytes,
			}
			// FF off: the parallel engine partitions only replays that
			// fast-forward would not serve serially.
			_, serialErr := replay.RunSource(rspec, spec.Source)
			_, parErr := par.RunSource(rspec, spec.Source)
			_, anaErr := Evaluate(spec)
			for i, err := range []error{serialErr, parErr, anaErr} {
				want := "invalid " + field + " "
				if err == nil || !strings.Contains(err.Error(), want) {
					tier := [...]string{"replay", "parallel replay", "analytic"}[i]
					t.Errorf("%s=%v: %s tier returned %v, want an error containing %q", field, bad, tier, err, want)
				}
			}
		}
	}
}

// newBenchModel is BenchmarkEvaluate's fixture: paper scale, 8 ranks
// by 40 rounds on a 16-host cluster.
func newBenchModel(t testing.TB) (*Model, Spec) {
	t.Helper()
	plat, err := platform.Cluster(16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	return m, specFor(t, plat, 8, p2psap.Synchronous, 1e6, 1e6, steadySrc(8, 40))
}

// evaluateAllocs is the allocation count of one Model.Evaluate on
// BenchmarkEvaluate's fixture. It is deterministic, so it gates the
// evaluator's allocation behaviour exactly: recycling flows through
// the engine's free-list is what keeps it this low.
const evaluateAllocs = 214

// TestEvaluateAllocs: a warm Model.Evaluate allocates no more than
// evaluateAllocs times.
func TestEvaluateAllocs(t *testing.T) {
	m, spec := newBenchModel(t)
	if _, err := m.Evaluate(spec); err != nil { // warm the route cache
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := m.Evaluate(spec); err != nil {
			t.Fatal(err)
		}
	})
	if got > evaluateAllocs {
		t.Fatalf("Model.Evaluate allocates %v times per run, want <= %d", got, evaluateAllocs)
	}
}

// BenchmarkEvaluate: cold per-point cost of the analytic tier (model
// reuse, no certificate cache) at paper scale — 8 ranks, 40 rounds.
func BenchmarkEvaluate(b *testing.B) {
	m, spec := newBenchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
