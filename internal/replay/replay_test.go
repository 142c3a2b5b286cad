package replay

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/trace"
)

func clusterSpec(t testing.TB, peers int) Spec {
	t.Helper()
	plat, err := platform.Cluster(peers)
	if err != nil {
		t.Fatal(err)
	}
	hosts := plat.Hosts()[:peers]
	return Spec{
		Platform:  plat,
		Hosts:     hosts,
		Submitter: plat.Frontend,
		Scheme:    p2psap.Synchronous,
	}
}

// fold returns flat traces as the folded source replay takes.
func fold(traces []*trace.Trace) trace.FoldedSource {
	fs := make(trace.FoldedSource, len(traces))
	for i, t := range traces {
		fs[i] = trace.Fold(t)
	}
	return fs
}

func TestReplayComputeOnly(t *testing.T) {
	spec := clusterSpec(t, 2)
	traces := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 2e9}}},
		{Rank: 1, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e9}}},
	}
	res, err := RunSource(spec, fold(traces))
	if err != nil {
		t.Fatal(err)
	}
	// Total is dominated by the 2 s compute record.
	if math.Abs(res.PredictedSeconds-2.0) > 1e-3 {
		t.Fatalf("predicted = %v, want ~2.0", res.PredictedSeconds)
	}
}

func TestReplaySendRecvPairs(t *testing.T) {
	spec := clusterSpec(t, 2)
	traces := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{
			{Kind: trace.KindSend, Peer: 1, Bytes: 125e6}, // 1 Gbit
		}},
		{Rank: 1, Of: 2, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: 0, Bytes: 125e6},
		}},
	}
	res, err := RunSource(spec, fold(traces))
	if err != nil {
		t.Fatal(err)
	}
	// 1 Gbit over a 1 Gbps bottleneck ≈ 1 s plus overheads.
	if res.PredictedSeconds < 1.0 || res.PredictedSeconds > 1.2 {
		t.Fatalf("predicted = %v, want ≈1s", res.PredictedSeconds)
	}
}

func TestReplayConvSynchronizes(t *testing.T) {
	spec := clusterSpec(t, 3)
	mk := func(rank int, ns float64) *trace.Trace {
		return &trace.Trace{Rank: rank, Of: 3, Records: []trace.Record{
			{Kind: trace.KindCompute, NS: ns},
			{Kind: trace.KindConv},
		}}
	}
	// Slowest rank computes 3 s: everyone leaves conv after it.
	res, err := RunSource(spec, fold([]*trace.Trace{mk(0, 1e9), mk(1, 3e9), mk(2, 0.5e9)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedSeconds < 3.0 {
		t.Fatalf("conv did not wait for slowest rank: %v", res.PredictedSeconds)
	}
}

func TestReplayBarrier(t *testing.T) {
	spec := clusterSpec(t, 2)
	traces := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 5e8}, {Kind: trace.KindBarrier}}},
		{Rank: 1, Of: 2, Records: []trace.Record{{Kind: trace.KindBarrier}}},
	}
	res, err := RunSource(spec, fold(traces))
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedSeconds < 0.5 {
		t.Fatalf("barrier did not wait: %v", res.PredictedSeconds)
	}
}

func TestReplayScatterGatherPhases(t *testing.T) {
	spec := clusterSpec(t, 2)
	spec.ScatterBytes = 125e6 // 1 s at 1 Gbps per peer
	spec.GatherBytes = 125e5  // 0.1 s
	traces := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e9}}},
		{Rank: 1, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e9}}},
	}
	res, err := RunSource(spec, fold(traces))
	if err != nil {
		t.Fatal(err)
	}
	if res.ScatterSeconds < 0.9 {
		t.Fatalf("scatter = %v, want ≈1s+", res.ScatterSeconds)
	}
	if res.GatherSeconds <= 0 {
		t.Fatalf("gather = %v", res.GatherSeconds)
	}
	want := res.ScatterSeconds + res.ComputeSeconds + res.GatherSeconds
	if math.Abs(res.PredictedSeconds-want) > 1e-9 {
		t.Fatal("phase decomposition does not sum to total")
	}
}

func TestReplayRejectsInvalidTraces(t *testing.T) {
	spec := clusterSpec(t, 2)
	bad := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{{Kind: trace.KindSend, Peer: 1, Bytes: 8}}},
		{Rank: 1, Of: 2}, // missing the matching recv
	}
	if _, err := RunSource(spec, fold(bad)); err == nil {
		t.Fatal("mismatched traces accepted")
	}
	if _, err := RunSource(spec, trace.FoldedSource(nil)); err == nil {
		t.Fatal("empty traces accepted")
	}
	if _, err := RunSource(Spec{Platform: spec.Platform, Hosts: spec.Hosts[:1], Submitter: spec.Submitter}, fold(bad)); err == nil {
		t.Fatal("host/trace count mismatch accepted")
	}
}

// TestReplayRejectsInvalidQuantities: the validator holds in-memory
// sources to the decoders' bound on compute durations and message
// sizes, so replay refuses them before simulating: an infinite
// compute would spin the network model at virtual time +Inf, and a
// NaN, negative or infinite message would never complete.
func TestReplayRejectsInvalidQuantities(t *testing.T) {
	spec := clusterSpec(t, 2)
	cases := []struct {
		name string
		rank int
		rec  trace.Record
	}{
		{"compute +Inf", 1, trace.Record{Kind: trace.KindCompute, NS: math.Inf(1)}},
		{"compute NaN", 1, trace.Record{Kind: trace.KindCompute, NS: math.NaN()}},
		{"compute negative", 1, trace.Record{Kind: trace.KindCompute, NS: -1}},
		{"send NaN", 0, trace.Record{Kind: trace.KindSend, Peer: 1, Bytes: math.NaN()}},
		{"send negative", 0, trace.Record{Kind: trace.KindSend, Peer: 1, Bytes: -8}},
		{"send +Inf", 0, trace.Record{Kind: trace.KindSend, Peer: 1, Bytes: math.Inf(1)}},
		{"recv +Inf", 1, trace.Record{Kind: trace.KindRecv, Peer: 0, Bytes: math.Inf(1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			traces := []*trace.Trace{
				{Rank: 0, Of: 2, Records: []trace.Record{
					{Kind: trace.KindCompute, NS: 1e6},
					{Kind: trace.KindSend, Peer: 1, Bytes: 1024},
				}},
				{Rank: 1, Of: 2, Records: []trace.Record{
					{Kind: trace.KindCompute, NS: 1e6},
					{Kind: trace.KindRecv, Peer: 0, Bytes: 1024},
				}},
			}
			recs := traces[c.rank].Records
			for i := range recs {
				if recs[i].Kind == c.rec.Kind {
					recs[i] = c.rec
				}
			}
			verr := trace.ValidateSource(fold(traces))
			if verr == nil || !strings.Contains(verr.Error(), fmt.Sprintf("rank %d ", c.rank)) {
				t.Fatalf("ValidateSource = %v, want an error naming rank %d", verr, c.rank)
			}
			// The replay's error is the validator's: it failed before
			// simulating anything.
			if _, err := RunSource(spec, fold(traces)); err == nil || err.Error() != verr.Error() {
				t.Fatalf("RunSource error = %v, want the validation error %v", err, verr)
			}
		})
	}
}

func TestReplayDeterministic(t *testing.T) {
	mk := func() (Spec, []*trace.Trace) {
		spec := clusterSpec(t, 2)
		traces := []*trace.Trace{
			{Rank: 0, Of: 2, Records: []trace.Record{
				{Kind: trace.KindCompute, NS: 1e8},
				{Kind: trace.KindSend, Peer: 1, Bytes: 1e6},
				{Kind: trace.KindConv},
			}},
			{Rank: 1, Of: 2, Records: []trace.Record{
				{Kind: trace.KindRecv, Peer: 0, Bytes: 1e6},
				{Kind: trace.KindConv},
			}},
		}
		return spec, traces
	}
	s1, t1 := mk()
	r1, err := RunSource(s1, fold(t1))
	if err != nil {
		t.Fatal(err)
	}
	s2, t2 := mk()
	r2, err := RunSource(s2, fold(t2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.PredictedSeconds != r2.PredictedSeconds {
		t.Fatalf("nondeterministic replay: %v vs %v", r1.PredictedSeconds, r2.PredictedSeconds)
	}
}

func sessionTraces() trace.FoldedSource {
	return fold([]*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{
			{Kind: trace.KindCompute, NS: 1e8},
			{Kind: trace.KindSend, Peer: 1, Bytes: 1e6},
			{Kind: trace.KindConv},
		}},
		{Rank: 1, Of: 2, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: 0, Bytes: 1e6},
			{Kind: trace.KindConv},
		}},
	})
}

func TestSessionReuseBitIdentical(t *testing.T) {
	spec := clusterSpec(t, 2)
	fresh, err := RunSource(spec, sessionTraces())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := s.RunSource(spec, sessionTraces())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if *got != *fresh {
			t.Fatalf("run %d: session result %+v differs from fresh %+v", i, got, fresh)
		}
	}
}

func TestSessionVariesSpecPerRun(t *testing.T) {
	spec := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	// Same session, different scheme and deployment bytes per run.
	async := spec
	async.Scheme = p2psap.Asynchronous
	async.ScatterBytes = 125e6
	r1, err := s.RunSource(spec, sessionTraces())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunSource(async, sessionTraces())
	if err != nil {
		t.Fatal(err)
	}
	if r2.ScatterSeconds <= r1.ScatterSeconds {
		t.Fatalf("scatter bytes ignored on reuse: %v vs %v", r2.ScatterSeconds, r1.ScatterSeconds)
	}
	// And back: the first configuration still predicts the same time.
	r3, err := s.RunSource(spec, sessionTraces())
	if err != nil {
		t.Fatal(err)
	}
	if *r3 != *r1 {
		t.Fatalf("reused session drifted: %+v vs %+v", r3, r1)
	}
}

func TestSessionRejectsForeignPlatform(t *testing.T) {
	spec := clusterSpec(t, 2)
	other := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSource(other, sessionTraces()); err == nil {
		t.Fatal("session accepted a different platform")
	}
}

func TestSessionRecoversAfterError(t *testing.T) {
	spec := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	// Cyclic wait: counts are pairwise consistent (so validation
	// passes) but both ranks Recv before either Send — a stall.
	bad := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: 1, Bytes: 8},
			{Kind: trace.KindSend, Peer: 1, Bytes: 8},
		}},
		{Rank: 1, Of: 2, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: 0, Bytes: 8},
			{Kind: trace.KindSend, Peer: 0, Bytes: 8},
		}},
	}
	if _, err := s.RunSource(spec, fold(bad)); err == nil {
		t.Fatal("stalled replay reported no error")
	}
	fresh, err := RunSource(spec, sessionTraces())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunSource(spec, sessionTraces())
	if err != nil {
		t.Fatalf("session unusable after failed run: %v", err)
	}
	if *got != *fresh {
		t.Fatalf("post-error session result %+v differs from fresh %+v", got, fresh)
	}
}
