package replay

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// timings strips the fast-forward stats from a Result so two replays
// can be compared on their predicted times alone (the stats are the
// one field that legitimately differs between FFVerify and FFOn).
func timings(r *Result) [4]float64 {
	return [4]float64{r.PredictedSeconds, r.ScatterSeconds, r.ComputeSeconds, r.GatherSeconds}
}

// steadyFixture is a two-rank set whose single Repeat loop settles
// into a steady state: a long leading compute, a ghost exchange and a
// convergence test per round.
func steadyFixture(count int) []*trace.Folded {
	mk := func(rank, peer int) *trace.Folded {
		return &trace.Folded{Rank: rank, Of: 2, Ops: []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 2.5e6}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			{Count: count, Body: []trace.Op{
				{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 2e6}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e3}},
		}}
	}
	return []*trace.Folded{mk(0, 1), mk(1, 0)}
}

func runMode(t *testing.T, spec Spec, src trace.Source, mode FFMode) *Result {
	t.Helper()
	spec.FastForward = mode
	res, err := RunSource(spec, src)
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	return res
}

// TestFastForwardBitIdentical: skipping steady-state rounds must
// reproduce the rebased per-iteration path bit for bit, and must
// actually skip something on a steady fixture.
func TestFastForwardBitIdentical(t *testing.T) {
	src := trace.FoldedSource(steadyFixture(40))
	spec := clusterSpec(t, 2)

	verify := runMode(t, spec, src, FFVerify)
	on := runMode(t, spec, src, FFOn)
	if timings(verify) != timings(on) {
		t.Fatalf("fast-forward diverged from per-iteration path:\nverify %+v\non     %+v", verify, on)
	}
	if on.FF.RoundsFastForwarded == 0 || on.FF.Jumps == 0 {
		t.Fatalf("steady fixture did not fast-forward: %+v", on.FF)
	}
	if verify.FF.RoundsFastForwarded != 0 || verify.FF.RoundsSimulated != 40 {
		t.Fatalf("verify mode must simulate every round: %+v", verify.FF)
	}
	if got := on.FF.RoundsSimulated + on.FF.RoundsFastForwarded; got != 40 {
		t.Fatalf("rounds accounted %d, want 40 (%+v)", got, on.FF)
	}

	// The epoch-rebased modes agree with the legacy absolute-clock
	// path up to float64 rounding noise.
	off := runMode(t, spec, src, FFOff)
	rel := (on.PredictedSeconds - off.PredictedSeconds) / off.PredictedSeconds
	if rel < -1e-9 || rel > 1e-9 {
		t.Fatalf("fast-forward drifted from legacy replay: %v vs %v (rel %g)",
			on.PredictedSeconds, off.PredictedSeconds, rel)
	}
}

// TestFastForwardFallback: perturbed iterations — a changed compute
// record, an extra message, cross-traffic from uncoupled ranks — must
// replay bit-identically with fast-forward enabled, falling back to
// full simulation wherever the steady state breaks.
func TestFastForwardFallback(t *testing.T) {
	round := func(peer int, computeNS float64) []trace.Op {
		return []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: computeNS}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 4096}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 4096}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
		}
	}
	pair := func(ops func(rank, peer int) []trace.Op) []*trace.Folded {
		return []*trace.Folded{
			{Rank: 0, Of: 2, Ops: ops(0, 1)},
			{Rank: 1, Of: 2, Ops: ops(1, 0)},
		}
	}

	cases := []struct {
		name string
		src  trace.Source
		// ranks for the spec; 0 means 2.
		ranks int
		// wantSkips: -1 = don't care, otherwise exact.
		wantSkips int64
	}{
		{
			// Iteration N+1 perturbs the compute record: the loop
			// folds into two managed Repeats around a literal round.
			name: "perturbed-compute-round",
			src: trace.FoldedSource(pair(func(rank, peer int) []trace.Op {
				var ops []trace.Op
				ops = append(ops, trace.Op{Count: 12, Body: round(peer, 2e6)})
				ops = append(ops, round(peer, 3.7e6)...)
				ops = append(ops, trace.Op{Count: 12, Body: round(peer, 2e6)})
				return ops
			})),
			wantSkips: -1,
		},
		{
			// Iteration N+1 injects an extra message exchange.
			name: "extra-message-round",
			src: trace.FoldedSource(pair(func(rank, peer int) []trace.Op {
				var ops []trace.Op
				ops = append(ops, trace.Op{Count: 10, Body: round(peer, 2e6)})
				extra := round(peer, 2e6)
				extra = append(extra[:1], append([]trace.Op{
					{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 128}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 128}},
				}, extra[1:]...)...)
				ops = append(ops, extra...)
				ops = append(ops, trace.Op{Count: 10, Body: round(peer, 2e6)})
				return ops
			})),
			wantSkips: -1,
		},
		{
			// Fully heterogeneous compute: nothing folds, nothing to
			// manage — the engine must stay disengaged.
			name: "heterogeneous-rounds",
			src: trace.FoldedSource(pair(func(rank, peer int) []trace.Op {
				var ops []trace.Op
				for i := 0; i < 8; i++ {
					ops = append(ops, round(peer, 2e6+float64(i)*1e5)...)
				}
				return ops
			})),
			wantSkips: 0,
		},
		{
			// Contention shift: ranks 2/3 run an uncoupled exchange
			// loop (no collective) whose flows cross the managed
			// loop's boundaries, so no clean snapshot ever exists —
			// the conv in ranks 0/1's loop is global, keeping all
			// four ranks's conv counts aligned.
			name:  "cross-traffic",
			ranks: 4,
			src: trace.FoldedSource([]*trace.Folded{
				{Rank: 0, Of: 4, Ops: []trace.Op{{Count: 16, Body: round(1, 2e6)}}},
				{Rank: 1, Of: 4, Ops: []trace.Op{{Count: 16, Body: round(0, 2e6)}}},
				{Rank: 2, Of: 4, Ops: []trace.Op{{Count: 16, Body: []trace.Op{
					{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1.1e6}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: 3, Bytes: 65536}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: 3, Bytes: 65536}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
				}}}},
				{Rank: 3, Of: 4, Ops: []trace.Op{{Count: 16, Body: []trace.Op{
					{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 0.9e6}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: 2, Bytes: 65536}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: 2, Bytes: 65536}},
					{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
				}}}},
			}),
			wantSkips: -1,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ranks := tc.ranks
			if ranks == 0 {
				ranks = 2
			}
			spec := clusterSpec(t, ranks)
			verify := runMode(t, spec, tc.src, FFVerify)
			on := runMode(t, spec, tc.src, FFOn)
			if timings(verify) != timings(on) {
				t.Fatalf("fast-forward diverged:\nverify %+v\non     %+v", verify, on)
			}
			if tc.wantSkips >= 0 && on.FF.RoundsFastForwarded != tc.wantSkips {
				t.Fatalf("RoundsFastForwarded = %d, want %d (%+v)",
					on.FF.RoundsFastForwarded, tc.wantSkips, on.FF)
			}
			off := runMode(t, spec, tc.src, FFOff)
			rel := (on.PredictedSeconds - off.PredictedSeconds) / off.PredictedSeconds
			if rel < -1e-9 || rel > 1e-9 {
				t.Fatalf("drifted from legacy replay: rel %g", rel)
			}
		})
	}
}

// TestFastForwardSessionReuse: fast-forwarded replays on a reused
// session stay bit-identical run over run (epoch base reset included).
func TestFastForwardSessionReuse(t *testing.T) {
	src := trace.FoldedSource(steadyFixture(40))
	spec := clusterSpec(t, 2)
	spec.FastForward = FFOn
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.RunSource(spec, src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunSource(spec, src)
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("session reuse diverged: %+v vs %+v", first, second)
	}
}

// TestFailedRunReapsProcessGoroutines: a deadlocked replay must not
// leak its parked worker goroutines, and the session must recover for
// the next run. (The cross-rank validator checks message counts, not
// ordering, so a recv-before-send cycle passes validation and stalls
// at runtime — exactly the leak surface this guards.)
func TestFailedRunReapsProcessGoroutines(t *testing.T) {
	deadlocked := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: 1, Bytes: 64},
			{Kind: trace.KindSend, Peer: 1, Bytes: 64},
		}},
		{Rank: 1, Of: 2, Records: []trace.Record{
			{Kind: trace.KindRecv, Peer: 0, Bytes: 64},
			{Kind: trace.KindSend, Peer: 0, Bytes: 64},
		}},
	}
	spec := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := s.RunSource(spec, fold(deadlocked)); err == nil {
			t.Fatal("deadlocked replay succeeded")
		}
	}
	// Each parked process holds a goroutine until Shutdown unwinds it;
	// give the runtime a moment before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 5 failed replays",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The session rebuilds a clean environment for the next run.
	good := []*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e6}}},
		{Rank: 1, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e6}}},
	}
	if _, err := s.RunSource(spec, fold(good)); err != nil {
		t.Fatalf("session did not recover after failed runs: %v", err)
	}
}
