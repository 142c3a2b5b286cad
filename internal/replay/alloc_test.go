package replay

import (
	"testing"

	"repro/internal/trace"
)

// ringFixture is an n-rank set whose loop of count rounds computes,
// exchanges 4 KB with both ring neighbours and ends in a convergence
// test, between a leading and a trailing compute.
func ringFixture(n, count int) trace.FoldedSource {
	fs := make([]*trace.Folded, n)
	for r := 0; r < n; r++ {
		left, right := (r+n-1)%n, (r+1)%n
		fs[r] = &trace.Folded{Rank: r, Of: n, Ops: []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1.5e6}},
			{Count: count, Body: []trace.Op{
				{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 2e6 + float64(r)*1.7e4}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: left, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: right, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: right, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: left, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e3}},
		}}
	}
	return trace.FoldedSource(fs)
}

// sessionRunAllocs is the allocation count of one warm Session.RunSource
// of ringFixture at 8 ranks, with scatter and gather. It is
// deterministic and independent of the round count: what remains is
// the per-run set-up (processes, workers, result), while every
// message, flow, activation and completion estimate reuses a pooled
// record or a callback bound once.
const sessionRunAllocs = 281

// TestSessionRunAllocs: a warm Session.RunSource allocates no more than
// sessionRunAllocs times, and simulating four times the rounds
// allocates nothing more.
func TestSessionRunAllocs(t *testing.T) {
	spec := clusterSpec(t, 8)
	spec.ScatterBytes, spec.GatherBytes = 1e5, 1e4
	allocs := func(rounds int) float64 {
		s, err := NewSession(spec.Platform)
		if err != nil {
			t.Fatal(err)
		}
		src := ringFixture(8, rounds)
		run := func() {
			if _, err := s.RunSource(spec, src); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools, queues and route cache
		return testing.AllocsPerRun(10, run)
	}
	short, long := allocs(10), allocs(40)
	t.Logf("allocs per run: %v at 10 rounds, %v at 40", short, long)
	if long != short {
		t.Fatalf("Session.RunSource allocates %v times at 40 rounds but %v at 10: allocation grows with simulated rounds", long, short)
	}
	if short > sessionRunAllocs {
		t.Fatalf("Session.RunSource allocates %v times per run, want <= %d", short, sessionRunAllocs)
	}
}
