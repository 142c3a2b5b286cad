package replay

import (
	"testing"

	"repro/internal/trace"
)

// singleRunSource wraps a source, splitting every run of n identical
// records into n single-record ops — it forces the per-record slow
// path, giving the baseline the fast path must match bit for bit.
type singleRunSource struct{ src trace.Source }

func (s singleRunSource) Ranks() int { return s.src.Ranks() }

func (s singleRunSource) RankOps(rank int) []trace.Op { return splitRuns(s.src.RankOps(rank)) }

func splitRuns(ops []trace.Op) []trace.Op {
	var out []trace.Op
	for _, op := range ops {
		switch {
		case len(op.Body) > 0:
			out = append(out, trace.Op{Count: op.Count, Body: splitRuns(op.Body)})
		default:
			for i := 0; i < op.Count; i++ {
				out = append(out, trace.Lit(op.Rec))
			}
		}
	}
	return out
}

// foldedFixture builds a two-rank trace set dominated by long
// homogeneous compute runs (the fast-path shape), with communication
// mixed in so the ranks actually interact.
func foldedFixture() []*trace.Folded {
	mk := func(rank, peer int) *trace.Folded {
		return &trace.Folded{Rank: rank, Of: 2, Ops: []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1.5e6}},
			{Count: 10, Body: []trace.Op{
				{Count: 500, Rec: trace.Record{Kind: trace.KindCompute, NS: 12345.678}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 4096}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			}},
			{Count: 3, Rec: trace.Record{Kind: trace.KindCompute, NS: 7.25}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindBarrier}},
		}}
	}
	return []*trace.Folded{mk(0, 1), mk(1, 0)}
}

// TestFoldedReplayMatchesFlat: replaying the folded source (compute
// runs aggregated into single events via SleepUntil) must be
// bit-identical to the per-record baseline and to replaying the
// unfolded records, one literal op per record or re-folded.
func TestFoldedReplayMatchesFlat(t *testing.T) {
	folded := foldedFixture()
	spec := clusterSpec(t, 2)

	fast, err := RunSource(spec, trace.FoldedSource(folded))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunSource(spec, singleRunSource{trace.FoldedSource(folded)})
	if err != nil {
		t.Fatal(err)
	}
	if withoutWork(fast) != withoutWork(slow) {
		t.Fatalf("fast path diverged from per-record baseline:\nfast %+v\nslow %+v", fast, slow)
	}

	traces := make([]*trace.Trace, len(folded))
	lits := make(trace.FoldedSource, len(folded))
	for i, f := range folded {
		tr, err := f.Unfold()
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
		lits[i] = &trace.Folded{Rank: tr.Rank, Of: tr.Of}
		for _, r := range tr.Records {
			lits[i].Ops = append(lits[i].Ops, trace.Lit(r))
		}
	}
	for name, src := range map[string]trace.Source{"literal": lits, "refolded": fold(traces)} {
		flat, err := RunSource(spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if withoutWork(fast) != withoutWork(flat) {
			t.Fatalf("folded replay diverged from %s flat replay:\nfolded %+v\nflat %+v", name, fast, flat)
		}
	}
}

// withoutWork returns a copy of r with its kernel work counters
// cleared: they count how a replay executed (aggregated compute runs
// take fewer events), which differs between equivalent paths, while
// every other field must match bit for bit.
func withoutWork(r *Result) Result {
	c := *r
	c.KernelEvents, c.DirectResumes = 0, 0
	return c
}

// TestFoldedReplaySessionReuse: a session replaying the same folded
// source twice produces identical results (clock reset, and replay
// only reads the shared ops).
func TestFoldedReplaySessionReuse(t *testing.T) {
	folded := foldedFixture()
	spec := clusterSpec(t, 2)
	s, err := NewSession(spec.Platform)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.RunSource(spec, trace.FoldedSource(folded))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunSource(spec, trace.FoldedSource(folded))
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("session reuse diverged: %+v vs %+v", first, second)
	}
}

// TestRunSourceValidates: folded sources with mismatched counts are
// rejected before replay can deadlock.
func TestRunSourceValidates(t *testing.T) {
	bad := []*trace.Folded{
		{Rank: 0, Of: 2, Ops: []trace.Op{
			{Count: 3, Rec: trace.Record{Kind: trace.KindSend, Peer: 1, Bytes: 8}},
		}},
		{Rank: 1, Of: 2, Ops: []trace.Op{
			{Count: 2, Rec: trace.Record{Kind: trace.KindRecv, Peer: 0, Bytes: 8}},
		}},
	}
	spec := clusterSpec(t, 2)
	if _, err := RunSource(spec, trace.FoldedSource(bad)); err == nil {
		t.Fatal("unbalanced folded source replayed without error")
	}
}
