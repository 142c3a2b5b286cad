package trace

import (
	"math/rand"
	"testing"
)

func compute(ns float64) Record       { return Record{Kind: KindCompute, NS: ns} }
func send(peer int, b float64) Record { return Record{Kind: KindSend, Peer: peer, Bytes: b} }
func recv(peer int, b float64) Record { return Record{Kind: KindRecv, Peer: peer, Bytes: b} }
func conv() Record                    { return Record{Kind: KindConv} }

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// iterTrace builds the canonical iterative-method shape: a warm-up
// segment, rounds identical iterations, and a tail.
func iterTrace(rounds int) *Trace {
	t := &Trace{Rank: 0, Of: 2}
	t.Records = append(t.Records, compute(5000))
	for i := 0; i < rounds; i++ {
		t.Records = append(t.Records, compute(1000), send(1, 64), recv(1, 64), conv())
	}
	t.Records = append(t.Records, compute(7))
	return t
}

func TestFoldUnfoldExact(t *testing.T) {
	cases := []*Trace{
		{Rank: 0, Of: 1},
		{Rank: 0, Of: 1, Records: []Record{compute(1)}},
		iterTrace(1),
		iterTrace(2),
		iterTrace(100),
		{Rank: 3, Of: 5, Records: []Record{
			compute(1), compute(1), compute(1), compute(1), // run-length
			send(0, 8), recv(0, 8),
			compute(2.5), compute(2.5),
		}},
	}
	for ci, tr := range cases {
		f := Fold(tr)
		back, err := f.Unfold()
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if back.Rank != tr.Rank || back.Of != tr.Of {
			t.Fatalf("case %d: labels %d/%d != %d/%d", ci, back.Rank, back.Of, tr.Rank, tr.Of)
		}
		recordsEqual(t, back.Records, tr.Records)
		if int64(len(tr.Records)) != f.NumRecords() {
			t.Fatalf("case %d: NumRecords %d != %d", ci, f.NumRecords(), len(tr.Records))
		}
	}
}

func TestFoldCompresses(t *testing.T) {
	tr := iterTrace(100)
	f := Fold(tr)
	if f.NumOps() >= len(tr.Records)/10 {
		t.Fatalf("fold did not compress: %d ops for %d records", f.NumOps(), len(tr.Records))
	}
}

// TestFoldRandomRoundTrip fuzzes the offline folder with pseudo-random
// record streams, including adversarial near-periodic ones.
func TestFoldRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(200)
		tr := &Trace{Rank: 0, Of: 4}
		for i := 0; i < n; i++ {
			// Small alphabets provoke accidental periodicity.
			switch rng.Intn(5) {
			case 0:
				tr.Records = append(tr.Records, compute(float64(rng.Intn(3))))
			case 1:
				tr.Records = append(tr.Records, send(rng.Intn(3), float64(rng.Intn(2)*8)))
			case 2:
				tr.Records = append(tr.Records, recv(rng.Intn(3), float64(rng.Intn(2)*8)))
			case 3:
				tr.Records = append(tr.Records, conv())
			case 4:
				tr.Records = append(tr.Records, Record{Kind: KindBarrier})
			}
		}
		f := Fold(tr)
		back, err := f.Unfold()
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, back.Records, tr.Records)
	}
}

// TestBuilderFoldsIterations drives the builder the way the
// interpreter does and checks both the fold and the exact unfold.
func TestBuilderFoldsIterations(t *testing.T) {
	b := NewBuilder(0, 2)
	b.Append(compute(5000)) // warm-up before the loop
	b.LoopEnter()
	for i := 0; i < 50; i++ {
		b.Append(compute(1000))
		b.Append(send(1, 64))
		b.Append(recv(1, 64))
		b.Append(conv())
		b.LoopIter()
	}
	b.LoopExit()
	b.Append(compute(7))
	f := b.Finish()

	want := &Trace{Rank: 0, Of: 2}
	want.Records = append(want.Records, compute(5000))
	for i := 0; i < 50; i++ {
		want.Records = append(want.Records, compute(1000), send(1, 64), recv(1, 64), conv())
	}
	want.Records = append(want.Records, compute(7))

	back, err := f.Unfold()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, back.Records, want.Records)
	// 50 identical iterations must fold to a handful of ops.
	if f.NumOps() > 8 {
		t.Fatalf("builder kept %d ops for 50 identical iterations", f.NumOps())
	}
}

// TestBuilderIrregularIterations: iterations that differ stay
// literal; runs of identical ones fold separately.
func TestBuilderIrregularIterations(t *testing.T) {
	b := NewBuilder(1, 2)
	var want []Record
	emit := func(r Record) {
		b.Append(r)
		want = append(want, r)
	}
	b.LoopEnter()
	for i := 0; i < 10; i++ {
		emit(compute(1))
		emit(conv())
		b.LoopIter()
	}
	for i := 0; i < 10; i++ {
		emit(compute(2)) // different pattern
		emit(conv())
		b.LoopIter()
	}
	emit(compute(3)) // partial tail iteration, no LoopIter
	b.LoopExit()
	f := b.Finish()
	back, err := f.Unfold()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, back.Records, want)
	if f.NumOps() > 8 {
		t.Fatalf("expected two repeats plus tail, got %d ops", f.NumOps())
	}
}

// TestBuilderEmptyIterations: loops whose iterations emit no records
// (compute-only loops are cut at comm events, not iteration
// boundaries) must contribute nothing.
func TestBuilderEmptyIterations(t *testing.T) {
	b := NewBuilder(0, 1)
	b.LoopEnter()
	for i := 0; i < 1000; i++ {
		b.LoopIter()
	}
	b.LoopExit()
	b.Append(compute(42))
	f := b.Finish()
	back, err := f.Unfold()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, back.Records, []Record{compute(42)})
}

// TestBuilderNestedLoops folds an outer loop whose iterations contain
// an inner folded loop.
func TestBuilderNestedLoops(t *testing.T) {
	b := NewBuilder(0, 2)
	var want []Record
	emit := func(r Record) {
		b.Append(r)
		want = append(want, r)
	}
	b.LoopEnter() // outer
	for o := 0; o < 6; o++ {
		b.LoopEnter() // inner
		for i := 0; i < 20; i++ {
			emit(send(1, 8))
			emit(recv(1, 8))
			b.LoopIter()
		}
		b.LoopExit()
		emit(conv())
		b.LoopIter()
	}
	b.LoopExit()
	f := b.Finish()
	back, err := f.Unfold()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, back.Records, want)
	if f.NumOps() > 8 {
		t.Fatalf("nested fold kept %d ops", f.NumOps())
	}
	if n := int64(len(want)); f.NumRecords() != n {
		t.Fatalf("NumRecords %d != %d", f.NumRecords(), n)
	}
}

// TestBuilderUnbalancedExit: Finish unwinds loops left open by an
// early return.
func TestBuilderUnbalancedExit(t *testing.T) {
	b := NewBuilder(0, 1)
	b.LoopEnter()
	b.Append(compute(1))
	b.LoopIter()
	b.Append(compute(1)) // mid-iteration exit
	f := b.Finish()
	back, err := f.Unfold()
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, back.Records, []Record{compute(1), compute(1)})
}

func TestUnfoldRefusesAbsurdCounts(t *testing.T) {
	f := &Folded{Rank: 0, Of: 1, Ops: []Op{
		{Count: 1 << 20, Body: []Op{{Count: 1 << 20, Rec: compute(1)}}},
	}}
	if _, err := f.Unfold(); err == nil {
		t.Fatal("unfolded 2^40 records without error")
	}
}

func TestValidateFolded(t *testing.T) {
	mk := func() []*Folded {
		t0 := &Trace{Rank: 0, Of: 2, Records: []Record{send(1, 8), conv()}}
		t1 := &Trace{Rank: 1, Of: 2, Records: []Record{recv(0, 8), conv()}}
		return []*Folded{Fold(t0), Fold(t1)}
	}
	if err := ValidateFolded(mk()); err != nil {
		t.Fatal(err)
	}
	// Mismatched counts inside a repeat must be caught structurally.
	bad := mk()
	bad[0].Ops = []Op{{Count: 3, Rec: send(1, 8)}, {Count: 1, Rec: conv()}}
	if err := ValidateFolded(bad); err == nil {
		t.Fatal("unbalanced folded sends passed validation")
	}
	// Of disagreement.
	bad = mk()
	bad[1].Of = 4
	if err := ValidateFolded(bad); err == nil {
		t.Fatal("of mismatch passed validation")
	}
	// Absurd implied record counts must fail fast, not hang.
	huge := mk()
	huge[0].Ops = []Op{{Count: 1 << 30, Body: []Op{{Count: 1 << 30, Rec: conv()}}}}
	if err := ValidateFolded(huge); err == nil {
		t.Fatal("2^60 implied records passed validation")
	}
}

func TestValidateOfConsistency(t *testing.T) {
	t0 := &Trace{Rank: 0, Of: 2, Records: []Record{conv()}}
	t1 := &Trace{Rank: 1, Of: 3, Records: []Record{conv()}}
	if err := validateFlat([]*Trace{t0, t1}); err == nil {
		t.Fatal("of mismatch passed validation")
	}
}
