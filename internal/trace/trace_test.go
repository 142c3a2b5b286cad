package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	return &Trace{
		Rank: 1,
		Of:   3,
		Records: []Record{
			{Kind: KindCompute, NS: 1.5e6},
			{Kind: KindSend, Peer: 0, Bytes: 9600},
			{Kind: KindRecv, Peer: 2, Bytes: 9600},
			{Kind: KindConv},
			{Kind: KindBarrier},
		},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if got.Rank != want.Rank || got.Of != want.Of {
		t.Fatalf("header: %d/%d", got.Rank, got.Of)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d", len(got.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], want.Records[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"compute",     // arity
		"compute -5",  // negative
		"compute abc", // not a number
		"send 1",      // arity
		"send -1 100", // bad peer
		"send 1 -100", // bad size
		"frobnicate",  // unknown
		"recv x 100",  // bad peer
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse accepted %q", c)
		}
	}
}

func TestAggregates(t *testing.T) {
	tr := sample()
	if tr.TotalComputeNS() != 1.5e6 {
		t.Fatalf("compute = %v", tr.TotalComputeNS())
	}
	if tr.CountKind(KindSend) != 1 || tr.CountKind(KindConv) != 1 {
		t.Fatal("counts wrong")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindCompute, KindSend, KindRecv, KindConv, KindBarrier} {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if Kind(99).String() != "?" {
		t.Fatal("unknown kind named")
	}
}

func makePair(sendersToB int, bFromA int) []*Trace {
	t0 := &Trace{Rank: 0, Of: 2}
	for i := 0; i < sendersToB; i++ {
		t0.Records = append(t0.Records, Record{Kind: KindSend, Peer: 1, Bytes: 8})
	}
	t1 := &Trace{Rank: 1, Of: 2}
	for i := 0; i < bFromA; i++ {
		t1.Records = append(t1.Records, Record{Kind: KindRecv, Peer: 0, Bytes: 8})
	}
	return []*Trace{t0, t1}
}

// validateFlat checks a flat set the way the set loaders do: fold each
// rank's records, then validate the folded set.
func validateFlat(traces []*Trace) error {
	fs := make([]*Folded, len(traces))
	for i, t := range traces {
		fs[i] = Fold(t)
	}
	return ValidateFolded(fs)
}

func TestValidateMatchedPair(t *testing.T) {
	if err := validateFlat(makePair(3, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestValidateMismatch(t *testing.T) {
	if err := validateFlat(makePair(3, 2)); err == nil {
		t.Fatal("send/recv mismatch accepted")
	}
	if err := validateFlat(makePair(0, 1)); err == nil {
		t.Fatal("recv without send accepted")
	}
}

func TestValidateBadPeer(t *testing.T) {
	tr := []*Trace{
		{Rank: 0, Of: 1, Records: []Record{{Kind: KindSend, Peer: 5, Bytes: 1}}},
	}
	if err := validateFlat(tr); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
	self := []*Trace{
		{Rank: 0, Of: 1, Records: []Record{{Kind: KindSend, Peer: 0, Bytes: 1}}},
	}
	if err := validateFlat(self); err == nil {
		t.Fatal("self-send accepted")
	}
}

func TestValidateRankOrder(t *testing.T) {
	tr := []*Trace{{Rank: 1}, {Rank: 0}}
	if err := validateFlat(tr); err == nil {
		t.Fatal("wrong rank order accepted")
	}
}

func TestValidateConvCounts(t *testing.T) {
	tr := []*Trace{
		{Rank: 0, Records: []Record{{Kind: KindConv}, {Kind: KindConv}}},
		{Rank: 1, Records: []Record{{Kind: KindConv}}},
	}
	if err := validateFlat(tr); err == nil {
		t.Fatal("conv count mismatch accepted")
	}
	bar := []*Trace{
		{Rank: 0, Records: []Record{{Kind: KindBarrier}}},
		{Rank: 1, Records: nil},
	}
	if err := validateFlat(bar); err == nil {
		t.Fatal("barrier count mismatch accepted")
	}
}

// Property: write-parse round trip preserves arbitrary valid traces.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(kinds []uint8, seed int64) bool {
		tr := &Trace{Rank: 0, Of: 4}
		for i, k := range kinds {
			switch k % 5 {
			case 0:
				tr.Records = append(tr.Records, Record{Kind: KindCompute, NS: float64(i)*100 + 1})
			case 1:
				tr.Records = append(tr.Records, Record{Kind: KindSend, Peer: 1 + i%3, Bytes: float64(i + 1)})
			case 2:
				tr.Records = append(tr.Records, Record{Kind: KindRecv, Peer: 1 + i%3, Bytes: float64(i + 1)})
			case 3:
				tr.Records = append(tr.Records, Record{Kind: KindConv})
			case 4:
				tr.Records = append(tr.Records, Record{Kind: KindBarrier})
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil || len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range got.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
