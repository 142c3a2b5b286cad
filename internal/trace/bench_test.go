package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// benchTrace is the canonical iterative shape at a realistic round
// count (the obstacle workload runs 120 rounds).
func benchTrace() *Trace { return iterTrace(120) }

func BenchmarkFold(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	var f *Folded
	for i := 0; i < b.N; i++ {
		f = Fold(tr)
	}
	b.ReportMetric(float64(len(tr.Records))/float64(f.NumOps()), "fold-ratio")
}

func BenchmarkUnfold(b *testing.B) {
	f := Fold(benchTrace())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Unfold(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeText(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
		n = int64(buf.Len())
	}
	reportPerRecord(b, tr, n)
}

func BenchmarkEncodeJSON(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(tr); err != nil {
			b.Fatal(err)
		}
		n = int64(buf.Len())
	}
	reportPerRecord(b, tr, n)
}

func BenchmarkEncodeBinaryFolded(b *testing.B) {
	tr := benchTrace()
	f := Fold(tr)
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		n = int64(buf.Len())
	}
	reportPerRecord(b, tr, n)
}

func BenchmarkDecodeText(b *testing.B) {
	var buf bytes.Buffer
	if err := benchTrace().Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(benchTrace()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tr Trace
		if err := json.Unmarshal(data, &tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinaryFolded(b *testing.B) {
	var buf bytes.Buffer
	if err := Fold(benchTrace()).WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func reportPerRecord(b *testing.B, tr *Trace, bytes int64) {
	b.Helper()
	b.ReportMetric(float64(bytes)/float64(len(tr.Records)), "bytes/record")
}

// Guard: benchmarks must stay correct, not just fast.
func TestBenchFixturesRoundTrip(t *testing.T) {
	tr := benchTrace()
	f := Fold(tr)
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(io.LimitReader(&buf, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != int64(len(tr.Records)) {
		t.Fatalf("bench fixture: %d records, want %d", got.NumRecords(), len(tr.Records))
	}
}
