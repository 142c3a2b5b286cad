package trace

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	cases := []*Folded{
		{Rank: 0, Of: 1},
		{Rank: 2, Of: 4, Ops: []Op{
			{Count: 1, Rec: compute(7.65613645e+07)},
			{Count: 3, Rec: compute(2.6666666666666665)},
			{Count: 119, Body: []Op{
				{Count: 1, Rec: compute(1000)},
				{Count: 1, Rec: send(1, 9600)},
				{Count: 1, Rec: recv(1, 9600)},
				{Count: 1, Rec: conv()},
			}},
			{Count: 1, Rec: Record{Kind: KindBarrier}},
		}},
		Fold(iterTrace(57)),
	}
	for ci, f := range cases {
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if got.Rank != f.Rank || got.Of != f.Of {
			t.Fatalf("case %d: labels %d/%d", ci, got.Rank, got.Of)
		}
		if !opsEqual(got.Ops, f.Ops) {
			t.Fatalf("case %d: ops diverged:\n got %+v\nwant %+v", ci, got.Ops, f.Ops)
		}
		// Byte stability: re-encoding the decoded trace is identical.
		var buf2 bytes.Buffer
		if err := got.WriteBinary(&buf2); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("case %d: re-encoding changed bytes", ci)
		}
	}
}

// TestBinaryFloatEncoding covers both float arms: integral values
// (compact) and fractional/edge values (raw IEEE), exactly.
func TestBinaryFloatEncoding(t *testing.T) {
	values := []float64{0, 1, 2, 9600, 1 << 40, 0.5, 2.6666666666666665, 7.656138716666666e+07, 1e300}
	for _, v := range values {
		f := &Folded{Rank: 0, Of: 1, Ops: []Op{{Count: 1, Rec: compute(v)}}}
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ops[0].Rec.NS != v {
			t.Fatalf("float %v decoded as %v", v, got.Ops[0].Rec.NS)
		}
	}
}

// TestWriterMergesRuns: streaming identical records through the
// writer produces run-length output.
func TestWriterMergesRuns(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := w.WriteRecord(compute(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 32 {
		t.Fatalf("1000 identical records encoded to %d bytes", buf.Len())
	}
	f, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRecords() != 1000 {
		t.Fatalf("NumRecords = %d", f.NumRecords())
	}
}

// TestReaderStreams: ReadOp yields ops one at a time and terminates
// with io.EOF exactly at the end marker.
func TestReaderStreams(t *testing.T) {
	f := Fold(iterTrace(10))
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.ReadOp()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(f.Ops) {
		t.Fatalf("streamed %d ops, want %d", n, len(f.Ops))
	}
	if _, err := r.ReadOp(); err != io.EOF {
		t.Fatalf("ReadOp after EOF = %v", err)
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := Fold(iterTrace(3)).WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty":            {},
		"short magic":      []byte("dp"),
		"wrong magic":      []byte("nope" + string(valid[4:])),
		"truncated":        valid[:len(valid)-3],
		"trailing garbage": append(append([]byte{}, valid...), 0xFF),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

func TestWriteTextStreamsFolded(t *testing.T) {
	tr := iterTrace(25)
	f := Fold(tr)
	var flat, folded strings.Builder
	if err := tr.Write(&flat); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&folded, f.Rank, f.Of, f.Ops); err != nil {
		t.Fatal(err)
	}
	if flat.String() != folded.String() {
		t.Fatal("folded text rendering diverged from flat")
	}
}

func TestDirFoldedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t0 := &Trace{Rank: 0, Of: 2, Records: []Record{compute(10), send(1, 8), conv()}}
	t1 := &Trace{Rank: 1, Of: 2, Records: []Record{recv(0, 8), conv()}}
	if err := WriteAllFolded(dir, []*Folded{Fold(t0), Fold(t1)}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAllFolded(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		back, err := f.Unfold()
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, back.Records, []*Trace{t0, t1}[i].Records)
	}
}

func TestLoadAllFoldedHeaderConsistency(t *testing.T) {
	writeFile := func(dir, name, content string) {
		t.Helper()
		if err := writeRankFileHelper(dir+"/"+name, content); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("missing rank", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(dir, "rank-0.trace", "# dperf trace rank=0 of=3\nconv\n")
		writeFile(dir, "rank-2.trace", "# dperf trace rank=2 of=3\nconv\n")
		if _, err := LoadAllFolded(dir); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate rank", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(dir, "rank-0.trace", "# dperf trace rank=0 of=2\nconv\n")
		writeFile(dir, "rank-1.trace", "# dperf trace rank=1 of=2\nconv\n")
		writeFile(dir, "rank-01.trace", "# dperf trace rank=1 of=2\nconv\n")
		if _, err := LoadAllFolded(dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("of disagreement", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(dir, "rank-0.trace", "# dperf trace rank=0 of=2\nconv\n")
		writeFile(dir, "rank-1.trace", "# dperf trace rank=1 of=4\nconv\n")
		if _, err := LoadAllFolded(dir); err == nil || !strings.Contains(err.Error(), "total ranks") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("wrong rank claim", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(dir, "rank-0.trace", "# dperf trace rank=1 of=2\nconv\n")
		writeFile(dir, "rank-1.trace", "# dperf trace rank=1 of=2\nconv\n")
		if _, err := LoadAllFolded(dir); err == nil {
			t.Fatal("wrong rank claim passed")
		}
	})
	// Trace directories hold text files only: a binary rank file among
	// them is refused, naming the file.
	t.Run("mixed text and binary", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(dir, "rank-0.trace", "# dperf trace rank=0 of=2\nsend 1 8\nconv\n")
		var buf bytes.Buffer
		f1 := Fold(&Trace{Rank: 1, Of: 2, Records: []Record{recv(0, 8), conv()}})
		if err := f1.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		writeFile(dir, "rank-1.trace", buf.String())
		if _, err := LoadAllFolded(dir); err == nil || !strings.Contains(err.Error(), "rank-1.trace") {
			t.Fatalf("err = %v, want a parse error naming rank-1.trace", err)
		}
	})
}

func writeRankFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
