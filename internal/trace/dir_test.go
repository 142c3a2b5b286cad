package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pairTraces() []*Trace {
	return []*Trace{
		{Rank: 0, Of: 2, Records: []Record{
			{Kind: KindCompute, NS: 100},
			{Kind: KindSend, Peer: 1, Bytes: 64},
			{Kind: KindConv},
		}},
		{Rank: 1, Of: 2, Records: []Record{
			{Kind: KindRecv, Peer: 0, Bytes: 64},
			{Kind: KindConv},
		}},
	}
}

// TestWriteAllLoadAll: a directory holds one text file per rank, and
// it loads back to the same records.
func TestWriteAllLoadAll(t *testing.T) {
	dir := t.TempDir()
	if err := WriteAllFolded(dir, foldAll(pairTraces())); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		data, err := os.ReadFile(rankFile(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("# dperf trace rank=%d of=2\n", i); !strings.HasPrefix(string(data), want) {
			t.Fatalf("rank %d file starts %q, want the text header %q", i, data[:min(len(data), len(want))], want)
		}
	}
	got, err := LoadAllFolded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d traces", len(got))
	}
	for i, f := range got {
		back, err := f.Unfold()
		if err != nil {
			t.Fatal(err)
		}
		recordsEqual(t, back.Records, pairTraces()[i].Records)
	}
}

func foldAll(traces []*Trace) []*Folded {
	fs := make([]*Folded, len(traces))
	for i, t := range traces {
		fs[i] = Fold(t)
	}
	return fs
}

func TestWriteAllRejectsMisordered(t *testing.T) {
	fs := foldAll(pairTraces())
	fs[0], fs[1] = fs[1], fs[0]
	if err := WriteAllFolded(t.TempDir(), fs); err == nil {
		t.Fatal("misordered ranks accepted")
	}
}

func TestLoadAllEmptyDir(t *testing.T) {
	if _, err := LoadAllFolded(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestLoadAllValidates(t *testing.T) {
	dir := t.TempDir()
	// Write a rank-0 that sends with no matching recv in rank-1.
	bad := []*Trace{
		{Rank: 0, Of: 2, Records: []Record{{Kind: KindSend, Peer: 1, Bytes: 8}}},
		{Rank: 1, Of: 2},
	}
	if err := WriteAllFolded(dir, foldAll(bad)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAllFolded(dir); err == nil {
		t.Fatal("inconsistent trace set accepted")
	}
}

func TestLoadAllBadFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "rank-0.trace"), []byte("garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAllFolded(dir); err == nil {
		t.Fatal("garbage trace accepted")
	}
}
