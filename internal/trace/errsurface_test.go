package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// errSurface is the regression suite for swallowed write errors: every
// serialization entry point must report a failing underlying writer at
// every possible cut point, never return nil over a truncated
// container. (The errclose analyzer enforces the same contract
// statically at call sites; this checks the writers themselves.)

var errDiskFull = errors.New("synthetic write failure")

// cutWriter accepts n bytes, then fails every subsequent Write.
type cutWriter struct {
	n       int
	written int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		k := w.n - w.written
		if k < 0 {
			k = 0
		}
		w.written += k
		return k, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// checkCuts serializes once to learn the full length, then replays the
// serialization against a writer that fails at every cut point in
// turn. Each run must surface an error.
func checkCuts(t *testing.T, name string, write func(w *cutWriter) error) {
	t.Helper()
	full := &cutWriter{n: 1 << 30}
	if err := write(full); err != nil {
		t.Fatalf("%s: clean write failed: %v", name, err)
	}
	if full.written == 0 {
		t.Fatalf("%s: clean write produced no bytes", name)
	}
	for cut := 0; cut < full.written; cut++ {
		err := write(&cutWriter{n: cut})
		if err == nil {
			t.Fatalf("%s: write error at byte %d of %d was swallowed", name, cut, full.written)
		}
		if !errors.Is(err, errDiskFull) && !strings.Contains(err.Error(), errDiskFull.Error()) {
			t.Fatalf("%s: cut at byte %d surfaced the wrong error: %v", name, cut, err)
		}
	}
}

func errSurfaceFolded() *Folded {
	return &Folded{Rank: 1, Of: 2, Ops: []Op{
		{Count: 1, Rec: compute(1000)},
		{Count: 7, Body: []Op{
			{Count: 1, Rec: send(0, 9600)},
			{Count: 1, Rec: recv(0, 9600)},
			{Count: 2, Rec: compute(2.5)},
		}},
		{Count: 1, Rec: Record{Kind: KindBarrier}},
	}}
}

func TestWriteBinarySurfacesWriteErrors(t *testing.T) {
	f := errSurfaceFolded()
	checkCuts(t, "Folded.WriteBinary", func(w *cutWriter) error {
		return f.WriteBinary(w)
	})
}

func TestStreamingWriterSurfacesWriteErrors(t *testing.T) {
	f := errSurfaceFolded()
	checkCuts(t, "Writer.WriteOp/Close", func(w *cutWriter) error {
		bw, err := NewWriter(w, f.Rank, f.Of)
		if err != nil {
			return err
		}
		for _, op := range f.Ops {
			if err := bw.WriteOp(op); err != nil {
				return err
			}
		}
		return bw.Close()
	})
}

func TestWriteTextSurfacesWriteErrors(t *testing.T) {
	f := errSurfaceFolded()
	checkCuts(t, "WriteText", func(w *cutWriter) error {
		return WriteText(w, f.Rank, f.Of, f.Ops)
	})
}

func TestWriteTemplateSurfacesWriteErrors(t *testing.T) {
	fs := []*Folded{errSurfaceFolded(), errSurfaceFolded()}
	fs[0] = &Folded{Rank: 0, Of: 2, Ops: []Op{
		{Count: 1, Rec: compute(500)},
		{Count: 7, Body: []Op{
			{Count: 1, Rec: recv(1, 9600)},
			{Count: 1, Rec: send(1, 9600)},
			{Count: 2, Rec: compute(5)},
		}},
		{Count: 1, Rec: Record{Kind: KindBarrier}},
	}}
	tpl, err := Factor(fs)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	checkCuts(t, "Template.WriteTemplate", func(w *cutWriter) error {
		return tpl.WriteTemplate(w)
	})
}

// A short write with a nil error is a protocol violation by the
// underlying writer; bufio turns it into io.ErrShortWrite. Make sure
// that path surfaces too instead of closing clean.
func TestCloseSurfacesShortWrite(t *testing.T) {
	var buf bytes.Buffer
	sw := shortWriter{&buf}
	bw, err := NewWriter(sw, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteRecord(compute(1)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err == nil {
		t.Fatal("Close swallowed a short write")
	}
}

type shortWriter struct{ w *bytes.Buffer }

func (s shortWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, _ := s.w.Write(p[:len(p)/2])
	return n, nil
}
