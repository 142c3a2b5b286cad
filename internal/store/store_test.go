package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

var (
	fixtureOnce sync.Once
	fixtureBin  []byte
	fixtureJSON []byte
	fixtureErr  error
)

// fixture returns one small trace set serialized in both formats.
func fixture(t *testing.T) (bin, js []byte) {
	t.Helper()
	fixtureOnce.Do(func() {
		w := dperf.ObstacleWorkload{N: 128, Rounds: 4, Sweeps: 2, BenchN: 16}
		a, err := dperf.New(w).Analyze()
		if err != nil {
			fixtureErr = err
			return
		}
		ts, err := a.Traces(dperf.WithRanks(2))
		if err != nil {
			fixtureErr = err
			return
		}
		var b bytes.Buffer
		if fixtureErr = ts.WriteBinary(&b); fixtureErr != nil {
			return
		}
		fixtureBin = b.Bytes()
		var j bytes.Buffer
		if fixtureErr = ts.WriteJSON(&j); fixtureErr != nil {
			return
		}
		fixtureJSON = j.Bytes()
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureBin, fixtureJSON
}

func TestPutGetRoundtrip(t *testing.T) {
	bin, js := fixture(t)
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	e, created, err := s.Put(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported an existing entry")
	}
	if e.Digest != Digest(bin) {
		t.Fatalf("digest %s, want %s", e.Digest, Digest(bin))
	}
	if e.Size != int64(len(bin)) {
		t.Fatalf("size %d, want %d", e.Size, len(bin))
	}
	if e.Set == nil || e.Set.Ranks != 2 || e.Stats == nil || e.Stats.Ranks != 2 {
		t.Fatalf("entry not fully admitted: %+v", e)
	}

	again, created, err := s.Put(bin)
	if err != nil {
		t.Fatal(err)
	}
	if created || again != e {
		t.Fatal("re-upload did not dedupe to the existing entry")
	}

	// The JSON serialization of the same set is different bytes, hence
	// a distinct artifact.
	ej, created, err := s.Put(js)
	if err != nil {
		t.Fatal(err)
	}
	if !created || ej.Digest == e.Digest {
		t.Fatal("JSON artifact did not get its own entry")
	}

	if got, ok := s.Get(e.Digest); !ok || got != e {
		t.Fatal("Get lost the entry")
	}
	if _, ok := s.Get(strings.Repeat("0", 64)); ok {
		t.Fatal("Get invented an entry")
	}
	if s.Len() != 2 {
		t.Fatalf("Len %d, want 2", s.Len())
	}
	list := s.List()
	if len(list) != 2 || list[0].Digest >= list[1].Digest {
		t.Fatalf("List not sorted by digest: %v", list)
	}
}

func TestPersistReopen(t *testing.T) {
	bin, _ := fixture(t)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.Put(bin)
	if err != nil {
		t.Fatal(err)
	}
	ondisk, err := os.ReadFile(filepath.Join(dir, e.Digest))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ondisk, bin) {
		t.Fatal("persisted artifact differs from the uploaded bytes")
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2, ok := s2.Get(e.Digest)
	if !ok {
		t.Fatal("reopened store lost the entry")
	}
	// Stats are recomputed from identical bytes, so they must agree
	// exactly — the determinism contract extends to admission.
	if e2.Stats.Records != e.Stats.Records || e2.Stats.Ops != e.Stats.Ops ||
		e2.Stats.BinaryBytes != e.Stats.BinaryBytes || e2.Stats.TemplateBytes != e.Stats.TemplateBytes {
		t.Fatalf("reopened stats diverged: %+v vs %+v", e2.Stats, e.Stats)
	}
}

func TestOpenRejectsCorrupt(t *testing.T) {
	bin, _ := fixture(t)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.Put(bin)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, e.Digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupted artifact not rejected: %v", err)
	}
}

func TestPutHostile(t *testing.T) {
	bin, _ := fixture(t)
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}

	garbage := []byte("not a trace set at all")
	if _, _, err := s.Put(garbage); err == nil ||
		!strings.Contains(err.Error(), "traceset "+Digest(garbage)[:12]) {
		t.Fatalf("garbage admission error lacks the artifact label: %v", err)
	}

	truncated := bin[:len(bin)/2]
	_, _, err = s.Put(truncated)
	if err == nil {
		t.Fatal("truncated artifact admitted")
	}
	if !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("truncated admission error lacks the byte offset: %v", err)
	}
	if !strings.Contains(err.Error(), "traceset "+Digest(truncated)[:12]) {
		t.Fatalf("truncated admission error lacks the artifact label: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed admissions left %d entries", s.Len())
	}
}

// loopArtifact is a two-rank v1 binary container whose ranks each run
// one loop of iters iterations of {compute, barrier}: a few dozen
// bytes that unfold to 2*iters records per rank.
func loopArtifact(t *testing.T, iters int) []byte {
	t.Helper()
	b := []byte("dpts")
	b = binary.AppendUvarint(b, 1) // per-rank container
	b = binary.AppendUvarint(b, 0) // no workload name
	b = binary.AppendUvarint(b, 2) // ranks
	b = binary.AppendUvarint(b, 0) // level O0
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	for rank := 0; rank < 2; rank++ {
		f := &trace.Folded{Rank: rank, Of: 2, Ops: []trace.Op{{Count: iters, Body: []trace.Op{
			trace.Lit(trace.Record{Kind: trace.KindCompute, NS: 1000}),
			trace.Lit(trace.Record{Kind: trace.KindBarrier}),
		}}}}
		var blob bytes.Buffer
		if err := f.WriteBinary(&blob); err != nil {
			t.Fatal(err)
		}
		b = binary.AppendUvarint(b, uint64(blob.Len()))
		b = append(b, blob.Bytes()...)
	}
	return b
}

// TestPutFoldedLoopBoundedMemory: admitting a tiny artifact that claims
// 2^20 records per rank costs memory in its folded size, not its
// unfolded one — every format is sized without unfolding.
func TestPutFoldedLoopBoundedMemory(t *testing.T) {
	const iters = 1 << 19
	data := loopArtifact(t, iters)
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, _, err := s.Put(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("admitting a %d-byte artifact allocated %d MB", len(data), alloc>>20)
	}
	st := e.Stats
	if st.Records != 2*2*iters {
		t.Fatalf("admission miscounted the set: %d records", st.Records)
	}
	perRank := int64(len("# dperf trace rank=0 of=2\n")) + iters*int64(len("compute 1000\n")+len("barrier\n"))
	if st.TextBytes != 2*perRank || st.JSONBytes <= st.TextBytes {
		t.Fatalf("sizes text %d B (want %d), JSON %d B", st.TextBytes, 2*perRank, st.JSONBytes)
	}
}
