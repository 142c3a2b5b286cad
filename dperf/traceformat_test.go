package dperf_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

// levelsUnderTest covers the paper's optimization sweep O0–O3.
var levelsUnderTest = []dperf.Level{dperf.O0, dperf.O1, dperf.O2, dperf.O3}

func predictFingerprint(t *testing.T, ts *dperf.TraceSet) [4]float64 {
	t.Helper()
	pred, err := ts.Predict(dperf.WithPlatform(dperf.KindCluster))
	if err != nil {
		t.Fatal(err)
	}
	return [4]float64{pred.Predicted, pred.Scatter, pred.Compute, pred.Gather}
}

// TestGoldenFormatsRoundTrip is the cross-format golden: for the
// obstacle workload at every level O0–O3, the JSON, binary and text
// codecs must round-trip byte-stably, folded and flat views must hold
// identical records, and predictions must be bit-identical no matter
// which representation replay consumes.
func TestGoldenFormatsRoundTrip(t *testing.T) {
	for _, level := range levelsUnderTest {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			a, err := dperf.New(smallObstacle(), dperf.WithRanks(3), dperf.WithLevel(level)).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			ts, err := a.Traces()
			if err != nil {
				t.Fatal(err)
			}
			want := predictFingerprint(t, ts)

			// JSON: byte-stable and prediction-identical.
			var j1, j2 bytes.Buffer
			if err := ts.WriteJSON(&j1); err != nil {
				t.Fatal(err)
			}
			fromJSON, err := dperf.ReadTraceSetJSON(bytes.NewReader(j1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := fromJSON.WriteJSON(&j2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Fatal("JSON round trip changed bytes")
			}
			if got := predictFingerprint(t, fromJSON); got != want {
				t.Fatalf("JSON-loaded prediction %v != %v", got, want)
			}

			// Binary: byte-stable and prediction-identical, preserving
			// folds.
			var b1, b2 bytes.Buffer
			if err := ts.WriteBinary(&b1); err != nil {
				t.Fatal(err)
			}
			fromBin, err := dperf.ReadTraceSetBinary(bytes.NewReader(b1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := fromBin.WriteBinary(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatal("binary round trip changed bytes")
			}
			if got := predictFingerprint(t, fromBin); got != want {
				t.Fatalf("binary-loaded prediction %v != %v", got, want)
			}

			// Folding is exact: the JSON-loaded flat set re-folded and
			// the binary-loaded folded set unfold to identical records.
			flat, err := ts.Flat()
			if err != nil {
				t.Fatal(err)
			}
			for r, f := range fromBin.Folded() {
				back, err := f.Unfold()
				if err != nil {
					t.Fatal(err)
				}
				if len(back.Records) != len(flat[r].Records) {
					t.Fatalf("rank %d: %d records, want %d", r, len(back.Records), len(flat[r].Records))
				}
				for i := range back.Records {
					if back.Records[i] != flat[r].Records[i] {
						t.Fatalf("rank %d record %d: %+v != %+v", r, i, back.Records[i], flat[r].Records[i])
					}
				}
			}

			// Text: byte-stable per rank, records preserved exactly.
			for _, tr := range flat {
				var t1, t2 bytes.Buffer
				if err := tr.Write(&t1); err != nil {
					t.Fatal(err)
				}
				parsed, err := trace.Parse(bytes.NewReader(t1.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if err := parsed.Write(&t2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
					t.Fatalf("rank %d: text round trip changed bytes", tr.Rank)
				}
			}

			// A text trace directory replays to the same prediction once
			// the deployment metadata is restored.
			dir := t.TempDir()
			if err := trace.WriteAllFolded(dir, ts.Folded(), false); err != nil {
				t.Fatal(err)
			}
			fromDir, err := dperf.LoadTraceSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			fromDir.Workload = ts.Workload
			fromDir.Level = ts.Level
			fromDir.ScatterBytes = ts.ScatterBytes
			fromDir.GatherBytes = ts.GatherBytes
			if got := predictFingerprint(t, fromDir); got != want {
				t.Fatalf("directory-loaded prediction %v != %v", got, want)
			}
		})
	}
}

// TestBinaryCompressionAcceptance is the PR's acceptance criterion:
// folded binary traces for the obstacle workload at 8 ranks are at
// least 5x smaller on disk than the JSON trace set.
func TestBinaryCompressionAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale obstacle generation in -short mode")
	}
	a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithRanks(8)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	st := checkStatsSizes(t, ts)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "set.json")
	binPath := filepath.Join(dir, "set.bin")
	if err := ts.SaveJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := ts.SaveBinary(binPath); err != nil {
		t.Fatal(err)
	}
	if st.BinaryBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	ratio := float64(st.JSONBytes) / float64(st.BinaryBytes)
	if ratio < 5 {
		t.Fatalf("binary only %.2fx smaller than JSON (want >= 5x); stats %+v", ratio, st)
	}
	t.Logf("obstacle@8: %d records -> %d ops (%.1fx fold); json %d B, binary %d B (%.1fx)",
		st.Records, st.Ops, st.FoldRatio, st.JSONBytes, st.BinaryBytes, ratio)

	// And the two files must replay to bit-identical predictions.
	fromJSON, err := dperf.LoadTraceSet(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := dperf.LoadTraceSet(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := predictFingerprint(t, fromJSON), predictFingerprint(t, fromBin); a != b {
		t.Fatalf("JSON vs binary predictions diverged: %v != %v", a, b)
	}
}

// checkStatsSizes asserts that Stats reports the bytes the writers
// actually write — the per-rank text files and the JSON document —
// and that measuring a folded or templated set leaves its flat view
// unbuilt.
func checkStatsSizes(t *testing.T, ts *dperf.TraceSet) *dperf.TraceStats {
	t.Helper()
	flat := ts.Traces != nil
	st, err := ts.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !flat && ts.Traces != nil {
		t.Fatal("Stats materialized the flat view of a folded set")
	}
	var text, js bytes.Buffer
	for _, f := range ts.Folded() {
		if err := trace.WriteText(&text, f.Rank, f.Of, f.Ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if st.TextBytes != int64(text.Len()) || st.JSONBytes != int64(js.Len()) {
		t.Fatalf("Stats sized text %d B, JSON %d B; the writers wrote %d B, %d B",
			st.TextBytes, st.JSONBytes, text.Len(), js.Len())
	}
	return st
}

// statsContainers re-reads a set from each container an upload can
// arrive in: the v1 per-rank binary (a folded set), the v2 template
// binary (a templated set) and the JSON document (a flat set).
func statsContainers(t *testing.T, ts *dperf.TraceSet) map[string]*dperf.TraceSet {
	t.Helper()
	read := func(data []byte) *dperf.TraceSet {
		t.Helper()
		ld, err := dperf.ReadTraceSetData("set", data)
		if err != nil {
			t.Fatal(err)
		}
		if err := ld.Prepare(); err != nil {
			t.Fatal(err)
		}
		return ld
	}
	var v1 bytes.Buffer
	if err := ts.WriteBinary(&v1); err != nil {
		t.Fatal(err)
	}
	factored := read(v1.Bytes())
	if _, err := factored.Template(); err != nil {
		t.Fatal(err)
	}
	var v2, js bytes.Buffer
	if err := factored.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	if err := read(v1.Bytes()).WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return map[string]*dperf.TraceSet{
		"v1": read(v1.Bytes()), "v2": read(v2.Bytes()), "json": read(js.Bytes()),
	}
}

// TestStatsSizesMatchWriters: at every level O0–O3 and 2–16 ranks, in
// every container, Stats sizes the text and JSON renderings exactly as
// the writers write them, without unfolding — including a set with an
// empty rank, under both JSON spellings of an empty records array.
func TestStatsSizesMatchWriters(t *testing.T) {
	a, err := dperf.New(smallObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range levelsUnderTest {
		for _, ranks := range []int{2, 3, 8, 16} {
			ts, err := a.Traces(dperf.WithRanks(ranks), dperf.WithLevel(level))
			if err != nil {
				t.Fatal(err)
			}
			for name, ld := range statsContainers(t, ts) {
				t.Run(fmt.Sprintf("%s/r%d/%s", level, ranks, name), func(t *testing.T) {
					checkStatsSizes(t, ld)
				})
			}
		}
	}
	for _, empty := range []string{"[]", "null"} {
		doc := `{"dperf_traceset_version": 1, "ranks": 3, "level": 0, "scatter_bytes": 0, "gather_bytes": 0, "traces": [
			{"rank": 0, "of": 3, "records": [{"kind": "compute", "ns": 2.5e-7}, {"kind": "send", "peer": 1, "bytes": 8}]},
			{"rank": 1, "of": 3, "records": [{"kind": "recv", "peer": 0, "bytes": 8}, {"kind": "compute", "ns": -0}]},
			{"rank": 2, "of": 3, "records": ` + empty + `}]}`
		ts, err := dperf.ReadTraceSetData("empty-rank", []byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		t.Run("empty-rank/"+empty, func(t *testing.T) { checkStatsSizes(t, ts) })
		for name, ld := range statsContainers(t, ts) {
			t.Run("empty-rank/"+empty+"/"+name, func(t *testing.T) { checkStatsSizes(t, ld) })
		}
	}
}

// FuzzStatsSizes: every artifact that decodes to a set of at most 2^16
// records is sized by Stats exactly as the writers write it; larger
// ones must still measure without error.
func FuzzStatsSizes(f *testing.F) {
	a, err := dperf.New(smallObstacle()).Analyze()
	if err != nil {
		f.Fatal(err)
	}
	for _, level := range []dperf.Level{dperf.O0, dperf.O3} {
		ts, err := a.Traces(dperf.WithRanks(3), dperf.WithLevel(level))
		if err != nil {
			f.Fatal(err)
		}
		var v1, v2 bytes.Buffer
		if err := ts.WriteBinary(&v1); err != nil {
			f.Fatal(err)
		}
		if _, err := ts.Template(); err != nil {
			f.Fatal(err)
		}
		if err := ts.WriteBinary(&v2); err != nil {
			f.Fatal(err)
		}
		f.Add(v1.Bytes())
		f.Add(v2.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := dperf.ReadTraceSetData("fuzz", data)
		if err != nil {
			return
		}
		if err := ts.Prepare(); err != nil {
			return
		}
		var records int64
		for _, fd := range ts.Folded() {
			records += fd.NumRecords()
		}
		if records > 1<<16 {
			if _, err := ts.Stats(); err != nil {
				t.Fatalf("decoded set of %d records failed to measure: %v", records, err)
			}
			return
		}
		checkStatsSizes(t, ts)
	})
}

// TestSweepIdenticalAcrossFoldStates: sweeping a folded source and a
// flat (JSON round-tripped) source produces byte-identical sweep
// output.
func TestSweepIdenticalAcrossFoldStates(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	folded, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := folded.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	flat, err := dperf.ReadTraceSetJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	r1, err := dperf.Sweep(folded, space)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dperf.Sweep(flat, space)
	if err != nil {
		t.Fatal(err)
	}
	var o1, o2 bytes.Buffer
	if err := r1.WriteJSON(&o1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&o2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1.Bytes(), o2.Bytes()) {
		t.Fatalf("sweep output diverged between fold states:\n%s\nvs\n%s", o1.String(), o2.String())
	}
}

// TestLoadTraceSetRejectsCorrupt exercises the descriptive-error path
// for damaged sets.
func TestLoadTraceSetRejectsCorrupt(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ts.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncation anywhere must fail, never replay garbage.
	for _, cut := range []int{5, buf.Len() / 2, buf.Len() - 1} {
		if _, err := dperf.ReadTraceSetBinary(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated at %d bytes: no error", cut)
		}
	}
	// Trailing garbage must fail too.
	data := append(append([]byte{}, buf.Bytes()...), 0x00)
	if _, err := dperf.ReadTraceSetBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("trailing garbage: no error")
	}
}

// TestLoadTraceSetErrorContext: a hostile artifact must fail with the
// artifact's name AND the byte offset where decoding stopped — the
// triage contract for both the CLI (paths) and the dperfd store
// (upload digests), which share this parser.
func TestLoadTraceSetErrorContext(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	var binBuf, jsBuf bytes.Buffer
	if err := ts.WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if err := ts.WriteJSON(&jsBuf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	wantBoth := func(what string, err error, name string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", what)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: error does not name the artifact %q: %v", what, name, err)
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("%s: error does not report the byte offset: %v", what, err)
		}
	}

	// Truncated binary from disk: path + offset.
	binPath := filepath.Join(dir, "cut.bin")
	if err := os.WriteFile(binPath, binBuf.Bytes()[:binBuf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = dperf.LoadTraceSet(binPath)
	wantBoth("truncated binary load", err, "cut.bin")

	// Mid-stream JSON corruption from disk: path + decoder offset.
	js := append([]byte{}, jsBuf.Bytes()...)
	js[len(js)/3] = 0x01
	jsPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(jsPath, js, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = dperf.LoadTraceSet(jsPath)
	wantBoth("corrupt JSON load", err, "bad.json")

	// In-memory admission carries the caller's label the same way.
	_, err = dperf.ReadTraceSetData("upload-42", binBuf.Bytes()[:16])
	wantBoth("truncated binary admission", err, "upload-42")

	// Unrecognized bytes name the artifact even without an offset.
	if _, err := dperf.ReadTraceSetData("upload-43", []byte("zzzz")); err == nil ||
		!strings.Contains(err.Error(), "upload-43") {
		t.Fatalf("garbage admission error lacks the label: %v", err)
	}
}

// TestReadTraceSetRejectsInvalidDeploymentBytes: both readers hold a
// set's deployment bytes to the rule every prediction tier applies, so
// a set that no tier would predict is refused at admission, naming the
// field. JSON cannot spell NaN or Inf; the binary header can.
func TestReadTraceSetRejectsInvalidDeploymentBytes(t *testing.T) {
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field           string
		scatter, gather float64
		binaryOnly      bool
	}{
		{"scatter_bytes", -1, 0, false},
		{"gather_bytes", 0, -1, false},
		{"scatter_bytes", math.NaN(), 0, true},
		{"gather_bytes", 0, math.Inf(1), true},
	}
	for _, c := range cases {
		ts, err := a.Traces()
		if err != nil {
			t.Fatal(err)
		}
		ts.ScatterBytes, ts.GatherBytes = c.scatter, c.gather
		var js, bin bytes.Buffer
		if err := ts.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		artifacts := map[string][]byte{"binary": bin.Bytes()}
		if !c.binaryOnly {
			if err := ts.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			artifacts["json"] = js.Bytes()
		}
		for _, format := range []string{"json", "binary"} {
			data, ok := artifacts[format]
			if !ok {
				continue
			}
			_, err := dperf.ReadTraceSetData("upload", data)
			if err == nil || !strings.Contains(err.Error(), "invalid "+c.field) {
				t.Errorf("%s set with scatter %v gather %v: got %v, want an error naming %s",
					format, c.scatter, c.gather, err, c.field)
			}
		}
	}
}
