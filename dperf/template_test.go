package dperf_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

func filesize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// timingsEqual compares the predicted times of two predictions bit
// for bit (floats included).
func timingsEqual(a, b *dperf.Prediction) bool {
	return a.Platform == b.Platform && a.Ranks == b.Ranks && a.Scheme == b.Scheme &&
		math.Float64bits(a.Predicted) == math.Float64bits(b.Predicted) &&
		math.Float64bits(a.Scatter) == math.Float64bits(b.Scatter) &&
		math.Float64bits(a.Compute) == math.Float64bits(b.Compute) &&
		math.Float64bits(a.Gather) == math.Float64bits(b.Gather)
}

// predEqual additionally compares the fast-forward round accounting;
// it applies between the generated and template forms of a set, which
// replay the same folded ops. A JSON round trip refolds the records,
// and trace.Fold need not recover the generator's loops, so against
// it only timings are comparable.
func predEqual(a, b *dperf.Prediction) bool {
	return timingsEqual(a, b) &&
		a.RoundsSimulated == b.RoundsSimulated &&
		a.RoundsFastForwarded == b.RoundsFastForwarded
}

// TestTemplatePredictionsBitIdentical is the differential harness of
// the template layer: for sampled (rank count, optimization level)
// points of the obstacle workload, predictions replayed from the
// generated set, from its JSON round trip and from its v2 template
// round trip must be bit-identical — representation must never leak
// into results. Fast-forward on and off are both covered.
func TestTemplatePredictionsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		ranks int
		level dperf.Level
	}{
		{"obstacle-r2-O0", 2, dperf.O0},
		{"obstacle-r5-O1", 5, dperf.O1},
		{"obstacle-r8-O2", 8, dperf.O2},
		{"obstacle-r16-O3", 16, dperf.O3},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := dperf.New(smallObstacle(), dperf.WithRanks(tc.ranks), dperf.WithLevel(tc.level)).Analyze()
			if err != nil {
				t.Fatal(err)
			}
			ts, err := a.Traces()
			if err != nil {
				t.Fatal(err)
			}
			// The records refolded by the JSON round trip.
			var js bytes.Buffer
			if err := ts.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			flat, err := dperf.ReadTraceSetJSON(&js)
			if err != nil {
				t.Fatal(err)
			}
			// Template representation via the v2 container round trip.
			path := filepath.Join(dir, fmt.Sprintf("set-%d.bin", i))
			if err := ts.SaveBinary(path); err != nil {
				t.Fatal(err)
			}
			tpl, err := dperf.LoadTraceSet(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, ff := range []bool{false, true} {
				for _, kind := range []dperf.Kind{dperf.KindCluster, dperf.KindLAN} {
					opts := []dperf.Option{dperf.WithPlatform(kind), dperf.WithFastForward(ff)}
					want, err := ts.Predict(opts...)
					if err != nil {
						t.Fatal(err)
					}
					fromFlat, err := flat.Predict(opts...)
					if err != nil {
						t.Fatal(err)
					}
					fromTpl, err := tpl.Predict(opts...)
					if err != nil {
						t.Fatal(err)
					}
					if !timingsEqual(want, fromFlat) {
						t.Fatalf("ff=%v %s: flat-source prediction diverged:\nfolded %+v\nflat   %+v", ff, kind, want, fromFlat)
					}
					if !predEqual(want, fromTpl) {
						t.Fatalf("ff=%v %s: template-source prediction diverged:\nfolded   %+v\ntemplate %+v", ff, kind, want, fromTpl)
					}
				}
			}
		})
	}
}

// TestTemplateObstacleDedup is the acceptance gate on the paper
// workload: the obstacle@8 template container must be at least 3x
// smaller than the per-rank binary container, with the whole set
// factored into a single guarded role body.
func TestTemplateObstacleDedup(t *testing.T) {
	a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithRanks(8)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ts.Stats()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("obstacle@8: records=%d ops=%d roles=%d classes=%d template_ops=%d binary=%dB template=%dB dedup=%.2fx",
		st.Records, st.Ops, st.Roles, st.Classes, st.TemplateOps, st.BinaryBytes, st.TemplateBytes, st.DedupRatio)
	if st.Roles != 1 {
		t.Fatalf("obstacle@8 factored into %d roles, want 1 guarded role", st.Roles)
	}
	if st.DedupRatio < 3 {
		t.Fatalf("template binary only %.2fx smaller than per-rank binary, want >= 3x (binary %dB, template %dB)",
			st.DedupRatio, st.BinaryBytes, st.TemplateBytes)
	}
}

// TestTemplateSetSaveLoad covers the persistence matrix: SaveBinary
// writes the v2 template container, which round trips with metadata,
// whatever ran on the set before; v1 per-rank containers still load
// to the same folded set; and bare per-rank trace or template streams
// are not sets — LoadTraceSet refuses them, naming the formats it
// accepts.
func TestTemplateSetSaveLoad(t *testing.T) {
	dir := t.TempDir()
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(4), dperf.WithLevel(dperf.O1)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}

	// v1 container, as an earlier writer or a foreign encoder built it.
	v1 := filepath.Join(dir, "set-v1.bin")
	if err := os.WriteFile(v1, encodeContainer(t, ts, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	// v2 container, after an inspection: Stats must not change what a
	// later save writes.
	checkStatsSizes(t, ts)
	v2 := filepath.Join(dir, "set-v2.bin")
	if err := ts.SaveBinary(v2); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr) < 5 || hdr[4] != 2 {
		t.Fatalf("SaveBinary wrote container version %d, want 2", hdr[4])
	}

	ld1, err := dperf.LoadTraceSet(v1)
	if err != nil {
		t.Fatal(err)
	}
	ld2, err := dperf.LoadTraceSet(v2)
	if err != nil {
		t.Fatal(err)
	}
	if st1, st2 := checkStatsSizes(t, ld1), checkStatsSizes(t, ld2); st1.TextBytes != st2.TextBytes || st1.JSONBytes != st2.JSONBytes {
		t.Fatalf("v1 and v2 containers sized differently: %+v vs %+v", st1, st2)
	}
	if ld2.Workload != ts.Workload || ld2.Ranks != ts.Ranks || ld2.Level != ts.Level ||
		ld2.ScatterBytes != ts.ScatterBytes || ld2.GatherBytes != ts.GatherBytes {
		t.Fatalf("v2 metadata diverged: %+v vs %+v", ld2, ts)
	}
	if !reflect.DeepEqual(ld1.Folded(), ld2.Folded()) {
		t.Fatal("v1 and v2 containers decode to different folded sets")
	}
	p1, err := ld1.Predict()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ld2.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !predEqual(p1, p2) {
		t.Fatalf("v1/v2 predictions diverged:\nv1 %+v\nv2 %+v", p1, p2)
	}

	// The v2 container must actually be the smaller artifact.
	s1, err := filesize(v1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := filesize(v2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 >= s1 {
		t.Fatalf("v2 container (%dB) not smaller than v1 (%dB)", s2, s1)
	}

	// Bare streams: a template, a per-rank shard of a larger set and a
	// stream that labels itself rank 0 of 1 are all refused.
	tpl, err := trace.Factor(ts.Folded())
	if err != nil {
		t.Fatal(err)
	}
	writeBare := func(name string, write func(io.Writer) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, path := range []string{
		writeBare("bare-template.trace", tpl.WriteTemplate),
		writeBare("shard.trace", ts.Folded()[2].WriteBinary),
		writeBare("single.trace", (&trace.Folded{Rank: 0, Of: 1, Ops: []trace.Op{
			{Count: 2, Rec: trace.Record{Kind: trace.KindCompute, NS: 500}},
		}}).WriteBinary),
	} {
		_, err := dperf.LoadTraceSet(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "binary trace-set container") {
			t.Errorf("%s: got %v, want a refusal naming the file and the accepted formats", path, err)
		}
	}
}
