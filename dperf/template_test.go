package dperf_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// smallStrip is a fast weak-scaling strip configuration shared by the
// scale-shared tests.
func smallStrip() dperf.StripObstacleWorkload {
	return dperf.StripObstacleWorkload{W: 24, H: 4, Rounds: 12, Sweeps: 2}
}

func stripAnalysis(t testing.TB, opts ...dperf.Option) *dperf.Analysis {
	t.Helper()
	a, err := dperf.New(smallStrip(), opts...).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return a
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
// points of the obstacle and strip workloads, predictions replayed
// from the generated set, from its JSON round trip and from its v2
// template round trip must be bit-identical — representation must
// never leak into results. Fast-forward on and off are both covered.
func TestTemplatePredictionsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		w     dperf.Workload
		ranks int
		level dperf.Level
	}{
		{"obstacle-r2-O0", smallObstacle(), 2, dperf.O0},
		{"obstacle-r5-O1", smallObstacle(), 5, dperf.O1},
		{"obstacle-r8-O2", smallObstacle(), 8, dperf.O2},
		{"obstacle-r16-O3", smallObstacle(), 16, dperf.O3},
		{"strip-r4-O0", smallStrip(), 4, dperf.O0},
		{"strip-r6-O3", smallStrip(), 6, dperf.O3},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := dperf.New(tc.w, dperf.WithRanks(tc.ranks), dperf.WithLevel(tc.level)).Analyze()
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
			if _, err := ts.Template(); err != nil {
				t.Fatal(err)
			}
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

// TestTemplateScaleSharedMatchesDirect is the scale-sharing
// differential: every rank count derived from the 8-rank template of
// the weak-scaling strip workload must equal direct generation at
// that rank count — same folded ops, same records, same predictions,
// without re-interpreting the workload.
func TestTemplateScaleSharedMatchesDirect(t *testing.T) {
	src, err := stripAnalysis(t).ScaleShared(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 3, 4, 5, 8, 12} {
		derived, err := src.SweepTraces(m)
		if err != nil {
			t.Fatalf("SweepTraces(%d): %v", m, err)
		}
		direct, err := stripAnalysis(t).Traces(dperf.WithRanks(m))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(derived.Folded(), direct.Folded()) {
			t.Fatalf("ranks=%d: template-derived folded set differs from direct generation", m)
		}
		if derived.ScatterBytes != direct.ScatterBytes || derived.GatherBytes != direct.GatherBytes {
			t.Fatalf("ranks=%d: deployment bytes differ", m)
		}
		want, err := direct.Predict(dperf.WithFastForward(true))
		if err != nil {
			t.Fatal(err)
		}
		got, err := derived.Predict(dperf.WithFastForward(true))
		if err != nil {
			t.Fatal(err)
		}
		if !predEqual(want, got) {
			t.Fatalf("ranks=%d: scale-shared prediction diverged:\ndirect  %+v\nderived %+v", m, want, got)
		}
	}
	if g := src.Generations(); g != 1 {
		t.Fatalf("scale-shared source interpreted the workload %d times, want 1", g)
	}
}

// TestTemplateScaleSharedSweep is the sweep-level acceptance: one
// template source serves a {2,4,8}-rank sweep over all three
// platforms, interpreting the workload exactly once, and its output
// is byte-identical to a sweep whose source re-interprets the
// workload per rank count — and to itself at any worker count.
func TestTemplateScaleSharedSweep(t *testing.T) {
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindDaisy, dperf.KindLAN},
		Ranks:     []int{2, 4, 8},
	}
	run := func(src dperf.TraceSource, workers int) []byte {
		t.Helper()
		res, err := dperf.Sweep(src, space,
			dperf.SweepOptions(dperf.WithFastForward(true)), dperf.SweepWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 0 {
			t.Fatalf("%d sweep configurations failed; first: %+v", res.Failed(), res.Results)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	shared, err := stripAnalysis(t).ScaleShared(8)
	if err != nil {
		t.Fatal(err)
	}
	sharedOut := run(shared, 4)
	if g := shared.Generations(); g != 1 {
		t.Fatalf("scale-shared sweep interpreted the workload %d times, want exactly once", g)
	}
	// Per-rank-count baseline: a fresh Analysis source generates (and
	// interprets) independently for every rank count in the space.
	directOut := run(stripAnalysis(t), 4)
	if !bytes.Equal(sharedOut, directOut) {
		t.Fatalf("scale-shared sweep diverged from per-rank-count sources:\nshared: %s\ndirect: %s", sharedOut, directOut)
	}
	// Worker count must not leak into results.
	if again := run(shared, 1); !bytes.Equal(sharedOut, again) {
		t.Fatal("scale-shared sweep output depends on worker count")
	}
}

// TestTemplateScaleSharedRejectsStrongScaling: the strong-scaling
// obstacle divides one grid across ranks, so its interior compute
// durations are rank-specific and its template bindings pin explicit
// ranks — ScaleShared must refuse rather than derive wrong traces.
func TestTemplateScaleSharedRejectsStrongScaling(t *testing.T) {
	a, err := dperf.New(dperf.DefaultObstacleWorkload()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScaleShared(8); err == nil {
		t.Fatal("ScaleShared accepted the strong-scaling obstacle workload")
	}
	// Too small a base is refused up front.
	if _, err := stripAnalysis(t).ScaleShared(3); err == nil {
		t.Fatal("ScaleShared accepted a 3-rank base")
	}
}

// TestTemplateSetSaveLoad covers the persistence matrix the template
// layer added: v2 template containers round trip with metadata, v1
// per-rank containers still load, and single binary trace / template
// files load as complete sets under the same header rules as the
// directory loader (the unified-validation fix).
func TestTemplateSetSaveLoad(t *testing.T) {
	dir := t.TempDir()
	a := stripAnalysis(t, dperf.WithRanks(4), dperf.WithLevel(dperf.O1))
	ts, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}

	// v1 container (not factored).
	v1 := filepath.Join(dir, "set-v1.bin")
	if err := ts.SaveBinary(v1); err != nil {
		t.Fatal(err)
	}
	// v2 container (factored).
	if _, err := ts.Template(); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "set-v2.bin")
	if err := ts.SaveBinary(v2); err != nil {
		t.Fatal(err)
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

	// Inspecting a set must not change what a later save writes: a
	// fresh (unfactored) set stays a v1 container after Stats.
	fresh, err := a.Traces()
	if err != nil {
		t.Fatal(err)
	}
	checkStatsSizes(t, fresh)
	afterStats := filepath.Join(dir, "after-stats.bin")
	if err := fresh.SaveBinary(afterStats); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(afterStats)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr) < 5 || hdr[4] != 1 {
		t.Fatalf("Stats flipped SaveBinary to container version %d, want 1", hdr[4])
	}

	// Single-file loads: a bare template stream is a whole set; a bare
	// per-rank v1 stream is a set only when it labels itself as one —
	// the same rank/world rule the directory loader applies.
	tpl, err := ts.Template()
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(dir, "bare-template.trace")
	f, err := os.Create(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.WriteTemplate(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ldt, err := dperf.LoadTraceSet(bare)
	if err != nil {
		t.Fatal(err)
	}
	if ldt.Ranks != ts.Ranks || !reflect.DeepEqual(ldt.Folded(), ts.Folded()) {
		t.Fatal("bare template file decoded to a different set")
	}

	single := filepath.Join(dir, "single.trace")
	writeFolded := func(fd *trace.Folded) {
		t.Helper()
		f, err := os.Create(single)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeFolded(&trace.Folded{Rank: 0, Of: 1, Ops: []trace.Op{
		{Count: 2, Rec: trace.Record{Kind: trace.KindCompute, NS: 500}},
	}})
	lds, err := dperf.LoadTraceSet(single)
	if err != nil {
		t.Fatalf("single-rank trace file rejected: %v", err)
	}
	if lds.Ranks != 1 {
		t.Fatalf("single-file set claims %d ranks", lds.Ranks)
	}
	// A per-rank shard of a larger set must not load as a complete
	// set through the single-file path (the silent-acceptance bug).
	writeFolded(&trace.Folded{Rank: 0, Of: 4, Ops: []trace.Op{
		{Count: 1, Rec: trace.Record{Kind: trace.KindBarrier}},
	}})
	if _, err := dperf.LoadTraceSet(single); err == nil {
		t.Fatal("rank-0-of-4 shard loaded as a complete set")
	}
	writeFolded(&trace.Folded{Rank: 2, Of: 8, Ops: []trace.Op{
		{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
	}})
	if _, err := dperf.LoadTraceSet(single); err == nil {
		t.Fatal("rank-2-of-8 shard loaded as a complete set")
	}
}

// TestTemplateScaleSharedSweepRace runs a scale-shared sweep — one
// template source, many rank counts, more workers than rank counts,
// every configuration duplicated — and asserts deterministic,
// index-ordered results. Its real teeth are under `go test -race`: the
// scale-shared source's derived sets and the sweep's shared session
// pool are both exercised from every worker.
func TestTemplateScaleSharedSweepRace(t *testing.T) {
	shared, err := stripAnalysis(t).ScaleShared(8)
	if err != nil {
		t.Fatal(err)
	}
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Ranks:     []int{2, 4, 8},
	}
	// Duplicate the whole product as explicit configs: every point
	// replays twice with identical dynamics, and the twins must agree.
	space.Configs = append(space.Configs, space.Expand()...)
	var outs [][]byte
	for _, workers := range []int{1, 8, 16} {
		res, err := dperf.Sweep(shared, space,
			dperf.SweepOptions(dperf.WithFastForward(true)), dperf.SweepWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 0 {
			t.Fatalf("workers=%d: %d configurations failed", workers, res.Failed())
		}
		for i := range res.Results {
			if res.Results[i].Index != i {
				t.Fatalf("workers=%d: result %d carries index %d", workers, i, res.Results[i].Index)
			}
		}
		// Duplicated configurations must agree cell for cell.
		n := len(res.Results) / 2
		for i := 0; i < n; i++ {
			if !predEqual(res.Results[i].Prediction, res.Results[n+i].Prediction) {
				t.Fatalf("workers=%d: duplicated config %d diverged from its twin", workers, i)
			}
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("sweep output differs between worker counts (run 0 vs %d)", i)
		}
	}
	if g := shared.Generations(); g != 1 {
		t.Fatalf("race sweep interpreted the workload %d times", g)
	}
}

// affineObstacle is the strong-scaling obstacle shape the affine
// scale-shared tests fit: big enough that per-rank shares differ
// across the probe worlds, small enough to interpret quickly.
func affineObstacle() dperf.ObstacleWorkload {
	return dperf.ObstacleWorkload{N: 128, Rounds: 8, Sweeps: 2, BenchN: 16}
}

// TestTemplateScaleSharedAffineObstacle is the acceptance test of the
// affine binding arm: the strong-scaling obstacle — which plain
// ScaleShared rejects — becomes scale-shareable through the two-probe
// fit, with two interpretations total, honest per-class residuals,
// and derived trace sets that agree with direct generation within the
// reported fit quality at the sampled worlds and within a makespan
// tolerance at unseen worlds.
func TestTemplateScaleSharedAffineObstacle(t *testing.T) {
	a, err := dperf.New(affineObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.ScaleSharedAffine(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g := src.Generations(); g != 2 {
		t.Fatalf("affine scale-sharing interpreted the workload %d times, want 2", g)
	}
	tpl := src.Template()
	maxRes := 0.0
	for _, cls := range tpl.Classes {
		if cls.Slopes == nil {
			t.Fatalf("class sel=%d carries no affine arm", cls.Sel)
		}
		if cls.Residual > 0.5 {
			t.Fatalf("class sel=%d residual %g is implausibly large", cls.Sel, cls.Residual)
		}
		if cls.Residual > maxRes {
			maxRes = cls.Residual
		}
	}

	// Sampled world: record-wise agreement bounded by the residual the
	// template itself reports.
	derived, err := src.SweepTraces(6)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := a.Traces(dperf.WithRanks(6))
	if err != nil {
		t.Fatal(err)
	}
	compareAffineTraces(t, derived, direct, maxRes+1e-9)

	// Unseen worlds: same structure, and end-to-end makespans that
	// track direct generation. The bound is empirical (the fit is
	// approximate by design); the differential harness pins the
	// analytic tier's tolerance separately.
	for _, ranks := range []int{4, 12} {
		d, err := src.SweepTraces(ranks)
		if err != nil {
			t.Fatalf("SweepTraces(%d): %v", ranks, err)
		}
		g, err := a.Traces(dperf.WithRanks(ranks))
		if err != nil {
			t.Fatal(err)
		}
		compareAffineTraces(t, d, g, 0) // structure only (tol 0 skips values)
		pd, err := d.Predict()
		if err != nil {
			t.Fatal(err)
		}
		pg, err := g.Predict()
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pd.Predicted-pg.Predicted) / pg.Predicted
		if rel > 0.10 {
			t.Fatalf("ranks %d: derived makespan %g vs direct %g (rel %.3f)", ranks, pd.Predicted, pg.Predicted, rel)
		}
	}

	// The byte shape follows the workload at every derived rank count.
	w := affineObstacle()
	if derived.ScatterBytes != w.ScatterBytes(6) || derived.GatherBytes != w.GatherBytes(6) {
		t.Fatalf("derived deployment bytes %g/%g do not match the workload", derived.ScatterBytes, derived.GatherBytes)
	}
}

// compareAffineTraces asserts structural identity between two trace
// sets and, when tol > 0, that every float payload of a agrees with b
// within the relative tolerance.
func compareAffineTraces(t *testing.T, a, b *dperf.TraceSet, tol float64) {
	t.Helper()
	fa, err := a.Flat()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != len(fb) {
		t.Fatalf("rank counts differ: %d vs %d", len(fa), len(fb))
	}
	for r := range fa {
		ra, rb := fa[r].Records, fb[r].Records
		if len(ra) != len(rb) {
			t.Fatalf("rank %d: %d records vs %d", r, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Kind != rb[i].Kind || ra[i].Peer != rb[i].Peer {
				t.Fatalf("rank %d rec %d: %v vs %v", r, i, ra[i], rb[i])
			}
			if tol <= 0 {
				continue
			}
			if !relWithin(ra[i].NS, rb[i].NS, tol) || !relWithin(ra[i].Bytes, rb[i].Bytes, tol) {
				t.Fatalf("rank %d rec %d: %v vs %v beyond tol %g", r, i, ra[i], rb[i], tol)
			}
		}
	}
}

func relWithin(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(b), 1)
	return d <= tol*m
}

// TestTemplateScaleSharedAffineRejections covers the cheap input
// rejections and the workload-shape requirement.
func TestTemplateScaleSharedAffineRejections(t *testing.T) {
	a, err := dperf.New(affineObstacle()).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ScaleSharedAffine(3, 6); err == nil {
		t.Error("3-rank base accepted")
	}
	if _, err := a.ScaleSharedAffine(8, 8); err == nil {
		t.Error("probe equal to base accepted")
	}
	if _, err := a.ScaleSharedAffine(8, 2); err == nil {
		t.Error("2-rank probe accepted")
	}
	// The weak-scaling strip has no scale parameter to fit over.
	if _, err := stripAnalysis(t).ScaleSharedAffine(8, 6); err == nil {
		t.Error("scale-parameter-free workload accepted")
	}
}
