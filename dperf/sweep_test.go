package dperf_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/dperf"
)

// sweepAnalysis returns an analysis of the fast obstacle workload,
// the sweep trace source used throughout these tests.
func sweepAnalysis(t testing.TB) *dperf.Analysis {
	t.Helper()
	a, err := dperf.New(smallObstacle(), dperf.WithRanks(2)).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSpaceExpand(t *testing.T) {
	s := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Ranks:     []int{2, 4},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	got := s.Expand()
	if len(got) != 8 {
		t.Fatalf("expanded %d configs, want 8", len(got))
	}
	// Deterministic order: platform outermost, scheme innermost.
	if got[0].Platform != dperf.KindCluster || got[0].Ranks != 2 || got[0].Scheme != dperf.Synchronous {
		t.Fatalf("first config = %+v", got[0])
	}
	if got[1].Scheme != dperf.Asynchronous {
		t.Fatalf("second config = %+v", got[1])
	}
	if got[4].Platform != dperf.KindLAN {
		t.Fatalf("fifth config = %+v", got[4])
	}
	// Empty dimensions collapse to one default element.
	if n := len((dperf.Space{}).Expand()); n != 1 {
		t.Fatalf("empty space expanded to %d configs, want 1", n)
	}
}

// TestSweepMatchesPredict is the golden equivalence: every sweep cell
// must be bit-identical to a standalone TraceSet.Predict of the same
// configuration, even though the sweep shares platforms and replay
// sessions across cells.
func TestSweepMatchesPredict(t *testing.T) {
	a := sweepAnalysis(t)
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Ranks:     []int{2, 4},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	res, err := dperf.Sweep(a, space, dperf.SweepWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d configs failed; first errors: %v", res.Failed(), firstErrors(res))
	}
	for _, cr := range res.Results {
		ts, err := a.Traces(dperf.WithRanks(cr.Config.Ranks))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ts.Predict(
			dperf.WithPlatform(cr.Config.Platform), dperf.WithScheme(cr.Config.Scheme))
		if err != nil {
			t.Fatal(err)
		}
		got := cr.Prediction
		if got.Predicted != want.Predicted || got.Scatter != want.Scatter ||
			got.Compute != want.Compute || got.Gather != want.Gather {
			t.Fatalf("config %d (%+v): sweep %+v != predict %+v",
				cr.Index, cr.Config, got, want)
		}
	}
}

// TestSweepDeterministic is the satellite determinism guarantee: the
// same sweep, run twice and at several worker counts (including 1),
// serializes to byte-identical JSON and CSV.
func TestSweepDeterministic(t *testing.T) {
	a := sweepAnalysis(t)
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN},
		Ranks:     []int{2, 3, 4},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}
	serialize := func(workers int) (string, string) {
		t.Helper()
		res, err := dperf.Sweep(a, space, dperf.SweepWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	refJSON, refCSV := serialize(1)
	for _, workers := range []int{1, 2, 7} {
		gotJSON, gotCSV := serialize(workers)
		if gotJSON != refJSON {
			t.Fatalf("JSON with %d workers differs from 1-worker run", workers)
		}
		if gotCSV != refCSV {
			t.Fatalf("CSV with %d workers differs from 1-worker run", workers)
		}
	}
}

// TestSweepPerConfigErrors: one bad point must not abort the sweep.
func TestSweepPerConfigErrors(t *testing.T) {
	a := sweepAnalysis(t)
	space := dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, "no-such-platform"},
		Ranks:     []int{2},
	}
	res, err := dperf.Sweep(a, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(res.Results))
	}
	if res.Results[0].Error != "" || res.Results[0].Prediction == nil {
		t.Fatalf("good config failed: %+v", res.Results[0])
	}
	if res.Results[1].Error == "" || res.Results[1].Prediction != nil {
		t.Fatalf("bad config did not fail: %+v", res.Results[1])
	}
	if res.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", res.Failed())
	}
}

// TestSweepFromTraceSet: a *TraceSet is a valid source fixed at its
// own rank count; other rank counts fail per-config.
func TestSweepFromTraceSet(t *testing.T) {
	a := sweepAnalysis(t)
	ts, err := a.Traces(dperf.WithRanks(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dperf.Sweep(ts, dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster},
		Ranks:     []int{0, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Error != "" || res.Results[1].Error != "" {
		t.Fatalf("native rank counts failed: %+v", res.Results[:2])
	}
	if res.Results[0].Ranks != 2 {
		t.Fatalf("default ranks resolved to %d, want 2", res.Results[0].Ranks)
	}
	if res.Results[2].Error == "" {
		t.Fatal("foreign rank count did not fail")
	}
}

func TestSweepQueries(t *testing.T) {
	a := sweepAnalysis(t)
	res, err := dperf.Sweep(a, dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster, dperf.KindLAN, dperf.KindDaisy},
		Ranks:     []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", firstErrors(res))
	}
	ranked := res.RankBy(dperf.MetricPredicted)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d, want 3", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Prediction.Predicted > ranked[i].Prediction.Predicted {
			t.Fatal("RankBy not ascending")
		}
	}
	best, worst := res.Best(dperf.MetricPredicted), res.Worst(dperf.MetricPredicted)
	if best != ranked[0] || worst != ranked[2] {
		t.Fatal("Best/Worst disagree with RankBy")
	}
	// The cluster interconnect beats the xDSL last mile.
	if best.Platform != string(dperf.KindCluster) {
		t.Fatalf("best platform = %s, want cluster", best.Platform)
	}
}

// TestSweepBaseOptions: SweepOptions supplies the defaults empty
// space dimensions fall back to, and a Schemes dimension overrides the
// base scheme.
func TestSweepBaseOptions(t *testing.T) {
	a := sweepAnalysis(t)
	base := dperf.SweepOptions(dperf.WithScheme(dperf.Asynchronous), dperf.WithRanks(4))
	res, err := dperf.Sweep(a, dperf.Space{Platforms: []dperf.Kind{dperf.KindCluster}}, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", firstErrors(res))
	}
	// Empty Schemes dimension → the base WithScheme applies.
	if got := res.Results[0].Scheme; got != "asynchronous" {
		t.Fatalf("base scheme ignored: %s", got)
	}
	// Empty Ranks dimension → the base WithRanks applies.
	if got := res.Results[0].Ranks; got != 4 {
		t.Fatalf("base ranks ignored: %d", got)
	}
	// A Schemes dimension overrides the asynchronous base, Synchronous
	// included.
	res, err = dperf.Sweep(a, dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("failures: %v", firstErrors(res))
	}
	if got0, got1 := res.Results[0].Scheme, res.Results[1].Scheme; got0 != "synchronous" || got1 != "asynchronous" {
		t.Fatalf("Schemes dimension labelled its rows %s, %s; want synchronous, asynchronous", got0, got1)
	}
}

// countingSource wraps a TraceSource, counting generations.
type countingSource struct {
	inner dperf.TraceSource
	calls *int
}

func (s countingSource) SweepTraces(r int) (*dperf.TraceSet, error) {
	*s.calls++
	return s.inner.SweepTraces(r)
}

// TestSweepSharesDefaultRankTraces: the 0 sentinel and the explicit
// count it resolves to share one trace generation, in either order.
func TestSweepSharesDefaultRankTraces(t *testing.T) {
	for _, order := range [][]int{{0, 2}, {2, 0}} {
		calls := 0
		src := countingSource{inner: sweepAnalysis(t), calls: &calls}
		res, err := dperf.Sweep(src, dperf.Space{Ranks: order})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 0 {
			t.Fatalf("order %v failures: %v", order, firstErrors(res))
		}
		if calls != 1 {
			t.Fatalf("order %v: %d trace generations, want 1", order, calls)
		}
	}
}

func firstErrors(res *dperf.SweepResult) []string {
	var errs []string
	for _, cr := range res.Results {
		if cr.Error != "" {
			errs = append(errs, fmt.Sprintf("%d:%s", cr.Index, cr.Error))
			if len(errs) == 3 {
				break
			}
		}
	}
	return errs
}
