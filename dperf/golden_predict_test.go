package dperf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

// unsettledSet returns the paper-scale set with each rank's 119-round
// loop split into two manageable Repeats at a rank-dependent boundary
// (20 + 9·rank rounds, then the rest), the way the O2 obstacle's ranks
// split their rounds. The set is eligible for the analytic tier and
// replays the same rounds as paperSet, but its ranks never sit at the
// same boundary of one aligned loop, so fast-forward never jumps.
func unsettledSet(tb testing.TB) *dperf.TraceSet {
	return reshapeLoops(tb, func(rank int, loop trace.Op) []trace.Op {
		head := 20 + 9*rank
		return []trace.Op{{Count: head, Body: loop.Body}, {Count: loop.Count - head, Body: loop.Body}}
	})
}

// unrolledSet returns the paper-scale set with every loop unrolled
// into literal rounds: no rank keeps a manageable Repeat, so the set
// is ineligible for the analytic tier.
func unrolledSet(tb testing.TB) *dperf.TraceSet {
	return reshapeLoops(tb, func(_ int, loop trace.Op) []trace.Op {
		var ops []trace.Op
		for i := 0; i < loop.Count; i++ {
			ops = append(ops, loop.Body...)
		}
		return ops
	})
}

// reshapeLoops returns a copy of paperSet whose top-level Repeats are
// rewritten by reshape.
func reshapeLoops(tb testing.TB, reshape func(rank int, loop trace.Op) []trace.Op) *dperf.TraceSet {
	ts := paperSet(tb)
	folded := make([]*trace.Folded, ts.Ranks)
	for r, f := range ts.Folded() {
		var ops []trace.Op
		for _, op := range f.Ops {
			if len(op.Body) == 0 {
				ops = append(ops, op)
			} else {
				ops = append(ops, reshape(r, op)...)
			}
		}
		folded[r] = &trace.Folded{Rank: f.Rank, Of: f.Of, Ops: ops}
	}
	return dperf.TraceSetWithOps(ts, folded)
}

// TestGoldenPredictions pins the bytes of every serving path: the
// SHA-256 of WriteJSON for predicts and sweeps in des, auto and
// analytic mode, fast-forward off and on, on cluster and LAN under
// both schemes. Three sets cover the three auto-mode outcomes: paperSet
// certifies, unsettledSet never jumps, and unrolledSet is ineligible.
// Per group, "sweep" hashes a cold sweep whose space adds an unknown
// platform (so resolution-error rows are pinned too), and "predicts"
// hashes the four predicts in kind × scheme order, each once warm on
// the sweep's Predictor and pool and once cold on state of its own. A
// predict that fails hashes its error text instead.
func TestGoldenPredictions(t *testing.T) {
	// No serving path may move a byte of these.
	golden := map[string]string{
		"paper/des/ff=false/sweep":             "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"paper/des/ff=false/predicts":          "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"paper/des/ff=true/sweep":              "81a2af9da653f5a102e2ad66c7bea8c0f429d4d5beafbc2c96b9fbc0bda8a2b3",
		"paper/des/ff=true/predicts":           "2e0f6c8aa96f94bc5bb3a46329e08bb107431a99afa29b43aca288e5d051dd2a",
		"paper/auto/ff=false/sweep":            "edbb1f64b25e236243d49516991e292ae6b63eb02ae26d8d2cbccbf90ab7d5b5",
		"paper/auto/ff=false/predicts":         "085bc682e8100708e68d1c4746e19d12a8b09ab6e217403150301eca6d566172",
		"paper/auto/ff=true/sweep":             "edbb1f64b25e236243d49516991e292ae6b63eb02ae26d8d2cbccbf90ab7d5b5",
		"paper/auto/ff=true/predicts":          "085bc682e8100708e68d1c4746e19d12a8b09ab6e217403150301eca6d566172",
		"paper/analytic/ff=false/sweep":        "edbb1f64b25e236243d49516991e292ae6b63eb02ae26d8d2cbccbf90ab7d5b5",
		"paper/analytic/ff=false/predicts":     "085bc682e8100708e68d1c4746e19d12a8b09ab6e217403150301eca6d566172",
		"paper/analytic/ff=true/sweep":         "edbb1f64b25e236243d49516991e292ae6b63eb02ae26d8d2cbccbf90ab7d5b5",
		"paper/analytic/ff=true/predicts":      "085bc682e8100708e68d1c4746e19d12a8b09ab6e217403150301eca6d566172",
		"unsettled/des/ff=false/sweep":         "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"unsettled/des/ff=false/predicts":      "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"unsettled/des/ff=true/sweep":          "537711cff1c96194064ae42f078f9da1a25146f788b8056efe01946aa68db0af",
		"unsettled/des/ff=true/predicts":       "aec0c06936e2266ea589615b29469132b3f468baf1e8305df391022ab33934f7",
		"unsettled/auto/ff=false/sweep":        "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"unsettled/auto/ff=false/predicts":     "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"unsettled/auto/ff=true/sweep":         "537711cff1c96194064ae42f078f9da1a25146f788b8056efe01946aa68db0af",
		"unsettled/auto/ff=true/predicts":      "aec0c06936e2266ea589615b29469132b3f468baf1e8305df391022ab33934f7",
		"unsettled/analytic/ff=false/sweep":    "c86c8be597db4f12433d8aae16994a5123ca837adb9b6daecbee5912cce5102a",
		"unsettled/analytic/ff=false/predicts": "3b4f1316566e84bf5a5b0b4b86f6b7e518b1d69ef682cea57096491cad50b7aa",
		"unsettled/analytic/ff=true/sweep":     "c86c8be597db4f12433d8aae16994a5123ca837adb9b6daecbee5912cce5102a",
		"unsettled/analytic/ff=true/predicts":  "3b4f1316566e84bf5a5b0b4b86f6b7e518b1d69ef682cea57096491cad50b7aa",
		"unrolled/des/ff=false/sweep":          "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"unrolled/des/ff=false/predicts":       "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"unrolled/des/ff=true/sweep":           "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"unrolled/des/ff=true/predicts":        "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"unrolled/auto/ff=false/sweep":         "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"unrolled/auto/ff=false/predicts":      "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"unrolled/auto/ff=true/sweep":          "83c423d4349c23e94fa7f4e2c34b6076002271c1f599930c0741e8314eb242f3",
		"unrolled/auto/ff=true/predicts":       "902ba5f7149f428e2fd1190bd60de072a105a27c73f887ef16c956dae3a8ed98",
		"unrolled/analytic/ff=false/sweep":     "058ce00e9f26da704f50aa7a6b7f533eee49bd41c9a3d98bb0ffabfae0a2433f",
		"unrolled/analytic/ff=false/predicts":  "46e825615a3b20f49977315b417e61a67d3646c793fca4802656ef044d8f20eb",
		"unrolled/analytic/ff=true/sweep":      "058ce00e9f26da704f50aa7a6b7f533eee49bd41c9a3d98bb0ffabfae0a2433f",
		"unrolled/analytic/ff=true/predicts":   "46e825615a3b20f49977315b417e61a67d3646c793fca4802656ef044d8f20eb",
	}
	sets := []struct {
		name string
		ts   *dperf.TraceSet
	}{{"paper", paperSet(t)}, {"unsettled", unsettledSet(t)}, {"unrolled", unrolledSet(t)}}
	kinds := []dperf.Kind{dperf.KindCluster, dperf.KindLAN}
	schemes := []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous}
	space := dperf.Space{Platforms: append(kinds[:len(kinds):len(kinds)], "nowhere"), Schemes: schemes}
	check := func(key string, got []byte) {
		t.Helper()
		sum := sha256.Sum256(got)
		if d := hex.EncodeToString(sum[:]); d != golden[key] {
			t.Errorf("%q: %q, // digest changed (want %q)", key, d, golden[key])
		}
	}
	// honest keeps unsettledSet what its name says.
	honest := func(set string, p *dperf.Prediction) {
		t.Helper()
		if set == "unsettled" && p != nil && p.RoundsFastForwarded != 0 {
			t.Fatalf("unsettled set fast-forwarded %d rounds (%s, %s, %s)", p.RoundsFastForwarded, p.Platform, p.Scheme, p.Tier)
		}
	}
	for _, set := range sets {
		for _, mode := range []dperf.PredictMode{dperf.PredictDES, dperf.PredictAuto, dperf.PredictAnalytic} {
			for _, ff := range []bool{false, true} {
				group := fmt.Sprintf("%s/%s/ff=%t", set.name, mode, ff)
				opts := func(p *dperf.Predictor, pool *dperf.SessionPool) []dperf.Option {
					return []dperf.Option{dperf.WithPredictMode(mode), dperf.WithFastForward(ff),
						dperf.WithPredictor(p), dperf.WithEngine(pool)}
				}
				p, pool := dperf.NewPredictor(), dperf.NewSessionPool()
				res, err := dperf.Sweep(set.ts, space, dperf.SweepOptions(opts(p, pool)...))
				if err != nil {
					t.Fatal(err)
				}
				for _, cr := range res.Results {
					honest(set.name, cr.Prediction)
				}
				var sweep bytes.Buffer
				if err := res.WriteJSON(&sweep); err != nil {
					t.Fatal(err)
				}
				check(group+"/sweep", sweep.Bytes())

				for _, state := range []string{"warm", "cold"} {
					var preds bytes.Buffer
					for _, kind := range kinds {
						for _, scheme := range schemes {
							o := opts(p, pool)
							if state == "cold" {
								o = opts(dperf.NewPredictor(), dperf.NewSessionPool())
							}
							pred, err := set.ts.Predict(append(o, dperf.WithPlatform(kind), dperf.WithScheme(scheme))...)
							if err != nil {
								io.WriteString(&preds, "error: "+err.Error()+"\n")
								continue
							}
							honest(set.name, pred)
							if err := pred.WriteJSON(&preds); err != nil {
								t.Fatal(err)
							}
						}
					}
					check(group+"/predicts", preds.Bytes())
				}
			}
		}
	}
}
