package dperf_test

import (
	"bytes"
	"testing"

	"repro/dperf"
	"repro/internal/trace"
)

// ringJSON renders a 4-rank ring trace set in the JSON format: each
// rank runs 40 rounds of a compute, a 4096 B send to the next rank, a
// receive from the previous one and a convergence test, with 1000 B
// scatter and gather. Folding its records recovers the 40-round loop,
// a Repeat that fast-forward manages and the analytic tier accepts.
func ringJSON(t testing.TB) []byte {
	t.Helper()
	const ranks, rounds = 4, 40
	ts := &dperf.TraceSet{Ranks: ranks, ScatterBytes: 1000, GatherBytes: 1000}
	for r := 0; r < ranks; r++ {
		tr := &trace.Trace{Rank: r, Of: ranks}
		for i := 0; i < rounds; i++ {
			tr.Records = append(tr.Records,
				trace.Record{Kind: trace.KindCompute, NS: 1e6 + 1e3*float64(r)},
				trace.Record{Kind: trace.KindSend, Peer: (r + 1) % ranks, Bytes: 4096},
				trace.Record{Kind: trace.KindRecv, Peer: (r + ranks - 1) % ranks, Bytes: 4096},
				trace.Record{Kind: trace.KindConv})
		}
		ts.Traces = append(ts.Traces, tr)
	}
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONTransportReplaysFold pins that a JSON set replays one view
// however it travels: read and predicted at once (the CLI), admitted
// first (dperfd runs Prepare and Stats), or re-saved in the binary
// container. Prediction bytes agree in DES and auto mode with
// fast-forward on, on every platform.
func TestJSONTransportReplaysFold(t *testing.T) {
	data := ringJSON(t)
	read := func(name string, data []byte) *dperf.TraceSet {
		t.Helper()
		ts, err := dperf.ReadTraceSetData(name, data)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	admitted := read("ring.json", data)
	if err := admitted.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := admitted.Stats(); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := read("ring.json", data).WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	resaved := read("ring.bin", bin.Bytes())

	for _, mode := range []dperf.PredictMode{dperf.PredictDES, dperf.PredictAuto} {
		for _, kind := range []dperf.Kind{dperf.KindCluster, dperf.KindDaisy, dperf.KindLAN} {
			render := func(ts *dperf.TraceSet) string {
				t.Helper()
				pred, err := ts.Predict(dperf.WithPlatform(kind), dperf.WithFastForward(true), dperf.WithPredictMode(mode))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := pred.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			cli := render(read("ring.json", data))
			for _, c := range []struct {
				name string
				ts   *dperf.TraceSet
			}{{"admitted", admitted}, {"binary re-save", resaved}} {
				if got := render(c.ts); got != cli {
					t.Errorf("%v %s: %s set predicted\n%s\nwant the freshly read set's\n%s", mode, kind, c.name, got, cli)
				}
			}
		}
	}
}
