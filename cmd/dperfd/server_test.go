package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/store"
	"repro/internal/trace"
)

var (
	fixtureOnce sync.Once
	fixtureBin  []byte
	fixtureErr  error
)

// fixtureBytes returns one small 2-rank obstacle trace set, serialized
// once in the binary artifact format.
func fixtureBytes(t *testing.T) []byte {
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
		if fixtureErr = ts.WriteBinary(&b); fixtureErr == nil {
			fixtureBin = b.Bytes()
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureBin
}

// fixtureSet parses the fixture artifact the way the store does, so
// library-path expectations replay the same bytes the server serves.
func fixtureSet(t *testing.T) *dperf.TraceSet {
	t.Helper()
	ts, err := dperf.ReadTraceSetData("fixture", fixtureBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { s.pool.CloseIdle() })
	return s, hs
}

// upload puts the fixture artifact and returns its digest.
func upload(t *testing.T, hs *httptest.Server) string {
	t.Helper()
	return uploadData(t, hs, fixtureBytes(t))
}

// uploadData puts an artifact and returns its digest.
func uploadData(t *testing.T, hs *httptest.Server, data []byte) string {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info traceSetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Digest != store.Digest(data) {
		t.Fatalf("upload digest %s, want %s", info.Digest, store.Digest(data))
	}
	return info.Digest
}

// postJSON sends a request body and returns the status and raw
// response bytes.
func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// libraryPredict renders the single-process CLI path for one request:
// a fresh default engine, no shared caches.
func libraryPredict(t *testing.T, kind dperf.Kind) []byte {
	t.Helper()
	pred, err := fixtureSet(t).Predict(
		dperf.WithPlatform(kind),
		dperf.WithFastForward(true),
		dperf.WithPredictMode(dperf.PredictDES),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPredictDifferential is the service's core contract: responses
// are byte-identical to the single-process library/CLI output, cold
// and warm. An explicit replay_workers 1 is the default request and is
// served from its result-cache entry.
func TestPredictDifferential(t *testing.T) {
	s, hs := newTestServer(t)
	digest := upload(t, hs)

	for _, tc := range []struct {
		name string
		req  predictRequest
		kind dperf.Kind
	}{
		{"default", predictRequest{Digest: digest}, dperf.KindCluster},
		{"lan", predictRequest{Digest: digest, Platform: "lan"}, dperf.KindLAN},
		{"replay_workers 1", predictRequest{Digest: digest, ReplayWorkers: 1}, dperf.KindCluster},
	} {
		want := libraryPredict(t, tc.kind)
		for round := 0; round < 2; round++ { // round 1 must hit the result cache
			code, got := postJSON(t, hs.URL+"/v1/predict", tc.req)
			if code != http.StatusOK {
				t.Fatalf("%s round %d: status %d: %s", tc.name, round, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: response diverged from library output:\n got: %s\nwant: %s", tc.name, round, got, want)
			}
		}
	}
	s.mu.Lock()
	hits, misses := s.hits, s.misses
	s.mu.Unlock()
	if misses != 2 || hits != 4 {
		t.Fatalf("result cache hits=%d misses=%d, want 4/2", hits, misses)
	}
	if s.pool.Idle() == 0 {
		t.Fatal("pool kept no session hot after serial predicts")
	}
}

// ringJSON is a 4-rank ring trace set in the JSON format whose folded
// records hold a loop the analytic tier accepts: 40 rounds per rank of
// a compute, a 4096 B send to the next rank, a receive from the
// previous one and a convergence test, with 1000 B scatter and gather.
func ringJSON(t *testing.T) []byte {
	t.Helper()
	const ranks, rounds = 4, 40
	doc := struct {
		Version      int            `json:"dperf_traceset_version"`
		Ranks        int            `json:"ranks"`
		ScatterBytes float64        `json:"scatter_bytes"`
		GatherBytes  float64        `json:"gather_bytes"`
		Traces       []*trace.Trace `json:"traces"`
	}{Version: 1, Ranks: ranks, ScatterBytes: 1000, GatherBytes: 1000}
	for r := 0; r < ranks; r++ {
		tr := &trace.Trace{Rank: r, Of: ranks}
		for i := 0; i < rounds; i++ {
			tr.Records = append(tr.Records,
				trace.Record{Kind: trace.KindCompute, NS: 1e6 + 1e3*float64(r)},
				trace.Record{Kind: trace.KindSend, Peer: (r + 1) % ranks, Bytes: 4096},
				trace.Record{Kind: trace.KindRecv, Peer: (r + ranks - 1) % ranks, Bytes: 4096},
				trace.Record{Kind: trace.KindConv})
		}
		doc.Traces = append(doc.Traces, tr)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPredictJSONDifferential: an uploaded JSON set is served exactly
// as the CLI predicts from the same bytes, in auto mode on grid5000,
// cold and warm — admission (Prepare, Stats) must not change which
// view replays. The certificate's verification replay runs on the
// server's session pool and leaves its one session idle there.
func TestPredictJSONDifferential(t *testing.T) {
	s, hs := newTestServer(t)
	data := ringJSON(t)
	digest := uploadData(t, hs, data)

	ts, err := dperf.ReadTraceSetData("ring.json", data)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := ts.Predict(
		dperf.WithPlatform(dperf.KindCluster),
		dperf.WithFastForward(true),
		dperf.WithPredictMode(dperf.PredictAuto),
	)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pred.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	req := predictRequest{Digest: digest, Platform: "grid5000", PredictMode: "auto"}
	for round := 0; round < 2; round++ { // round 1 hits the result cache
		code, got := postJSON(t, hs.URL+"/v1/predict", req)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, code, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: response diverged from the CLI path:\n got: %s\nwant: %s", round, got, want.Bytes())
		}
		if n := s.pool.Idle(); n != 1 {
			t.Fatalf("round %d: the session pool holds %d idle sessions, want 1", round, n)
		}
	}
}

func TestSweepDifferential(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	res, err := dperf.Sweep(fixtureSet(t), dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}, dperf.SweepOptions(dperf.WithFastForward(true), dperf.WithPredictMode(dperf.PredictDES)))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	req := sweepRequest{Digest: digest, Platforms: []string{"grid5000"}, Schemes: []string{"sync", "async"}}
	for round := 0; round < 2; round++ {
		code, got := postJSON(t, hs.URL+"/v1/sweep", req)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, code, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: sweep response diverged from library output:\n got: %s\nwant: %s", round, got, want.Bytes())
		}
	}
}

// TestSweepBounds: a sweep whose expansion passes maxSweepConfigs is
// refused with 400 naming the count, before the store is consulted or
// anything is resolved. However many workers a request asks for, the
// reply keeps its bytes and the server runs at most GOMAXPROCS of
// them: the sweep gives each platform more configurations than that,
// and the pool, which keeps every session it realizes, ends with at
// most GOMAXPROCS sessions per platform.
func TestSweepBounds(t *testing.T) {
	s, hs := newTestServer(t)
	ranks := make([]int, 2000)
	for i := range ranks {
		ranks[i] = 2
	}
	// The digest names no stored set: the bound answers before the
	// lookup would.
	code, body := postJSON(t, hs.URL+"/v1/sweep", sweepRequest{Digest: strings.Repeat("0", 64), Ranks: ranks})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "6000 configurations") {
		t.Fatalf("oversized sweep: status %d body %s", code, body)
	}
	if keys := s.sortedKeys(); len(keys) != 0 {
		t.Fatalf("a refused sweep left result-cache entries: %v", keys)
	}

	procs := runtime.GOMAXPROCS(0)
	platforms := []string{"grid5000", "xdsl", "lan"}
	schemes := []string{"sync", "async"}
	// Repeats of the fixture's own rank count, so every configuration
	// replays.
	ranks = make([]int, min(procs+1, maxSweepConfigs/(len(platforms)*len(schemes))))
	for i := range ranks {
		ranks[i] = 2
	}
	var want []byte
	for _, workers := range []int{1, 1 << 20} {
		// A fresh server per request, so neither reply comes from the
		// result cache.
		s, hs := newTestServer(t)
		req := sweepRequest{Digest: upload(t, hs), Platforms: platforms, Ranks: ranks,
			Schemes: schemes, Workers: workers}
		code, got := postJSON(t, hs.URL+"/v1/sweep", req)
		if code != http.StatusOK {
			t.Fatalf("workers %d: status %d: %s", workers, code, got)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers %d changed the reply:\n got: %s\nwant: %s", workers, got, want)
		}
		if idle, most := s.pool.Idle(), procs*len(platforms); idle > most {
			t.Fatalf("workers %d: the pool realized %d sessions, want at most %d (GOMAXPROCS %d × %d platforms)",
				workers, idle, most, procs, len(platforms))
		}
	}
}

func TestScanDifferential(t *testing.T) {
	_, hs := newTestServer(t)

	req := scanRequest{
		BandwidthsBps: []float64{2.5e7, 2.6e7},
		LatenciesS:    []float64{100e-6, 900e-6},
		SpeedsHz:      []float64{3e9},
	}
	code, got := postJSON(t, hs.URL+"/v1/scan", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var resp scanResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != scanVersion || len(resp.Results) != 4 {
		t.Fatalf("bad scan response shape: version %d, %d results", resp.Version, len(resp.Results))
	}
	// Every served point must be bit-identical to a from-scratch
	// analytic evaluation — the same cross-check the CLI -scan asserts.
	for _, pt := range resp.Results {
		ref, err := capfamily.Evaluate(scanPeers, scanN, scanRounds, p2psap.Synchronous, pt.BandwidthBps, pt.LatencyS, pt.SpeedHz)
		if err != nil {
			t.Fatal(err)
		}
		if pt.PredictedS != ref.PredictedSeconds || pt.ScatterS != ref.ScatterSeconds ||
			pt.ComputeS != ref.ComputeSeconds || pt.GatherS != ref.GatherSeconds {
			t.Fatalf("scan point (%g,%g,%g) diverged from analytic evaluation: %+v vs %+v",
				pt.BandwidthBps, pt.LatencyS, pt.SpeedHz, pt, ref)
		}
	}

	// The cached replay must be byte-identical.
	code, again := postJSON(t, hs.URL+"/v1/scan", req)
	if code != http.StatusOK || !bytes.Equal(again, got) {
		t.Fatalf("cached scan diverged (status %d)", code)
	}
}

// TestConcurrentDifferential hammers one server with a mix of predict,
// sweep and scan requests from many goroutines. Every response must be
// byte-identical to the library output no matter which request warmed
// which cache first — run under -race, this is also the shared-state
// audit for the predictor, session pool and result cache.
func TestConcurrentDifferential(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	wantCluster := libraryPredict(t, dperf.KindCluster)
	wantLAN := libraryPredict(t, dperf.KindLAN)

	scanReq := scanRequest{
		BandwidthsBps: []float64{2.5e7, 2.55e7},
		LatenciesS:    []float64{100e-6},
		SpeedsHz:      []float64{3e9},
	}
	var wantScan []byte
	{
		code, body := postJSON(t, hs.URL+"/v1/scan", scanReq)
		if code != http.StatusOK {
			t.Fatalf("scan priming failed: %d %s", code, body)
		}
		wantScan = body
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var (
					code int
					got  []byte
					want []byte
					kind string
				)
				switch (g + r) % 4 {
				case 0:
					kind = "predict/grid5000"
					code, got = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest})
					want = wantCluster
				case 1:
					kind = "predict/lan"
					code, got = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, Platform: "lan"})
					want = wantLAN
				case 2:
					kind = "predict/replay_workers=1"
					code, got = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, ReplayWorkers: 1})
					want = wantCluster
				case 3:
					kind = "scan"
					code, got = postJSON(t, hs.URL+"/v1/scan", scanReq)
					want = wantScan
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", kind, code, got)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s: concurrent response diverged from library output", kind)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReplayWorkersRemoved: replay_workers selected the partitioned
// parallel engine, which is gone. On both endpoints a value above 1 is
// refused with a 400 that names the removal instead of running
// serially, a negative value stays invalid, and 0 and 1 are the
// default request, served from its result-cache entry.
func TestReplayWorkersRemoved(t *testing.T) {
	s, hs := newTestServer(t)
	digest := upload(t, hs)
	hits := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.hits
	}
	for _, ep := range []struct {
		path string
		req  func(workers int) any
	}{
		{"/v1/predict", func(w int) any { return predictRequest{Digest: digest, ReplayWorkers: w} }},
		{"/v1/sweep", func(w int) any { return sweepRequest{Digest: digest, ReplayWorkers: w} }},
	} {
		code, want := postJSON(t, hs.URL+ep.path, ep.req(0))
		if code != http.StatusOK {
			t.Fatalf("%s default: status %d: %s", ep.path, code, want)
		}
		for _, workers := range []int{2, 8, -1} {
			code, body := postJSON(t, hs.URL+ep.path, ep.req(workers))
			if code != http.StatusBadRequest {
				t.Fatalf("%s replay_workers %d: status %d: %s", ep.path, workers, code, body)
			}
			if workers > 1 && !strings.Contains(string(body), "removed") {
				t.Fatalf("%s replay_workers %d: the refusal does not name the removal: %s", ep.path, workers, body)
			}
		}
		before := hits()
		for _, workers := range []int{0, 1} {
			code, got := postJSON(t, hs.URL+ep.path, ep.req(workers))
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s replay_workers %d: status %d, response differs from the default request's:\n got: %s\nwant: %s",
					ep.path, workers, code, got, want)
			}
		}
		if got := hits() - before; got != 2 {
			t.Fatalf("%s: replay_workers 0 and 1 hit the result cache %d times, want 2", ep.path, got)
		}
	}
	s.mu.Lock()
	entries := len(s.results)
	s.mu.Unlock()
	if entries != 2 {
		t.Fatalf("result cache holds %d entries, want 2 (one per endpoint)", entries)
	}
}

func TestHostileRequests(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	// Garbage upload: rejected with the artifact label.
	resp, err := http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", strings.NewReader("not a trace set"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "traceset ") {
		t.Fatalf("garbage upload: status %d body %q", resp.StatusCode, body)
	}

	// Truncated binary upload: rejected with a byte offset.
	bin := fixtureBytes(t)
	resp, err = http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", bytes.NewReader(bin[:len(bin)/2]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "byte offset") {
		t.Fatalf("truncated upload: status %d body %q", resp.StatusCode, body)
	}

	// A JSON set with negative deployment bytes: no tier would predict
	// it, so it is refused at admission, naming the field.
	neg := fixtureSet(t)
	neg.ScatterBytes = -1
	var js bytes.Buffer
	if err := neg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/v1/tracesets", "application/json", &js)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "scatter_bytes") {
		t.Fatalf("negative scatter_bytes upload: status %d body %q", resp.StatusCode, body)
	}

	// Unknown digest: 404.
	code, body := postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: strings.Repeat("0", 64)})
	if code != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d body %s", code, body)
	}

	// Unknown platform: well-formed but unpredictable.
	code, body = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, Platform: "nope"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown platform: status %d body %s", code, body)
	}

	// Bad mode / bad workers: rejected before touching the store.
	code, body = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, PredictMode: "psychic"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d body %s", code, body)
	}
	code, body = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, ReplayWorkers: -1})
	if code != http.StatusBadRequest {
		t.Fatalf("bad workers: status %d body %s", code, body)
	}

	// Malformed JSON body.
	resp, err = http.Post(hs.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

// TestBareStreamUploadsRefused: a bare per-rank binary trace stream and
// a bare template stream are not trace sets. Each upload is a 400 that
// names the formats the store accepts, even a per-rank stream that
// labels itself rank 0 of 1.
func TestBareStreamUploadsRefused(t *testing.T) {
	_, hs := newTestServer(t)
	var rank, single, tplStream bytes.Buffer
	folded := fixtureSet(t).Folded()
	if err := folded[0].WriteBinary(&rank); err != nil {
		t.Fatal(err)
	}
	one := &trace.Folded{Rank: 0, Of: 1, Ops: []trace.Op{{Count: 2, Rec: trace.Record{Kind: trace.KindCompute, NS: 500}}}}
	if err := one.WriteBinary(&single); err != nil {
		t.Fatal(err)
	}
	tpl, err := trace.Factor(folded)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.WriteTemplate(&tplStream); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"per-rank stream":      rank.Bytes(),
		"single-rank stream":   single.Bytes(),
		"bare template stream": tplStream.Bytes(),
	} {
		resp, err := http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(string(body), "JSON trace set") || !strings.Contains(string(body), "binary trace-set container") {
			t.Errorf("%s upload: status %d body %q, want 400 naming the accepted formats", name, resp.StatusCode, body)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	if code, body := postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest}); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest}) // warm hit

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.TraceSets != 1 || stats.ResultEntries != 1 || stats.ResultHits != 1 || stats.ResultMisses != 1 {
		t.Fatalf("stats off: %+v", stats)
	}

	// The trace-set listing and per-digest lookup agree.
	resp, err = http.Get(hs.URL + "/v1/tracesets/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info traceSetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Digest != digest || info.Ranks != 2 {
		t.Fatalf("lookup info off: %+v", info)
	}
}
