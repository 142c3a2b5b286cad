package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/capfamily"
	"repro/internal/platform"
	"repro/internal/store"
)

// discoveryGrids are the six 8×8×4 grids dperfbench's scan-grid
// workload scans during set-up: per cell, one grid through its corners
// and one through the midpoints between them (dperfbench/workloads.go,
// scanCells and discovery).
func discoveryGrids() []scanRequest {
	cells := [][3]float64{
		{100 * platform.Mbps, 300e-6, 2e9},
		{50 * platform.Mbps, 2e-3, 3e9},
		{20 * platform.Mbps, 10e-3, 1e9},
	}
	const width = 0.03
	grid := func(cell [3]float64, at func(k, n int) float64) scanRequest {
		axis := func(v float64, n int) []float64 {
			out := make([]float64, n)
			for k := range out {
				out[k] = v * (1 + width*at(k, n))
			}
			return out
		}
		return scanRequest{BandwidthsBps: axis(cell[0], 8), LatenciesS: axis(cell[1], 8), SpeedsHz: axis(cell[2], 4)}
	}
	var out []scanRequest
	for _, cell := range cells {
		out = append(out,
			grid(cell, func(k, n int) float64 { return float64(k) / float64(n-1) }),
			grid(cell, func(k, n int) float64 { return (float64(k) + 0.5) / float64(n) }))
	}
	return out
}

// TestGoldenScanResponses pins every byte /v1/scan serves: the SHA-256
// of the reply to {} (the CLI -scan fixture's 24 points) and to each
// discovery grid. The digests were computed from replies rendered by
// encoding/json (json.Encoder with two-space indent).
func TestGoldenScanResponses(t *testing.T) {
	_, hs := newTestServer(t)
	want := []string{
		// {}
		"d20f845adad3831a4e849019f54992e4fb3cc12c3a2566674d05ee89b54ddee5",
		// cell 0: corners, midpoints
		"74e49c8799a30f8733586265d061b19ccdd23e2bb41fd27ca946a8f32bf8339b",
		"6ccadfbb3bf82a03da97cade9f045b71786535c71365400a8daa2e19e7d96cac",
		// cell 1
		"be76cb7861554dc98486bafa7dfe3963b79d66e05b6cc11e291b641f909e0757",
		"3cfd9c30f9e539ec6c747cea8101bf4feb7b48d4924bc67b5f19bcf8ce468ccc",
		// cell 2
		"72c509dca95345c0bbe998c3cbd6604d3dbae1940144adda2fbbb7b477549c05",
		"03192359f9299baf1a8733200dd85c27b0153285de69375400dde4135c6b545d",
	}
	reqs := append([]scanRequest{{}}, discoveryGrids()...)
	for i, req := range reqs {
		code, body := postJSON(t, hs.URL+"/v1/scan", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("request %d: reply digest %s, want %s", i, got, want[i])
		}
	}
}

// FuzzScanResponseJSON: for up to three points of arbitrary float64 bit
// patterns, appendScanResponse writes exactly the bytes a json.Encoder
// with two-space indent writes, or fails with the same error text. The
// first byte picks the point count; the rest is read as little-endian
// float64 words, reused in turn to fill all seven members of every
// point.
func FuzzScanResponseJSON(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(append([]byte{1}, word(v)...))
	}
	f.Add([]byte{0})
	f.Add(append([]byte{3}, word(2.5e8, -1e-9, 12345.678, math.Inf(1), math.NaN())...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		words := raw[1:]
		n := 0
		next := func() float64 {
			if len(words) < 8 {
				return 0
			}
			off := 8 * (n % (len(words) / 8))
			n++
			return math.Float64frombits(binary.LittleEndian.Uint64(words[off:]))
		}
		pts := make([]scanPoint, raw[0]%4)
		for i := range pts {
			pts[i] = scanPoint{next(), next(), next(), next(), next(), next(), next()}
		}
		resp := &scanResponse{Version: scanVersion, Family: "ghost-exchange", Peers: capfamily.DemoPeers, N: capfamily.DemoN, Rounds: capfamily.DemoRounds, Results: pts}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		wantErr := enc.Encode(resp)
		got, err := appendScanResponse(nil, resp)
		switch {
		case wantErr != nil || err != nil:
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, encoder error %v", err, wantErr)
			}
		case !bytes.Equal(got, want.Bytes()):
			t.Fatalf("writer and encoder disagree:\n got: %q\nwant: %q", got, want.Bytes())
		}
	})
}

// TestScanBounds: a grid of more than maxScanPoints points is refused
// with a 400 naming its point count and each axis length, before it is
// built or keyed, so it leaves no result-cache entry. A grid of exactly
// maxScanPoints points is served.
func TestScanBounds(t *testing.T) {
	s, hs := newTestServer(t)
	axis := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = v * (1 + 1e-4*float64(k))
		}
		return out
	}
	big := scanRequest{BandwidthsBps: axis(200*platform.Mbps, 128), LatenciesS: axis(100e-6, 128), SpeedsHz: axis(3e9, 2)}
	code, body := postJSON(t, hs.URL+"/v1/scan", big)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "32768 points (128 bandwidths × 128 latencies × 2 speeds), max 16384") {
		t.Fatalf("oversized scan: status %d body %s", code, body)
	}
	if keys := s.sortedKeys(); len(keys) != 0 {
		t.Fatalf("a refused scan left result-cache entries: %v", keys)
	}
	edge := big
	edge.SpeedsHz = edge.SpeedsHz[:1]
	code, body = postJSON(t, hs.URL+"/v1/scan", edge)
	if code != http.StatusOK {
		t.Fatalf("scan of exactly %d points: status %d: %s", maxScanPoints, code, body)
	}
	var resp scanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != maxScanPoints {
		t.Fatalf("scan of exactly %d points answered %d", maxScanPoints, len(resp.Results))
	}
}

// BenchmarkScanRequest times one warm 256-point /v1/scan through the
// handler: an 8×8×4 grid inside the first discovery cell, shifted each
// iteration so the result cache misses. The render case times
// rendering one such reply alone.
func BenchmarkScanRequest(b *testing.B) {
	st, err := store.Open("")
	if err != nil {
		b.Fatal(err)
	}
	s, err := newServer(st)
	if err != nil {
		b.Fatal(err)
	}
	serve := func(req scanRequest) *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/scan", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return w
	}
	grids := discoveryGrids()
	serve(grids[0])
	warm := serve(grids[1])
	shifted := func(i int) scanRequest {
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		axis := func(v float64, n int) []float64 {
			out := make([]float64, n)
			for k := range out {
				out[k] = v * (1 + 0.03*(float64(k)+frac)/float64(n))
			}
			return out
		}
		return scanRequest{BandwidthsBps: axis(100*platform.Mbps, 8), LatenciesS: axis(300e-6, 8), SpeedsHz: axis(2e9, 4)}
	}
	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.mu.Lock()
			clear(s.results)
			s.mu.Unlock()
			body, err := json.Marshal(shifted(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			r := httptest.NewRequest(http.MethodPost, "/v1/scan", bytes.NewReader(body))
			w := httptest.NewRecorder()
			b.StartTimer()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	})
	b.Run("render", func(b *testing.B) {
		var resp scanResponse
		if err := json.Unmarshal(warm.Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := renderScan(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
