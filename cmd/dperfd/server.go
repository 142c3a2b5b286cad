package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/store"
)

// scanFamilyKey names the shared tape cache of the scan fixture,
// capfamily's demo family (the one the CLI's -scan smoke path
// cross-checks), on the predictor; concurrent and repeated scans
// replay each other's discovered regions.
const scanFamilyKey = "capfamily/ghost-exchange/p2/n256/r40"

// maxUploadBytes bounds one trace-set upload.
const maxUploadBytes = 256 << 20

// maxSweepConfigs bounds one sweep's expansion (platforms × ranks ×
// schemes). Every configuration costs a resolution and a row, and a
// successful reply stays in the result cache for the server's
// lifetime, so a request may not ask for more.
const maxSweepConfigs = 1024

// maxScanPoints bounds one scan's grid (bandwidths × latencies ×
// speeds): 64 scans of 256 points. Every point costs a replay and about
// 270 reply bytes, and a successful reply stays in the result cache for
// the server's lifetime, so a request may not ask for more.
const maxScanPoints = 16384

// server is the dperfd state shared by every request: the
// content-addressed trace-set store, the analytic predictor (platform
// identity + certificate + tape caches), the replay session pool, and
// the response cache.
//
// Every cache is stats-neutral by construction, which is the service's
// correctness story: a response is bit-identical to what a fresh
// single-process CLI run produces for the same inputs, no matter which
// requests warmed which caches first.
type server struct {
	store     *store.Store
	predictor *dperf.Predictor
	pool      *dperf.SessionPool
	scanFam   dperf.ScanFamily
	mux       *http.ServeMux

	mu      sync.Mutex
	results map[string][]byte // (endpoint, digest, canonical spec) → response bytes
	hits    int64
	misses  int64
}

// newServer assembles the service around an opened store.
func newServer(st *store.Store) (*server, error) {
	plat, err := capfamily.Star(capfamily.DemoPeers)
	if err != nil {
		return nil, err
	}
	s := &server{
		store:     st,
		predictor: dperf.NewPredictor(),
		pool:      dperf.NewSessionPool(),
		scanFam: dperf.ScanFamily{
			Platform:  plat,
			NumParams: capfamily.NumParams,
			Build:     capfamily.Family(plat, capfamily.DemoPeers, capfamily.DemoN, capfamily.DemoRounds, p2psap.Synchronous),
			Key:       scanFamilyKey,
		},
		results: make(map[string][]byte),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/tracesets", s.handlePutTraceSet)
	mux.HandleFunc("GET /v1/tracesets", s.handleListTraceSets)
	mux.HandleFunc("GET /v1/tracesets/{digest}", s.handleGetTraceSet)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	s.mux = mux
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// httpError reports a failure as plain text. Client-side problems are
// 400/404; anything reaching a replay error is still the client's spec
// (an unknown platform, an invalid scheme), so 422 marks "well-formed
// but unpredictable".
func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statsResponse is the ops snapshot: sizes and hit counts only, no
// timings — everything here is about the caches, not the predictions.
type statsResponse struct {
	TraceSets         int   `json:"trace_sets"`
	ResultEntries     int   `json:"result_cache_entries"`
	ResultHits        int64 `json:"result_cache_hits"`
	ResultMisses      int64 `json:"result_cache_misses"`
	IdleReplaySession int   `json:"idle_replay_sessions"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := statsResponse{
		ResultEntries: len(s.results),
		ResultHits:    s.hits,
		ResultMisses:  s.misses,
	}
	s.mu.Unlock()
	resp.TraceSets = s.store.Len()
	resp.IdleReplaySession = s.pool.Idle()
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// traceSetInfo describes one stored set.
type traceSetInfo struct {
	Digest   string  `json:"digest"`
	Size     int64   `json:"size_bytes"`
	Workload string  `json:"workload,omitempty"`
	Ranks    int     `json:"ranks"`
	Records  int64   `json:"records"`
	Ops      int     `json:"ops"`
	Analytic bool    `json:"analytic_eligible"`
	Created  bool    `json:"created,omitempty"`
	Scatter  float64 `json:"scatter_bytes"`
	Gather   float64 `json:"gather_bytes"`
}

func infoFor(e *store.Entry) traceSetInfo {
	return traceSetInfo{
		Digest:   e.Digest,
		Size:     e.Size,
		Workload: e.Set.Workload,
		Ranks:    e.Set.Ranks,
		Records:  e.Stats.Records,
		Ops:      e.Stats.Ops,
		Analytic: e.Stats.AnalyticEligible,
		Scatter:  e.Set.ScatterBytes,
		Gather:   e.Set.GatherBytes,
	}
}

func (s *server) handlePutTraceSet(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	e, created, err := s.store.Put(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	info := infoFor(e)
	info.Created = created
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	writeJSON(w, info)
}

func (s *server) handleListTraceSets(w http.ResponseWriter, r *http.Request) {
	entries := s.store.List()
	infos := make([]traceSetInfo, len(entries))
	for i, e := range entries {
		infos[i] = infoFor(e)
	}
	writeJSON(w, struct {
		TraceSets []traceSetInfo `json:"trace_sets"`
	}{infos})
}

func (s *server) handleGetTraceSet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.store.Get(r.PathValue("digest"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace set %q", r.PathValue("digest")))
		return
	}
	writeJSON(w, infoFor(e))
}

// predictRequest mirrors the CLI's replay-only flags: -platform,
// -no-fastforward, -predict-mode. Defaults match the CLI defaults, so
// an empty request body predicts exactly like
// `dperf -load-traces <set>`. ReplayWorkers stays only so that old
// clients asking for the removed parallel engine get an error (see
// checkReplayWorkers) instead of a silent serial run.
type predictRequest struct {
	Digest        string `json:"digest"`
	Platform      string `json:"platform,omitempty"`
	NoFastForward bool   `json:"no_fastforward,omitempty"`
	PredictMode   string `json:"predict_mode,omitempty"`
	ReplayWorkers int    `json:"replay_workers,omitempty"`
}

// checkReplayWorkers accepts only the serial engine's worker counts:
// 0 (the default) and 1. Both predict exactly like a request without
// the field and share its result-cache entry.
func checkReplayWorkers(n int) error {
	if n > 1 {
		return fmt.Errorf("replay_workers %d: the partitioned parallel replay engine was removed and every replay runs serially; omit the field or send 1", n)
	}
	if n < 0 {
		return fmt.Errorf("replay_workers must be >= 1, got %d", n)
	}
	return nil
}

// normalize fills CLI defaults and validates the mode.
func (pr *predictRequest) normalize() (dperf.PredictMode, error) {
	if pr.Platform == "" {
		pr.Platform = "grid5000"
	}
	if pr.PredictMode == "" {
		pr.PredictMode = "des"
	}
	if err := checkReplayWorkers(pr.ReplayWorkers); err != nil {
		return 0, err
	}
	return dperf.ParsePredictMode(pr.PredictMode)
}

// cacheKey canonicalizes the normalized request. Nothing about workers
// enters it: every accepted replay_workers value predicts the same
// bytes.
func (pr *predictRequest) cacheKey() string {
	return fmt.Sprintf("predict|%s|%s|%t|%s",
		pr.Digest, pr.Platform, pr.NoFastForward, pr.PredictMode)
}

// replayOptions are the shared-state options every replay-side request
// gets: the predictor pins platform identity (and serves the analytic
// tier), and the session pool keeps realized networks hot.
func (s *server) replayOptions(mode dperf.PredictMode, noFF bool) []dperf.Option {
	return []dperf.Option{
		dperf.WithFastForward(!noFF),
		dperf.WithPredictMode(mode),
		dperf.WithPredictor(s.predictor),
		dperf.WithEngine(s.pool),
	}
}

// cached serves key from the result cache, rendering on miss. Render
// results are cached only on success; errors are never cached.
func (s *server) cached(w http.ResponseWriter, key string, render func() ([]byte, error)) {
	s.mu.Lock()
	body, ok := s.results[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		var err error
		body, err = render()
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		s.mu.Lock()
		s.results[key] = body
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode, err := req.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e, ok := s.store.Get(req.Digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace set %q", req.Digest))
		return
	}
	s.cached(w, req.cacheKey(), func() ([]byte, error) {
		opts := append(s.replayOptions(mode, req.NoFastForward),
			dperf.WithPlatform(dperf.Kind(req.Platform)))
		pred, err := e.Set.Predict(opts...)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pred.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// sweepRequest mirrors the CLI's sweep flags. Workers is execution
// strategy only — sweep output is byte-identical at any worker count,
// and the server runs at most GOMAXPROCS of them — so it is excluded
// from the cache key, as is ReplayWorkers, which is kept only to
// refuse the removed parallel engine (see checkReplayWorkers).
type sweepRequest struct {
	Digest        string   `json:"digest"`
	Platforms     []string `json:"platforms,omitempty"`
	Ranks         []int    `json:"ranks,omitempty"`
	Schemes       []string `json:"schemes,omitempty"`
	NoFastForward bool     `json:"no_fastforward,omitempty"`
	PredictMode   string   `json:"predict_mode,omitempty"`
	ReplayWorkers int      `json:"replay_workers,omitempty"`
	Workers       int      `json:"workers,omitempty"`
}

func (sr *sweepRequest) normalize() (dperf.PredictMode, error) {
	if len(sr.Platforms) == 0 {
		// The CLI's default sweep spans all three evaluation platforms.
		sr.Platforms = []string{"grid5000", "xdsl", "lan"}
	}
	if len(sr.Schemes) == 0 {
		sr.Schemes = []string{"sync"}
	}
	if sr.PredictMode == "" {
		sr.PredictMode = "des"
	}
	if err := checkReplayWorkers(sr.ReplayWorkers); err != nil {
		return 0, err
	}
	// Checked before any entry is parsed or resolved.
	if n := len(sr.Platforms) * max(len(sr.Ranks), 1) * len(sr.Schemes); n > maxSweepConfigs {
		return 0, fmt.Errorf("sweep expands to %d configurations (%d platforms × %d ranks × %d schemes), max %d",
			n, len(sr.Platforms), max(len(sr.Ranks), 1), len(sr.Schemes), maxSweepConfigs)
	}
	return dperf.ParsePredictMode(sr.PredictMode)
}

// sweepKey keys a sweep reply by what the sweep runs: the trimmed
// platform kinds and the parsed schemes, not the request's spellings.
// Each list is encoded with %q or %v, so no two distinct sweeps share
// a key, even where a platform name contains a comma.
func sweepKey(digest string, space dperf.Space, noFastForward bool, mode dperf.PredictMode) string {
	return fmt.Sprintf("sweep|%s|%q|%v|%q|%t|%s",
		digest, space.Platforms, space.Ranks, space.Schemes, noFastForward, mode)
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode, err := req.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	space := dperf.Space{Ranks: req.Ranks}
	for _, p := range req.Platforms {
		space.Platforms = append(space.Platforms, dperf.Kind(strings.TrimSpace(p)))
	}
	for _, sch := range req.Schemes {
		scheme, err := dperf.ParseScheme(sch)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		space.Schemes = append(space.Schemes, scheme)
	}
	e, ok := s.store.Get(req.Digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace set %q", req.Digest))
		return
	}
	s.cached(w, sweepKey(req.Digest, space, req.NoFastForward, mode), func() ([]byte, error) {
		opts := []dperf.SweepOption{
			dperf.SweepOptions(s.replayOptions(mode, req.NoFastForward)...),
		}
		if req.Workers > 0 {
			opts = append(opts, dperf.SweepWorkers(min(req.Workers, runtime.GOMAXPROCS(0))))
		}
		res, err := dperf.Sweep(e.Set, space, opts...)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// scanRequest selects the grid over the fixed ghost-exchange family.
// Empty axes default to the CLI -scan fixture grid.
type scanRequest struct {
	BandwidthsBps []float64 `json:"bandwidths_bps,omitempty"`
	LatenciesS    []float64 `json:"latencies_s,omitempty"`
	SpeedsHz      []float64 `json:"speeds_hz,omitempty"`
}

func (sr *scanRequest) normalize() error {
	bws, lats, speeds := capfamily.DemoGrid()
	if len(sr.BandwidthsBps) == 0 {
		sr.BandwidthsBps = bws
	}
	if len(sr.LatenciesS) == 0 {
		sr.LatenciesS = lats
	}
	if len(sr.SpeedsHz) == 0 {
		sr.SpeedsHz = speeds
	}
	// Checked before the grid is built or keyed.
	if n := len(sr.BandwidthsBps) * len(sr.LatenciesS) * len(sr.SpeedsHz); n > maxScanPoints {
		return fmt.Errorf("scan grid has %d points (%d bandwidths × %d latencies × %d speeds), max %d",
			n, len(sr.BandwidthsBps), len(sr.LatenciesS), len(sr.SpeedsHz), maxScanPoints)
	}
	return nil
}

func (sr *scanRequest) cacheKey() string {
	var b strings.Builder
	b.WriteString("scan")
	for _, axis := range [][]float64{sr.BandwidthsBps, sr.LatenciesS, sr.SpeedsHz} {
		b.WriteByte('|')
		for i, v := range axis {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return b.String()
}

// scanVersion guards the scan response format.
const scanVersion = 1

type scanPoint struct {
	BandwidthBps float64 `json:"bandwidth_bps"`
	LatencyS     float64 `json:"latency_s"`
	SpeedHz      float64 `json:"speed_hz"`
	PredictedS   float64 `json:"predicted_s"`
	ScatterS     float64 `json:"scatter_s"`
	ComputeS     float64 `json:"compute_s"`
	GatherS      float64 `json:"gather_s"`
}

type scanResponse struct {
	Version int         `json:"dperfd_scan_version"`
	Family  string      `json:"family"`
	Peers   int         `json:"peers"`
	N       int         `json:"n"`
	Rounds  int         `json:"rounds"`
	Results []scanPoint `json:"results"`
}

// handleScan evaluates the fixed symbolic family over the requested
// grid through the predictor's shared guarded-tape cache. The response
// carries only the closed-form results — which are bit-identical to a
// full analytic evaluation per the tape contract — never the
// replay/fallback split, which depends on cache warmth and would make
// cached responses distinguishable from cold ones.
func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req scanRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := req.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.cached(w, req.cacheKey(), func() ([]byte, error) {
		np := s.scanFam.NumParams
		pts := make([]float64, 0, len(req.BandwidthsBps)*len(req.LatenciesS)*len(req.SpeedsHz)*np)
		for _, bw := range req.BandwidthsBps {
			for _, lat := range req.LatenciesS {
				for _, sp := range req.SpeedsHz {
					pts = append(pts, bw, lat, sp)
				}
			}
		}
		results := make([]scanPoint, len(pts)/np)
		_, err := s.predictor.Scan(s.scanFam, pts, func(i int, res *dperf.EngineResult) {
			results[i] = scanPoint{
				BandwidthBps: pts[i*np],
				LatencyS:     pts[i*np+1],
				SpeedHz:      pts[i*np+2],
				PredictedS:   res.PredictedSeconds,
				ScatterS:     res.ScatterSeconds,
				ComputeS:     res.ComputeSeconds,
				GatherS:      res.GatherSeconds,
			}
		})
		if err != nil {
			return nil, err
		}
		return renderScan(&scanResponse{
			Version: scanVersion,
			Family:  "ghost-exchange",
			Peers:   capfamily.DemoPeers,
			N:       capfamily.DemoN,
			Rounds:  capfamily.DemoRounds,
			Results: results,
		})
	})
}

// scanPointBytes bounds one rendered point: 163 bytes of keys,
// punctuation and indentation plus seven numbers of at most 25 bytes.
const scanPointBytes = 163 + 7*25

// scanBufs holds the scratch buffers scan replies are rendered into.
var scanBufs = sync.Pool{New: func() any { return new([]byte) }}

// renderScan renders resp into a pooled scratch buffer sized for its
// points and returns a copy exactly as long as the reply, which is what
// the result cache keeps.
func renderScan(resp *scanResponse) ([]byte, error) {
	bp := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(bp)
	b := slices.Grow((*bp)[:0], 256+len(resp.Results)*scanPointBytes)
	b, err := appendScanResponse(b, resp)
	*bp = b
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// scanPointKeys open the seven members of a rendered point, in
// scanPoint's field order.
var scanPointKeys = [7]string{
	"\n      \"bandwidth_bps\": ",
	"\n      \"latency_s\": ",
	"\n      \"speed_hz\": ",
	"\n      \"predicted_s\": ",
	"\n      \"scatter_s\": ",
	"\n      \"compute_s\": ",
	"\n      \"gather_s\": ",
}

// appendScanResponse appends resp to b byte for byte as a json.Encoder
// with SetIndent("", "  ") encodes it, trailing newline included, for
// non-nil Results (the encoder writes a nil slice as null). Like the
// encoder it refuses the first NaN or infinite number with a
// *json.UnsupportedValueError.
func appendScanResponse(b []byte, resp *scanResponse) ([]byte, error) {
	family, err := json.Marshal(resp.Family)
	if err != nil {
		return b, err
	}
	b = append(b, "{\n  \"dperfd_scan_version\": "...)
	b = strconv.AppendInt(b, int64(resp.Version), 10)
	b = append(b, ",\n  \"family\": "...)
	b = append(b, family...)
	b = append(b, ",\n  \"peers\": "...)
	b = strconv.AppendInt(b, int64(resp.Peers), 10)
	b = append(b, ",\n  \"n\": "...)
	b = strconv.AppendInt(b, int64(resp.N), 10)
	b = append(b, ",\n  \"rounds\": "...)
	b = strconv.AppendInt(b, int64(resp.Rounds), 10)
	b = append(b, ",\n  \"results\": "...)
	if len(resp.Results) == 0 {
		b = append(b, "[]"...)
	} else {
		// A grid repeats its axis values from point to point, and so do
		// the members that depend on only some axes: a member equal to
		// the previous point's copies that point's bytes instead of
		// formatting the number again.
		var prev [7]struct {
			bits   uint64
			lo, hi int
		}
		b = append(b, '[')
		for i := range resp.Results {
			p := &resp.Results[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {"...)
			for k, v := range [7]float64{p.BandwidthBps, p.LatencyS, p.SpeedHz, p.PredictedS, p.ScatterS, p.ComputeS, p.GatherS} {
				if k > 0 {
					b = append(b, ',')
				}
				b = append(b, scanPointKeys[k]...)
				bits := math.Float64bits(v)
				if i > 0 && bits == prev[k].bits {
					b = append(b, b[prev[k].lo:prev[k].hi]...)
					continue
				}
				lo := len(b)
				if b, err = appendJSONFloat(b, v); err != nil {
					return b, err
				}
				prev[k].bits, prev[k].lo, prev[k].hi = bits, lo, len(b)
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form with a one-digit negative exponent
// unpadded when |f| < 1e-6 or |f| >= 1e21. NaN and ±Inf are refused
// with the encoder's error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// sortedKeys is a test hook: the result-cache keys in deterministic
// order.
func (s *server) sortedKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
