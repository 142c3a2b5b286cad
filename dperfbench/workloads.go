package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/store"
)

// A workload is a seeded sequence of units; a unit is what one latency
// sample times. Unit i's inputs depend only on (seed, i).
type workload interface {
	// prefill writes artifacts into a store directory before dperfd
	// starts over it.
	prefill(dir string) error
	// warmup runs the set-up requests against a freshly started dperfd:
	// platform first use, and whatever else the workload's steady state
	// needs. None of them repeats a measured request.
	warmup(c *client) error
	// unit returns unit i's requests, or false once the seed's supply of
	// distinct units is exhausted.
	unit(i int) ([]request, bool)
	// expect renders unit i's responses through the library, in request
	// order, reduced the same way as request.canon.
	expect(i int, lib *library) ([][]byte, error)
	// predictions is the number of predictions one unit delivers.
	predictions() int
	// storedSets is the trace-set count dperfd must hold after n
	// measured units.
	storedSets(n int) int
	// memUnits is the measured unit count after which rss_peak_mb is
	// read. Every unit grows dperfd's unbounded caches, so the peak is
	// taken after a fixed amount of work rather than at the end, where
	// it would grow with the host's speed.
	memUnits() int
}

// request is one HTTP call of a unit.
type request struct {
	path string
	body []byte
	// canon reduces the response to the form verification compares; nil
	// compares the raw bytes.
	canon func([]byte) ([]byte, error)
}

func newWorkload(name string, seed uint64, fx *fixtures) (workload, error) {
	switch name {
	case "new-trace":
		return &newTrace{seed: seed, base: fx.o0}, nil
	case "irregular-replay":
		return newIrregular(seed, fx.o2, irregularSets)
	case "scan-grid":
		return &scanGrid{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadList())
}

var workloadNames = []string{"new-trace", "irregular-replay", "scan-grid"}

var kinds = []string{"grid5000", "xdsl", "lan"}

// library is the in-process rendering side of verification: the same
// shared serving state dperfd keeps, so every expected response comes
// from the same library calls dperfd makes.
type library struct {
	predictor *dperf.Predictor
	periods   *dperf.PeriodCache
	pool      *dperf.SessionPool
	scanFam   dperf.ScanFamily

	// The predictor's certificate cache and the period cache key trace
	// sources by address. A set the garbage collector frees can hand its
	// address to a later set, which would then be served the freed set's
	// certificate, so every set the library predicts stays alive for the
	// library's lifetime, as dperfd's store keeps its sets.
	mu   sync.Mutex
	sets []*dperf.TraceSet
}

func (l *library) retain(ts *dperf.TraceSet) {
	l.mu.Lock()
	l.sets = append(l.sets, ts)
	l.mu.Unlock()
}

func newLibrary() (*library, error) {
	fam, err := newScanFamily()
	if err != nil {
		return nil, err
	}
	return &library{
		predictor: dperf.NewPredictor(),
		periods:   dperf.NewPeriodCache(),
		pool:      dperf.NewSessionPool(),
		scanFam:   fam,
	}, nil
}

// options mirrors dperfd's replayOptions for a serial request.
func (l *library) options(mode dperf.PredictMode) []dperf.Option {
	return []dperf.Option{
		dperf.WithFastForward(true),
		dperf.WithPredictMode(mode),
		dperf.WithPredictor(l.predictor),
		dperf.WithPeriodCache(l.periods),
		dperf.WithEngine(l.pool),
	}
}

func (l *library) predict(ts *dperf.TraceSet, kind string, mode dperf.PredictMode) (*dperf.Prediction, []byte, error) {
	pred, err := ts.Predict(append(l.options(mode), dperf.WithPlatform(dperf.Kind(kind)))...)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := pred.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	return pred, buf.Bytes(), nil
}

// sweepSpace is new-trace's sweep: the three platforms × both schemes.
var sweepSpace = dperf.Space{
	Platforms: []dperf.Kind{"grid5000", "xdsl", "lan"},
	Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
}

func (l *library) sweep(ts *dperf.TraceSet) (*dperf.SweepResult, []byte, error) {
	res, err := dperf.Sweep(ts, sweepSpace, dperf.SweepOptions(l.options(dperf.PredictAuto)...), dperf.SweepWorkers(1))
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// admit parses an artifact exactly as dperfd's store does.
func admit(data []byte) (*dperf.TraceSet, *dperf.TraceStats, error) {
	ts, err := dperf.ReadTraceSetData("traceset", data)
	if err != nil {
		return nil, nil, err
	}
	if err := ts.Prepare(); err != nil {
		return nil, nil, err
	}
	st, err := ts.Stats()
	return ts, st, err
}

// uploadInfo is the part of dperfd's upload reply that verification
// compares; the server's own type lives in its main package.
type uploadInfo struct {
	Digest   string  `json:"digest"`
	Size     int64   `json:"size_bytes"`
	Workload string  `json:"workload"`
	Ranks    int     `json:"ranks"`
	Records  int64   `json:"records"`
	Ops      int     `json:"ops"`
	Analytic bool    `json:"analytic_eligible"`
	Created  bool    `json:"created"`
	Scatter  float64 `json:"scatter_bytes"`
	Gather   float64 `json:"gather_bytes"`
}

func (u uploadInfo) canon() []byte {
	return fmt.Appendf(nil, "%s|%d|%s|%d|%d|%d|%t|%t|%x|%x", u.Digest, u.Size, u.Workload, u.Ranks,
		u.Records, u.Ops, u.Analytic, u.Created, math.Float64bits(u.Scatter), math.Float64bits(u.Gather))
}

func canonUpload(body []byte) ([]byte, error) {
	var u uploadInfo
	if err := json.Unmarshal(body, &u); err != nil {
		return nil, fmt.Errorf("decoding upload reply: %w", err)
	}
	return u.canon(), nil
}

// newTrace: a user uploads a fresh trace set and explores it — one
// upload of a seeded variant of the O0 set, an auto-mode predict on
// each platform, and one auto-mode sweep over platforms × schemes.
type newTrace struct {
	seed uint64
	base *dperf.TraceSet
}

func (w *newTrace) predictions() int {
	return len(kinds) + len(sweepSpace.Platforms)*len(sweepSpace.Schemes)
}

func (w *newTrace) storedSets(n int) int { return n + 1 } // plus the warm-up set

func (w *newTrace) memUnits() int { return 150 }

func (w *newTrace) prefill(string) error { return nil }

func (w *newTrace) variant(purpose string, i int) ([]byte, error) {
	return variant(w.base, newRNG(w.seed, purpose, i).scaleFactor())
}

func (w *newTrace) requests(data []byte) []request {
	digest := store.Digest(data)
	reqs := []request{{path: "/v1/tracesets", body: data, canon: canonUpload}}
	for _, k := range kinds {
		reqs = append(reqs, request{path: "/v1/predict", body: mustJSON(map[string]any{
			"digest": digest, "platform": k, "predict_mode": "auto",
		})})
	}
	reqs = append(reqs, request{path: "/v1/sweep", body: mustJSON(map[string]any{
		"digest": digest, "platforms": kinds, "schemes": []string{"sync", "async"},
		"predict_mode": "auto", "workers": 1,
	})})
	return reqs
}

func (w *newTrace) warmup(c *client) error {
	data, err := w.variant("new-trace/warmup", 0)
	if err != nil {
		return err
	}
	for _, r := range w.requests(data) {
		if _, err := c.post(r.path, r.body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *newTrace) unit(i int) ([]request, bool) {
	data, err := w.variant("new-trace/unit", i)
	if err != nil {
		panic(err) // the base set serialized once already; a failure here is a bug
	}
	return w.requests(data), true
}

func (w *newTrace) expect(i int, lib *library) ([][]byte, error) {
	data, err := w.variant("new-trace/unit", i)
	if err != nil {
		return nil, err
	}
	ts, st, err := admit(data)
	if err != nil {
		return nil, err
	}
	lib.retain(ts)
	info := uploadInfo{
		Digest: store.Digest(data), Size: int64(len(data)), Workload: ts.Workload, Ranks: ts.Ranks,
		Records: st.Records, Ops: st.Ops, Analytic: st.AnalyticEligible, Created: true,
		Scatter: ts.ScatterBytes, Gather: ts.GatherBytes,
	}
	out := [][]byte{info.canon()}
	for _, k := range kinds {
		_, b, err := lib.predict(ts, k, dperf.PredictAuto)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	_, b, err := lib.sweep(ts)
	if err != nil {
		return nil, err
	}
	return append(out, b), nil
}

// irregularSets is the number of stored O2 variants. With three
// platforms each gives three distinct (set, platform) units: 1500,
// enough for a 15 s measured phase at 10 ms a unit.
const irregularSets = 500

// irregular: stored sets that never settle, predicted on platforms
// they have not been predicted on. dperfd restarts over a store
// directory pre-filled with seeded O2 variants; one unit is one
// default predict (DES mode, fast-forward on) of a distinct
// (set, platform) pair.
type irregular struct {
	seed  uint64
	sets  [][]byte // sets[0] is the warm-up set
	pairs [][2]int // (set, platform) in seeded order

	mu     sync.Mutex
	parsed map[int]*dperf.TraceSet
}

func newIrregular(seed uint64, base *dperf.TraceSet, n int) (*irregular, error) {
	w := &irregular{seed: seed, parsed: make(map[int]*dperf.TraceSet)}
	for s := 0; s <= n; s++ {
		data, err := variant(base, newRNG(seed, "irregular-replay/set", s).scaleFactor())
		if err != nil {
			return nil, err
		}
		w.sets = append(w.sets, data)
		if s == 0 {
			continue
		}
		for k := range kinds {
			w.pairs = append(w.pairs, [2]int{s, k})
		}
	}
	r := newRNG(seed, "irregular-replay/order", 0)
	for i := len(w.pairs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		w.pairs[i], w.pairs[j] = w.pairs[j], w.pairs[i]
	}
	return w, nil
}

func (w *irregular) predictions() int { return 1 }

func (w *irregular) storedSets(int) int { return len(w.sets) }

func (w *irregular) memUnits() int { return 300 }

func (w *irregular) prefill(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, data := range w.sets {
		if err := os.WriteFile(filepath.Join(dir, store.Digest(data)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func predictBody(data []byte, kind string) []byte {
	return mustJSON(map[string]any{"digest": store.Digest(data), "platform": kind})
}

func (w *irregular) warmup(c *client) error {
	for _, k := range kinds {
		if _, err := c.post("/v1/predict", predictBody(w.sets[0], k)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *irregular) unit(i int) ([]request, bool) {
	if i >= len(w.pairs) {
		return nil, false
	}
	p := w.pairs[i]
	return []request{{path: "/v1/predict", body: predictBody(w.sets[p[0]], kinds[p[1]])}}, true
}

// set returns stored set s parsed as the store parses it.
func (w *irregular) set(s int) (*dperf.TraceSet, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ts, ok := w.parsed[s]; ok {
		return ts, nil
	}
	ts, _, err := admit(w.sets[s])
	if err != nil {
		return nil, err
	}
	w.parsed[s] = ts
	return ts, nil
}

func (w *irregular) expect(i int, lib *library) ([][]byte, error) {
	p := w.pairs[i]
	ts, err := w.set(p[0])
	if err != nil {
		return nil, err
	}
	_, b, err := lib.predict(ts, kinds[p[1]], dperf.PredictDES)
	if err != nil {
		return nil, err
	}
	return [][]byte{b}, nil
}

// The scan family dperfd serves: the ghost-exchange capacity family on
// a 2-peer star at n=256 over 40 rounds.
const (
	scanPeers  = 2
	scanN      = 256
	scanRounds = 40
	scanKey    = "capfamily/ghost-exchange/p2/n256/r40"
)

func newScanFamily() (dperf.ScanFamily, error) {
	plat, err := capfamily.Star(scanPeers)
	if err != nil {
		return dperf.ScanFamily{}, err
	}
	return dperf.ScanFamily{
		Platform:  plat,
		NumParams: capfamily.NumParams,
		Build:     capfamily.Family(plat, scanPeers, scanN, scanRounds, p2psap.Synchronous),
		Key:       scanKey,
	}, nil
}

// scanCells are the fixed (bandwidth, latency, speed) corners of the
// cells scan-grid draws its sub-grids from. Each spans scanCellWidth
// of its corner on every axis and holds few guard regions, so once
// set-up has scanned it nearly every later point replays a cached
// tape. The cells are fixed rather than seeded so that every seed
// costs the same; the seed picks the sub-grids and their order.
var scanCells = [][3]float64{
	{100 * platform.Mbps, 300e-6, 2e9},
	{50 * platform.Mbps, 2e-3, 3e9},
	{20 * platform.Mbps, 10e-3, 1e9},
}

const scanCellWidth = 0.03

// scanAxes is the 8×8×4 sub-grid of one scan request.
type scanAxes struct {
	Bandwidths []float64 `json:"bandwidths_bps"`
	Latencies  []float64 `json:"latencies_s"`
	Speeds     []float64 `json:"speeds_hz"`
}

func (a *scanAxes) points() []float64 {
	pts := make([]float64, 0, 3*len(a.Bandwidths)*len(a.Latencies)*len(a.Speeds))
	for _, bw := range a.Bandwidths {
		for _, lat := range a.Latencies {
			for _, sp := range a.Speeds {
				pts = append(pts, bw, lat, sp)
			}
		}
	}
	return pts
}

// cellAxes draws an 8×8×4 sub-grid uniformly inside a cell.
func cellAxes(r *rng, cell [3]float64) *scanAxes {
	return gridAxes(cell, func(int, int) float64 { return r.float() })
}

// gridAxes builds an 8×8×4 grid inside a cell; at(k, n) places the
// k-th of n values on an axis, as a fraction of the cell's width.
func gridAxes(cell [3]float64, at func(k, n int) float64) *scanAxes {
	axis := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for k := range out {
			out[k] = v * (1 + scanCellWidth*at(k, n))
		}
		return out
	}
	return &scanAxes{Bandwidths: axis(cell[0], 8), Latencies: axis(cell[1], 8), Speeds: axis(cell[2], 4)}
}

// discovery is the fixed set of grids set-up scans: per cell, one grid
// through its corners and one through the midpoints between them. It
// is the same for every seed because the tape cache it leaves decides
// how far each later scan searches for its first tape, which would
// otherwise move the latency with the seed.
func discovery() []*scanAxes {
	var out []*scanAxes
	for _, cell := range scanCells {
		out = append(out,
			gridAxes(cell, func(k, n int) float64 { return float64(k) / float64(n-1) }),
			gridAxes(cell, func(k, n int) float64 { return (float64(k) + 0.5) / float64(n) }))
	}
	return out
}

// scanPoint and scanReply mirror dperfd's scan response.
type scanPoint struct {
	BandwidthBps float64 `json:"bandwidth_bps"`
	LatencyS     float64 `json:"latency_s"`
	SpeedHz      float64 `json:"speed_hz"`
	PredictedS   float64 `json:"predicted_s"`
	ScatterS     float64 `json:"scatter_s"`
	ComputeS     float64 `json:"compute_s"`
	GatherS      float64 `json:"gather_s"`
}

type scanReply struct {
	Version int         `json:"dperfd_scan_version"`
	Family  string      `json:"family"`
	Peers   int         `json:"peers"`
	N       int         `json:"n"`
	Rounds  int         `json:"rounds"`
	Results []scanPoint `json:"results"`
}

// canon reduces a scan reply to its header and every point's float
// bits, so verification compares floats bit for bit.
func (s *scanReply) canon() []byte {
	b := fmt.Appendf(nil, "%d|%s|%d|%d|%d|%d", s.Version, s.Family, s.Peers, s.N, s.Rounds, len(s.Results))
	for _, p := range s.Results {
		for _, v := range []float64{p.BandwidthBps, p.LatencyS, p.SpeedHz, p.PredictedS, p.ScatterS, p.ComputeS, p.GatherS} {
			b = fmt.Appendf(b, "|%x", math.Float64bits(v))
		}
	}
	return b
}

func canonScan(body []byte) ([]byte, error) {
	var s scanReply
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("decoding scan reply: %w", err)
	}
	return s.canon(), nil
}

// scanGrid: a capacity planner scans the fixed ghost-exchange family.
// Set-up scans fixed grids over every cell to discover its tape
// regions; one unit is one scan of a seeded 8×8×4 sub-grid inside one
// cell — 256 points, a result-cache miss, almost all tape hits.
type scanGrid struct{ seed uint64 }

func (w *scanGrid) predictions() int { return 8 * 8 * 4 }

func (w *scanGrid) storedSets(int) int { return 0 }

func (w *scanGrid) memUnits() int { return 1000 }

func (w *scanGrid) prefill(string) error { return nil }

func (w *scanGrid) warmup(c *client) error {
	for _, a := range discovery() {
		if _, err := c.post("/v1/scan", mustJSON(a)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// axes returns unit i's sub-grid. Units visit the cells round-robin in
// a seeded order per round, so every cell gets the same share.
func (w *scanGrid) axes(i int) *scanAxes {
	n := len(scanCells)
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	r := newRNG(w.seed, "scan-grid/order", i/n)
	for k := n - 1; k > 0; k-- {
		j := r.intn(k + 1)
		order[k], order[j] = order[j], order[k]
	}
	return cellAxes(newRNG(w.seed, "scan-grid/unit", i), scanCells[order[i%n]])
}

func (w *scanGrid) unit(i int) ([]request, bool) {
	a := w.axes(i)
	return []request{{path: "/v1/scan", body: mustJSON(a), canon: canonScan}}, true
}

func (w *scanGrid) expect(i int, lib *library) ([][]byte, error) {
	a := w.axes(i)
	pts := a.points()
	reply, _, err := lib.scan(pts)
	if err != nil {
		return nil, err
	}
	// The library's tapes answer every point; one seeded point per unit
	// is also checked against a full analytic evaluation, the oracle
	// the tapes are bit-identical to.
	k := newRNG(w.seed, "scan-grid/oracle", i).intn(len(reply.Results))
	p := reply.Results[k]
	ref, err := capfamily.Evaluate(scanPeers, scanN, scanRounds, p2psap.Synchronous, p.BandwidthBps, p.LatencyS, p.SpeedHz)
	if err != nil {
		return nil, err
	}
	if ref.PredictedSeconds != p.PredictedS || ref.ScatterSeconds != p.ScatterS ||
		ref.ComputeSeconds != p.ComputeS || ref.GatherSeconds != p.GatherS {
		return nil, fmt.Errorf("tape replay diverged from full evaluation at point %d of unit %d", k, i)
	}
	return [][]byte{reply.canon()}, nil
}

// scan renders a scan reply through the library's shared tape cache.
func (l *library) scan(pts []float64) (*scanReply, *dperf.ScanStats, error) {
	np := l.scanFam.NumParams
	reply := &scanReply{Version: 1, Family: "ghost-exchange", Peers: scanPeers, N: scanN, Rounds: scanRounds,
		Results: make([]scanPoint, len(pts)/np)}
	stats, err := l.predictor.Scan(l.scanFam, pts, func(i int, res *dperf.EngineResult) {
		reply.Results[i] = scanPoint{
			BandwidthBps: pts[i*np], LatencyS: pts[i*np+1], SpeedHz: pts[i*np+2],
			PredictedS: res.PredictedSeconds, ScatterS: res.ScatterSeconds,
			ComputeS: res.ComputeSeconds, GatherS: res.GatherSeconds,
		}
	})
	return reply, stats, err
}

func workloadList() string { return strings.Join(workloadNames, ", ") }
