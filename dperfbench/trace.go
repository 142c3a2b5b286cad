package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/dperf"
	"repro/internal/analytic"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/store"
)

// The traced invocation. For every workload it first drives a dperfd
// child through the workload's first units, for their end-to-end
// latency, then replays the same units in-process against the layers'
// public functions — the calls dperfd's handlers make — with a span
// around each call. A layer's own breakdown (decode and stats inside
// store.Put, certify and verification replay inside an auto predict) is
// re-executed after the unit as shadow spans parented to the call they
// break down, because the benchmark can only time calls it makes
// itself. Per-layer numbers come from here, never from a timed run.

// tracedUnits is how many units each workload replays.
var tracedUnits = map[string]int{"new-trace": 40, "irregular-replay": 60, "scan-grid": 300}

// span is one timed call. Spans of one unit share Unit; Parent indexes
// the span that caused it (-1 for a unit's root).
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Unit     int    `json:"unit"`
	// Shadow marks a re-execution that breaks its parent down; it ran
	// after the unit, not inside the parent's interval.
	Shadow bool `json:"shadow,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	// allocs sums the heap bytes allocated inside unit spans.
	allocs     uint64
	allocStart uint64
}

// beginUnit opens unit i's root span.
func (t *tracer) beginUnit(i int) int {
	t.allocStart = allocBytes()
	return t.begin("unit", -1, i, false)
}

func (t *tracer) endUnit(id int) {
	t.end(id)
	t.allocs += allocBytes() - t.allocStart
}

func (t *tracer) begin(name string, parent, unit int, shadow bool) int {
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, Start: int64(time.Since(t.t0)),
		Parent: parent, Unit: unit, Shadow: shadow})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, unit int, shadow bool, f func() error) (int, error) {
	id := t.begin(name, parent, unit, shadow)
	err := f()
	t.end(id)
	return id, err
}

// layer aggregates one span name over a workload's units.
type layer struct {
	calls int
	total time.Duration
}

func (t *tracer) layers(workload string) map[string]*layer {
	out := map[string]*layer{}
	for _, s := range t.spans {
		if s.Workload != workload || s.Name == "unit" {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		l.calls++
		l.total += time.Duration(s.End - s.Start)
	}
	return out
}

// perCall returns the mean duration of one call in ms.
func (l *layer) perCall() float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.total) / 1e6 / float64(l.calls)
}

// unitSums returns, per unit, the summed duration of the unit's
// non-shadow layer spans in ms.
func (t *tracer) unitSums(workload string, units int) []float64 {
	sums := make([]float64, units)
	for _, s := range t.spans {
		if s.Workload == workload && s.Name != "unit" && !s.Shadow && s.Unit >= 0 {
			sums[s.Unit] += float64(s.End-s.Start) / 1e6
		}
	}
	return sums
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap returns the heap in use right after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// traced collects one traced invocation's outputs.
type traced struct {
	tr        *tracer
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	readings  probes
	plats     map[string]*platform.Platform
}

func (t *traced) set(name, unit string, v float64) { t.metrics[name] = metric{Value: v, Unit: unit} }

func (t *traced) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// compare checks an in-process rendering against the response dperfd
// gave for the same request.
func (t *traced) compare(u *unitSample, k int, got []byte, what string) {
	if k >= len(u.checks) || sha256.Sum256(got) != u.checks[k] {
		t.problem("%s: dperfd's response differs from the in-process rendering", what)
	}
}

// runTracedAll runs the traced invocation over every workload and
// prints each one's per-layer table.
func runTracedAll(out io.Writer, fx *fixtures, dperfd, root, tmp string, seed uint64, meta map[string]any) (*result, error) {
	t := &traced{tr: &tracer{t0: time.Now()}, metrics: map[string]metric{}}
	t.readings = append(t.readings, probe())
	if err := t.platformFirstUse(fx); err != nil {
		return nil, err
	}
	for _, name := range workloadNames {
		t.tr.workload = name
		w, err := newWorkload(name, seed, fx)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(tmp, "traced-"+name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		n := tracedUnits[name]
		drive, err := runTimed(w, dperfd, dir, phase{seconds: 600, limit: n, setups: 1})
		if err != nil {
			return nil, err
		}
		t.readings = append(t.readings, drive.readings...)
		t.attempted += len(drive.units)
		t.failed += drive.failed
		t.problems = append(t.problems, drive.problems...)
		prefix := name + "."
		t.set(prefix+"dperfd.result_cache_entries", "count", float64(drive.stats.ResultEntries))
		var respBytes int
		for _, u := range drive.units {
			respBytes += u.bytes
		}
		t.set(prefix+"dperfd.response_kb", "KB", float64(respBytes)/1024/float64(len(drive.units)))

		t.tr.allocs = 0
		switch w := w.(type) {
		case *newTrace:
			err = t.newTrace(w, drive, filepath.Join(dir, "inproc"))
		case *irregular:
			err = t.irregular(w, drive, filepath.Join(dir, "store-0"))
		case *scanGrid:
			err = t.scanGrid(w, drive)
		}
		if err != nil {
			return nil, err
		}
		t.set(prefix+"process.alloc_kb_per_unit", "KB", float64(t.tr.allocs)/1024/float64(n))

		lat := make([]float64, 0, n)
		for _, u := range drive.units {
			lat = append(lat, float64(u.lat)/1e6)
		}
		p50 := percentile(lat, 50)
		sum := median(t.tr.unitSums(name, n))
		t.set(prefix+"dperfd.unexplained_ms", "ms", p50-sum)
		t.printTable(out, name, n, p50, sum)
	}
	t.set("host.probe_rate", "1/s", t.readings.mean())
	if err := t.writeSpans(root, meta); err != nil {
		return nil, err
	}
	for _, p := range t.problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	meta["probe_rate"] = t.readings.mean()
	meta["traced_units"] = tracedUnits
	line, _ := json.Marshal(meta)
	fmt.Fprintf(out, "meta %s\n", line)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics}, nil
}

// platformFirstUse builds each evaluation platform and replays the O0
// base set on it twice: the first replay pays for realizing the
// platform, the second is warm. The platforms are kept for the
// breakdown spans.
func (t *traced) platformFirstUse(fx *fixtures) error {
	t.plats = map[string]*platform.Platform{}
	var total time.Duration
	for _, k := range kinds {
		start := time.Now()
		plat, err := platform.ForKind(platform.Kind(k), fx.o0.Ranks)
		if err != nil {
			return err
		}
		sess, err := replay.NewSession(plat)
		if err != nil {
			return err
		}
		spec := replaySpec(plat, fx.o0, replay.FFOn)
		if _, err := sess.RunSource(spec, fx.o0.Source()); err != nil {
			return err
		}
		first := time.Since(start)
		start = time.Now()
		if _, err := sess.RunSource(spec, fx.o0.Source()); err != nil {
			return err
		}
		total += first - time.Since(start)
		t.plats[k] = plat
	}
	t.set("platform.first_use_ms", "ms", float64(total)/1e6)
	return nil
}

// replaySpec is the spec dperf builds for a serial synchronous predict
// of ts on plat.
func replaySpec(plat *platform.Platform, ts *dperf.TraceSet, ff replay.FFMode) replay.Spec {
	return replay.Spec{
		Platform:     plat,
		Hosts:        plat.Hosts()[:ts.Ranks],
		Submitter:    plat.Frontend,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: ts.ScatterBytes,
		GatherBytes:  ts.GatherBytes,
		FastForward:  ff,
	}
}

func (t *traced) newTrace(w *newTrace, drive *timedRun, dir string) error {
	const prefix = "new-trace."
	tr := t.tr
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	lib, err := newLibrary()
	if err != nil {
		return err
	}
	// The same warm-up dperfd got, untraced.
	warm, err := w.variant("new-trace/warmup", 0)
	if err != nil {
		return err
	}
	e, _, err := st.Put(warm)
	if err != nil {
		return err
	}
	for _, k := range kinds {
		if _, _, err := lib.predict(e.Set, k, dperf.PredictAuto); err != nil {
			return err
		}
	}
	if _, _, err := lib.sweep(e.Set); err != nil {
		return err
	}

	models := map[string]*analytic.Model{}
	for _, k := range kinds {
		if models[k], err = analytic.NewModel(t.plats[k]); err != nil {
			return err
		}
	}
	var preds, analyticPreds int
	var simulated, skipped int64
	var records, ops int64
	for i := range drive.units {
		u := &drive.units[i]
		data, err := w.variant("new-trace/unit", i)
		if err != nil {
			return err
		}
		root := tr.beginUnit(i)
		var e *store.Entry
		put, err := tr.timed("store.put", root, i, false, func() (err error) {
			e, _, err = st.Put(data)
			return err
		})
		if err != nil {
			return err
		}
		predictSpans := map[string]int{}
		for ki, k := range kinds {
			var pred *dperf.Prediction
			id, err := tr.timed("dperf.predict", root, i, false, func() (err error) {
				pred, err = e.Set.Predict(append(lib.options(dperf.PredictAuto), dperf.WithPlatform(dperf.Kind(k)))...)
				return err
			})
			if err != nil {
				return err
			}
			predictSpans[k] = id
			var buf bytes.Buffer
			if _, err := tr.timed("dperf.write_json", root, i, false, func() error { return pred.WriteJSON(&buf) }); err != nil {
				return err
			}
			t.compare(u, 1+ki, buf.Bytes(), fmt.Sprintf("new-trace unit %d predict %s", i, k))
			preds++
			if pred.Tier == dperf.TierAnalytic {
				analyticPreds++
			}
		}
		var res *dperf.SweepResult
		if _, err := tr.timed("dperf.sweep", root, i, false, func() (err error) {
			res, err = dperf.Sweep(e.Set, sweepSpace, dperf.SweepOptions(lib.options(dperf.PredictAuto)...), dperf.SweepWorkers(1))
			return err
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if _, err := tr.timed("dperf.write_json", root, i, false, func() error { return res.WriteJSON(&buf) }); err != nil {
			return err
		}
		tr.endUnit(root)
		t.compare(u, 1+len(kinds), buf.Bytes(), fmt.Sprintf("new-trace unit %d sweep", i))
		for _, r := range res.Results {
			preds++
			if r.Prediction != nil && r.Prediction.Tier == dperf.TierAnalytic {
				analyticPreds++
			}
		}
		records, ops = e.Stats.Records, int64(e.Stats.Ops)

		// Breakdown of store.Put: the parse and the admission-time
		// measurement.
		var ts *dperf.TraceSet
		if _, err := tr.timed("trace.decode", put, i, true, func() (err error) {
			ts, err = dperf.ReadTraceSetData("traceset", data)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.timed("dperf.stats", put, i, true, func() error {
			if err := ts.Prepare(); err != nil {
				return err
			}
			_, err := ts.Stats()
			return err
		}); err != nil {
			return err
		}
		// Breakdown of each auto predict: certification, the
		// verification replay on a fresh environment, and the host list.
		for _, k := range kinds {
			plat := t.plats[k]
			spec := replaySpec(plat, ts, replay.FFOn)
			if _, err := tr.timed("analytic.certify", predictSpans[k], i, true, func() error {
				_, err := models[k].Certify(analytic.Spec{Platform: plat, Hosts: spec.Hosts, Submitter: spec.Submitter,
					Scheme: spec.Scheme, ScatterBytes: spec.ScatterBytes, GatherBytes: spec.GatherBytes, Source: ts.Source()})
				return err
			}); err != nil {
				return err
			}
			var rr *replay.Result
			if _, err := tr.timed("replay.verify_run", predictSpans[k], i, true, func() (err error) {
				rr, err = replay.RunSource(spec, ts.Source())
				return err
			}); err != nil {
				return err
			}
			simulated += rr.FF.RoundsSimulated
			skipped += rr.FF.RoundsFastForwarded
			tr.timed("platform.hosts", predictSpans[k], i, true, func() error {
				plat.Hosts()
				return nil
			})
		}
	}
	n := len(drive.units)
	ls := tr.layers("new-trace")
	t.set(prefix+"store.put_ms", "ms", ls["store.put"].perCall())
	t.set(prefix+"trace.decode_ms", "ms", ls["trace.decode"].perCall())
	t.set(prefix+"trace.records", "count", float64(records))
	t.set(prefix+"trace.ops", "count", float64(ops))
	t.set(prefix+"dperf.stats_ms", "ms", ls["dperf.stats"].perCall())
	t.set(prefix+"dperf.predict_ms", "ms", ls["dperf.predict"].perCall())
	t.set(prefix+"dperf.sweep_ms", "ms", ls["dperf.sweep"].perCall())
	t.set(prefix+"dperf.write_json_us", "us", ls["dperf.write_json"].perCall()*1e3)
	t.set(prefix+"dperf.analytic_share", "ratio", float64(analyticPreds)/float64(preds))
	t.set(prefix+"analytic.certify_ms", "ms", ls["analytic.certify"].perCall())
	t.set(prefix+"replay.verify_run_ms", "ms", ls["replay.verify_run"].perCall())
	t.set(prefix+"replay.rounds_simulated", "count", float64(simulated)/float64(n*len(kinds)))
	t.set(prefix+"replay.ff_skip_ratio", "ratio", float64(skipped)/float64(simulated+skipped))
	t.set(prefix+"platform.hosts_us", "us", ls["platform.hosts"].perCall()*1e3)

	// Live heap per admitted set, on a store of its own.
	mem, err := store.Open("")
	if err != nil {
		return err
	}
	before := liveHeap()
	for i := 0; i < n; i++ {
		data, err := w.variant("new-trace/unit", i)
		if err != nil {
			return err
		}
		if _, _, err := mem.Put(data); err != nil {
			return err
		}
	}
	after := liveHeap()
	runtime.KeepAlive(mem)
	t.set(prefix+"store.retained_kb_per_set", "KB", (float64(after)-float64(before))/1024/float64(n))
	return nil
}

func (t *traced) irregular(w *irregular, drive *timedRun, dir string) error {
	const prefix = "irregular-replay."
	tr := t.tr
	// Re-admission of the pre-filled store, as dperfd does at start.
	before := liveHeap()
	var st *store.Store
	if _, err := tr.timed("store.open", -1, -1, false, func() (err error) {
		st, err = store.Open(dir)
		return err
	}); err != nil {
		return err
	}
	after := liveHeap()
	ls := tr.layers("irregular-replay")
	t.set(prefix+"store.put_ms", "ms", ls["store.open"].perCall()/float64(st.Len()))
	t.set(prefix+"store.retained_kb_per_set", "KB", (float64(after)-float64(before))/1024/float64(st.Len()))

	lib, err := newLibrary()
	if err != nil {
		return err
	}
	entry := func(s int) *store.Entry {
		e, _ := st.Get(store.Digest(w.sets[s]))
		return e
	}
	for _, k := range kinds {
		if _, _, err := lib.predict(entry(0).Set, k, dperf.PredictDES); err != nil {
			return err
		}
	}
	sessions := map[string]*replay.Session{}
	for _, k := range kinds {
		if sessions[k], err = replay.NewSession(t.plats[k]); err != nil {
			return err
		}
	}
	var simulated, skipped int64
	for i := range drive.units {
		u := &drive.units[i]
		pair := w.pairs[i]
		e, k := entry(pair[0]), kinds[pair[1]]
		root := tr.beginUnit(i)
		var pred *dperf.Prediction
		id, err := tr.timed("dperf.predict", root, i, false, func() (err error) {
			pred, err = e.Set.Predict(append(lib.options(dperf.PredictDES), dperf.WithPlatform(dperf.Kind(k)))...)
			return err
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if _, err := tr.timed("dperf.write_json", root, i, false, func() error { return pred.WriteJSON(&buf) }); err != nil {
			return err
		}
		tr.endUnit(root)
		t.compare(u, 0, buf.Bytes(), fmt.Sprintf("irregular-replay unit %d", i))

		// Breakdown: the pooled session replay inside the predict.
		var rr *replay.Result
		if _, err := tr.timed("replay.session_run", id, i, true, func() (err error) {
			rr, err = sessions[k].RunSource(replaySpec(t.plats[k], e.Set, replay.FFOn), e.Set.Source())
			return err
		}); err != nil {
			return err
		}
		simulated += rr.FF.RoundsSimulated
		skipped += rr.FF.RoundsFastForwarded
	}
	n := len(drive.units)
	ls = tr.layers("irregular-replay")
	t.set(prefix+"dperf.predict_ms", "ms", ls["dperf.predict"].perCall())
	t.set(prefix+"dperf.write_json_us", "us", ls["dperf.write_json"].perCall()*1e3)
	t.set(prefix+"replay.session_run_ms", "ms", ls["replay.session_run"].perCall())
	t.set(prefix+"replay.rounds_simulated", "count", float64(simulated)/float64(n))
	t.set(prefix+"replay.ff_skip_ratio", "ratio", float64(skipped)/float64(simulated+skipped))
	return t.parallelLine(entry(w.pairs[0][0]).Set)
}

// parallelLine compares a serial session with the two-worker parallel
// engine on one irregular set, fast-forward off, on grid5000.
func (t *traced) parallelLine(ts *dperf.TraceSet) error {
	const prefix = "irregular-replay."
	plat := t.plats["grid5000"]
	spec := replaySpec(plat, ts, replay.FFOff)
	sess, err := replay.NewSession(plat)
	if err != nil {
		return err
	}
	par, err := replay.NewParallelEngine(plat, 2)
	if err != nil {
		return err
	}
	const reps = 5
	var serial, parallel []float64
	var sres, pres *replay.Result
	for r := 0; r < reps; r++ {
		start := time.Now()
		if sres, err = sess.RunSource(spec, ts.Source()); err != nil {
			return err
		}
		serial = append(serial, float64(time.Since(start)))
		start = time.Now()
		if pres, err = par.RunSource(spec, ts.Source()); err != nil {
			return err
		}
		parallel = append(parallel, float64(time.Since(start)))
	}
	if pres.PredictedSeconds != sres.PredictedSeconds {
		t.problem("parallel engine predicted %v, serial %v", pres.PredictedSeconds, sres.PredictedSeconds)
	}
	if pres.Par.Workers != 2 {
		t.problem("parallel engine fell back to %d worker(s)", pres.Par.Workers)
	}
	t.set(prefix+"replay.parallel_w2_speedup", "ratio", median(serial)/median(parallel))
	t.set(prefix+"replay.parallel_windows", "count", float64(pres.Par.Windows))
	t.set(prefix+"replay.parallel_boundary_records", "count", float64(pres.Par.BoundaryRecords))
	return nil
}

func (t *traced) scanGrid(w *scanGrid, drive *timedRun) error {
	const prefix = "scan-grid."
	tr := t.tr
	lib, err := newLibrary()
	if err != nil {
		return err
	}
	// The same region discovery dperfd's set-up ran, untraced.
	for _, a := range discovery() {
		if _, _, err := lib.scan(a.points()); err != nil {
			return err
		}
	}
	var replayed, fallbacks, regions, points int
	for i := range drive.units {
		u := &drive.units[i]
		a := w.axes(i)
		pts := a.points()
		root := tr.beginUnit(i)
		var reply *scanReply
		var stats *dperf.ScanStats
		if _, err := tr.timed("analytic.scan", root, i, false, func() (err error) {
			reply, stats, err = lib.scan(pts)
			return err
		}); err != nil {
			return err
		}
		tr.endUnit(root)
		t.compare(u, 0, reply.canon(), fmt.Sprintf("scan-grid unit %d", i))
		replayed += stats.Replayed
		fallbacks += stats.Fallbacks
		regions = stats.Regions
		points += stats.Points
	}
	ls := tr.layers("scan-grid")
	t.set(prefix+"analytic.scan_us_per_point", "us", ls["analytic.scan"].perCall()*1e3*float64(len(drive.units))/float64(points))
	t.set(prefix+"analytic.tape_replayed_ratio", "ratio", float64(replayed)/float64(points))
	t.set(prefix+"analytic.tape_fallbacks", "count", float64(fallbacks))
	t.set(prefix+"analytic.tape_regions", "count", float64(regions))
	t.set(prefix+"dperfd.result_cache_hits", "count", float64(drive.stats.ResultHits))
	return nil
}

// printTable prints a workload's per-layer table: each layer's time per
// unit and share of the dperfd p50, the remainder the layers do not
// explain, and the re-executed breakdowns.
func (t *traced) printTable(out io.Writer, name string, units int, p50, layerSum float64) {
	ls := t.tr.layers(name)
	shadow := map[string]bool{}
	for _, s := range t.tr.spans {
		if s.Workload == name && s.Shadow {
			shadow[s.Name] = true
		}
	}
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s: %d units, dperfd latency p50 %.4g ms\n", name, units, p50)
	fmt.Fprintf(out, "  %-24s %6s %10s %8s\n", "layer", "calls", "ms/unit", "of p50")
	for _, n := range names {
		if shadow[n] || n == "store.open" {
			continue
		}
		perUnit := float64(ls[n].total) / 1e6 / float64(units)
		fmt.Fprintf(out, "  %-24s %6d %10.4g %7.1f%%\n", n, ls[n].calls, perUnit, 100*perUnit/p50)
	}
	fmt.Fprintf(out, "  %-24s %6s %10.4g %7.1f%%\n", "remainder", "", p50-layerSum, 100*(p50-layerSum)/p50)
	for _, n := range names {
		if shadow[n] {
			fmt.Fprintf(out, "  %-24s %6d %10.4g ms/call, re-executed breakdown\n", n, ls[n].calls, ls[n].perCall())
		}
	}
	if l := ls["store.open"]; l != nil {
		fmt.Fprintf(out, "  %-24s %6d %10.4g ms, set-up re-admission\n", "store.open", l.calls, l.perCall())
	}
}

// writeSpans writes every span, one JSON object per line, under the
// checkout's build directory.
func (t *traced) writeSpans(root string, meta map[string]any) error {
	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", meta["workload"], meta["seed"]))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	meta["spans"] = path
	return nil
}
