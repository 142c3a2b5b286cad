package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a run starts dperfd and warms it up;
// setup_s is the median, and the last instance serves the measured
// phase.
const setupRepeats = 3

// chunks is how many equal spans the measured phase is cut into.
// Throughput, CPU per prediction and the median latency are medians
// over the spans, so a burst of host noise moves one span rather than
// the whole run.
const chunks = 5

// chunk is one span of the measured phase.
type chunk struct {
	from  int // index of its first unit
	start time.Time
	cpu   time.Duration // dperfd's CPU time at its start
}

// timedRun is everything one timed invocation measured.
type timedRun struct {
	setups    []time.Duration
	stats     serverStats // after the measured phase
	readings  probes
	units     []unitSample
	chunks    []chunk
	end       time.Time
	endCPU    time.Duration
	rssMB     float64 // VmHWM after memUnits units
	rssEarly  bool    // read at the end: fewer than memUnits units ran
	exhausted bool
	failed    int
	problems  []string
}

type unitSample struct {
	start  time.Time
	lat    time.Duration
	ok     bool
	preds  int // predictions delivered
	bytes  int // response bytes
	checks [][32]byte
}

// phase configures one drive of dperfd.
type phase struct {
	seconds float64 // measured phase length
	limit   int     // unit cap; 0 runs until seconds elapse
	setups  int     // dperfd starts; the last serves the measured phase
	verify  bool    // render every unit through the library afterwards
}

func (t *timedRun) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// runTimed starts dperfd p.setups times over a store directory in tmp,
// drives the last instance for the measured phase, then verifies every
// response against the library outside the timed window.
func runTimed(w workload, dperfd, tmp string, p phase) (*timedRun, error) {
	t := &timedRun{}
	t.readings = append(t.readings, probe())

	var (
		srv *server
		c   *client
	)
	for k := 0; k < p.setups; k++ {
		if srv != nil {
			c.close()
			srv.stop()
		}
		// Every instance gets its own store directory: uploads persist, and
		// the trace-set count must match this instance's alone.
		dir := filepath.Join(tmp, fmt.Sprintf("store-%d", k))
		if err := w.prefill(dir); err != nil {
			return nil, err
		}
		t.readings = append(t.readings, probe())
		start := time.Now()
		var err error
		if srv, err = startServer(dperfd, dir); err != nil {
			return nil, err
		}
		c = newClient(srv.addr)
		if err := w.warmup(c); err != nil {
			c.close()
			srv.stop()
			return nil, err
		}
		t.setups = append(t.setups, time.Since(start))
	}
	defer srv.stop()
	defer c.close()

	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	t.measure(w, c, p, srv.pid())
	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	t.stats = after
	if t.rssMB == 0 {
		// The phase ended before memUnits units.
		t.rssEarly = true
		if t.rssMB, err = procHWM(srv.pid()); err != nil {
			return nil, err
		}
	}
	c.close()
	srv.stop()

	if hits := after.ResultHits - before.ResultHits; hits != 0 {
		t.problem("measured phase hit the result cache %d times", hits)
	}
	if t.failed == 0 && after.TraceSets != w.storedSets(len(t.units)) {
		t.problem("dperfd holds %d trace sets, want %d", after.TraceSets, w.storedSets(len(t.units)))
	}
	if p.verify {
		if err := t.verify(w); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// measure runs units back to back for the phase's duration or unit
// cap, probing the host and reading dperfd's CPU time between units.
func (t *timedRun) measure(w workload, c *client, p phase, pid int) {
	dur := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	var nextProbe, nextChunk time.Time
	cpu := func() time.Duration {
		d, err := procCPU(pid)
		if err != nil {
			t.problem("reading dperfd's CPU time: %v", err)
		}
		return d
	}
	for i := 0; p.limit == 0 || i < p.limit; i++ {
		now := time.Now()
		if now.Sub(start) >= dur {
			break
		}
		if !now.Before(nextChunk) && len(t.chunks) < chunks {
			t.chunks = append(t.chunks, chunk{from: len(t.units), start: now, cpu: cpu()})
			nextChunk = start.Add(time.Duration(len(t.chunks)) * dur / chunks)
		}
		if !now.Before(nextProbe) {
			t.readings = append(t.readings, probe())
			nextProbe = time.Now().Add(probeEvery)
		}
		reqs, ok := w.unit(i)
		if !ok {
			t.exhausted = true
			break
		}
		bodies := make([][]byte, 0, len(reqs))
		u := unitSample{start: time.Now(), ok: true}
		for _, r := range reqs {
			body, err := c.post(r.path, r.body)
			if err != nil {
				u.ok = false
				t.problem("unit %d: %v", i, err)
				break
			}
			bodies = append(bodies, bytes.Clone(body))
		}
		u.lat = time.Since(u.start)
		for _, b := range bodies {
			u.bytes += len(b)
		}
		if u.ok {
			u.preds = w.predictions()
			for k, r := range reqs {
				b := bodies[k]
				if r.canon != nil {
					var err error
					if b, err = r.canon(b); err != nil {
						u.ok = false
						t.problem("unit %d: %v", i, err)
						break
					}
				}
				u.checks = append(u.checks, sha256.Sum256(b))
			}
		}
		t.units = append(t.units, u)
		if len(t.units) == w.memUnits() {
			t.rssMB, _ = procHWM(pid) // a failed read is retried at the end
		}
	}
	t.end, t.endCPU = time.Now(), cpu()
	t.readings = append(t.readings, probe())
}

// verify renders every unit through the library and compares. It runs
// after dperfd has stopped, on two goroutines.
func (t *timedRun) verify(w workload) error {
	lib, err := newLibrary()
	if err != nil {
		return err
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(t.units) {
					return
				}
				u := &t.units[i]
				if !u.ok {
					continue
				}
				want, err := w.expect(i, lib)
				mu.Lock()
				switch {
				case err != nil:
					u.ok = false
					t.problem("unit %d: library rendering: %v", i, err)
				case len(want) != len(u.checks):
					u.ok = false
					t.problem("unit %d: %d responses, library rendered %d", i, len(u.checks), len(want))
				default:
					for k := range want {
						if sha256.Sum256(want[k]) != u.checks[k] {
							u.ok = false
							t.problem("unit %d: response %d differs from the library's rendering", i, k)
							break
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return nil
}

// e2e holds one end-to-end metric, scaled and raw.
type e2e struct {
	name, unit  string
	scaled, raw float64
	samples     int
	scaledNote  string
}

// metrics derives the end-to-end metrics of a timed run.
func (t *timedRun) metrics() []e2e {
	hostScale := t.readings.mean() / nominalProbeRate
	unitScale := func(u *unitSample) float64 { return t.readings.near(u.start.Add(u.lat/2)) / nominalProbeRate }
	one := func(*unitSample) float64 { return 1 }

	// perChunk returns the chunk medians of throughput, CPU per
	// prediction and p50 latency, with each unit's time multiplied by
	// scale(unit).
	perChunk := func(scale func(*unitSample) float64) (thr, cpu, p50 float64) {
		var thrs, cpus, p50s []float64
		for k, ch := range t.chunks {
			to, endCPU := len(t.units), t.endCPU
			if k+1 < len(t.chunks) {
				to, endCPU = t.chunks[k+1].from, t.chunks[k+1].cpu
			}
			var busy, weight float64
			var preds int
			var lat []float64
			for i := ch.from; i < to; i++ {
				u := &t.units[i]
				if !u.ok {
					continue
				}
				f := scale(u)
				ms := float64(u.lat) / 1e6
				busy += ms * f
				weight += ms
				preds += u.preds
				lat = append(lat, ms*f)
			}
			if preds == 0 {
				continue
			}
			// The chunk's CPU is scaled by its units' time-weighted mean
			// factor.
			f := busy / weight
			thrs = append(thrs, float64(preds)/(busy/1e3))
			cpus = append(cpus, float64(endCPU-ch.cpu)/1e6/float64(preds)*f)
			p50s = append(p50s, percentile(lat, 50))
		}
		return median(thrs), median(cpus), median(p50s)
	}

	var raw, scaled []float64
	var preds int
	for i := range t.units {
		u := &t.units[i]
		if !u.ok {
			continue
		}
		ms := float64(u.lat) / 1e6
		raw = append(raw, ms)
		scaled = append(scaled, ms*unitScale(u))
		preds += u.preds
	}
	setups := make([]float64, len(t.setups))
	for i, d := range t.setups {
		setups[i] = d.Seconds()
	}
	setup := median(setups)
	thr, cpu, p50 := perChunk(unitScale)
	rawThr, rawCPU, rawP50 := perChunk(one)
	n := len(raw)
	errRate := float64(t.failed) / float64(len(t.units))
	return []e2e{
		{"setup_s", "s", setup * hostScale, setup, len(setups), "run mean"},
		{"predictions_per_s", "1/s", thr, rawThr, n, "readings within 1s"},
		{"latency_p50_ms", "ms", p50, rawP50, n, "readings within 1s"},
		{"latency_p95_ms", "ms", percentile(scaled, 95), percentile(raw, 95), n, "readings within 1s"},
		{"server_cpu_ms_per_pred", "ms", cpu, rawCPU, preds, "readings within 1s"},
		{"rss_peak_mb", "MB", t.rssMB, t.rssMB, 1, "unscaled"},
		{"error_rate", "ratio", errRate, errRate, len(t.units), "unscaled"},
	}
}

// percentile is the p-th percentile by linear interpolation between
// closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tempDir makes a scratch directory under the checkout's build
// directory.
func tempDir(root, name string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
