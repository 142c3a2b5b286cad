package dperf

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/analytic"
)

// The symbolic scan surface, re-exported from the analytic tier: a
// ScanFamily describes a configuration with free platform parameters
// (bandwidth, latency, node speed — anything lifted to a SymVal), and
// Predictor.Scan evaluates it over a parameter grid through guarded
// evaluation tapes instead of running the full analytic kernel per
// point. See internal/analytic/tape.go for the tape model.
type (
	// Symbolic builds symbolic expressions inside a ScanFamily's Build
	// function.
	Symbolic = analytic.Symbolic
	// SymVal is an opaque symbolic float: a free parameter, a
	// constant, or an expression over them.
	SymVal = analytic.SymVal
	// SymOp mirrors a trace op with symbolic duration/byte counts.
	SymOp = analytic.SymOp
	// SymSpec is the symbolic analytic spec a ScanFamily builds.
	SymSpec = analytic.SymSpec
	// Tape is one compiled guard region of a family.
	Tape = analytic.Tape
)

// ScanFamily is one symbolic configuration family: a platform whose
// selected links take symbolic bandwidth/latency, and a builder that
// constructs the symbolic spec. The same family evaluated at a
// parameter point must be bit-identical to a concrete analytic
// evaluation of that configuration — that is the tape contract Scan
// preserves at every grid point.
type ScanFamily struct {
	// Platform supplies topology, routing and every non-overridden
	// link. Routing stays concrete (see SymSpec), so the family's
	// routes must not depend on the symbolic latencies.
	Platform *Platform
	// NumParams fixes the free-parameter count; Build sees parameters
	// 0..NumParams-1 and Scan consumes that many floats per point.
	NumParams int
	// Build constructs the symbolic spec. It is called once per
	// recorded region (not per point), always single-threaded.
	Build func(*Symbolic) (*SymSpec, error)
	// Key, when non-empty, caches the family's tapes on the Predictor
	// so later and concurrent scans of the same family share regions.
	// The caller owns the namespace: a Key must identify the family
	// uniquely (two different families sharing a Key would serve each
	// other's formulas). An empty Key keeps the tape cache private to
	// the Scan call.
	Key string
}

// ScanStats reports how a scan was served. All counts are
// deterministic functions of the family and the grid — nothing here
// is timing-dependent.
type ScanStats struct {
	// Points is the number of grid points evaluated.
	Points int
	// Replayed counts points served by replaying a cached tape.
	Replayed int
	// Fallbacks counts guard fallbacks: points no cached tape
	// accepted, served by a fresh full (recording) evaluation.
	Fallbacks int
	// Regions is the size of the family's tape cache after the scan —
	// with a private cache, exactly the number of control-flow regions
	// the grid touched.
	Regions int
}

// scanRejects counts the tape replays scans ran that rejected a point:
// batch replays that rejected at least one lane, and scalar replays.
// Which tape a worker tries first depends on where its chunk of the
// grid starts, so unlike ScanStats these counts move with GOMAXPROCS.
type scanRejects struct{ batch, scalar atomic.Int64 }

// tapeSet is a family's shared tape cache: an append-only list of
// compiled regions. Tapes are immutable and safe for concurrent
// replay; the lock only orders appends and snapshots.
type tapeSet struct {
	mu    sync.Mutex
	tapes []*Tape
}

// fetch returns copies of the tapes appended since seen, plus the new
// watermark.
func (s *tapeSet) fetch(seen int) ([]*Tape, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seen >= len(s.tapes) {
		return nil, seen
	}
	out := make([]*Tape, len(s.tapes)-seen)
	copy(out, s.tapes[seen:])
	return out, len(s.tapes)
}

// add appends t and returns the set's new size.
func (s *tapeSet) add(t *Tape) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tapes = append(s.tapes, t)
	return len(s.tapes)
}

func (s *tapeSet) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tapes)
}

// tapeSetFor resolves the family's cache: the keyed shared set, or a
// private one for unkeyed families.
func (p *Predictor) tapeSetFor(f *ScanFamily) *tapeSet {
	if f.Key == "" {
		return &tapeSet{}
	}
	key := fmt.Sprintf("%p|%s", f.Platform, f.Key)
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.tapes[key]
	if !ok {
		s = &tapeSet{}
		p.tapes[key] = s
	}
	return s
}

// scanner serves grid points through an MRU-ordered tape list, writing
// each accepted point's result into res. One scanner belongs to one
// goroutine; the points of different scanners never overlap.
type scanner struct {
	mru     []*Tape
	points  []float64
	np      int
	res     []analytic.Result
	rejects *scanRejects
	lanes   []float64 // one batch's parameters, gathered
	bres    [analytic.BatchLanes]analytic.Result
	bok     [analytic.BatchLanes]bool
}

func newScanner(mru []*Tape, points []float64, np int, res []analytic.Result, rejects *scanRejects) *scanner {
	return &scanner{mru: mru, points: points, np: np, res: res, rejects: rejects, lanes: make([]float64, analytic.BatchLanes*np)}
}

// run serves the points idx names, in order, batch-first: each full
// batch of BatchLanes points replays through the MRU tape, and every
// lane it rejects, like every point of a short tail, goes to miss.
func (sc *scanner) run(idx []int, miss func(i int) error) error {
	np := sc.np
	for j := 0; j < len(idx); {
		if len(sc.mru) == 0 || len(idx)-j < analytic.BatchLanes {
			if err := miss(idx[j]); err != nil {
				return err
			}
			j++
			continue
		}
		batch := idx[j : j+analytic.BatchLanes]
		for l, i := range batch {
			copy(sc.lanes[l*np:(l+1)*np], sc.points[i*np:(i+1)*np])
		}
		if sc.mru[0].ReplayBatch(sc.lanes, &sc.bres, &sc.bok) < analytic.BatchLanes {
			sc.rejects.batch.Add(1)
		}
		for l, i := range batch {
			if sc.bok[l] {
				sc.res[i] = sc.bres[l]
			} else if err := miss(i); err != nil {
				return err
			}
		}
		j += analytic.BatchLanes
	}
	return nil
}

// replay tries point i on every tape in MRU order and moves the one
// that accepts it to the front.
func (sc *scanner) replay(i int) bool {
	pt := sc.points[i*sc.np : (i+1)*sc.np]
	for k, tp := range sc.mru {
		if tp.Replay(pt, &sc.res[i]) {
			copy(sc.mru[1:k+1], sc.mru[:k])
			sc.mru[0] = tp
			return true
		}
		sc.rejects.scalar.Add(1)
	}
	return false
}

// replayStarting replays the grid through the tapes cached when the
// scan started, on up to GOMAXPROCS workers. Each takes a contiguous
// chunk of whole batches (the last one also the short tail) and its own
// MRU copy of the tapes, and defers every point no tape accepts. It
// returns the deferred points in point order.
func replayStarting(start []*Tape, points []float64, np int, res []analytic.Result, all []int, rejects *scanRejects) []int {
	batches := len(all) / analytic.BatchLanes
	w := max(1, min(runtime.GOMAXPROCS(0), batches))
	deferred := make([][]int, w)
	work := func(k int) {
		lo := k * batches / w * analytic.BatchLanes
		hi := (k + 1) * batches / w * analytic.BatchLanes
		if k == w-1 {
			hi = len(all)
		}
		sc := newScanner(slices.Clone(start), points, np, res, rejects)
		// Walking the chunk's first point orders the MRU copy, so the
		// first batch replays through the tape that accepts that point,
		// not through whichever region was cached first. Accepted here
		// or not, the point is then served or deferred like any other.
		sc.replay(all[lo])
		// This miss never fails: a worker defers what it cannot replay.
		_ = sc.run(all[lo:hi], func(i int) error {
			if !sc.replay(i) {
				deferred[k] = append(deferred[k], i)
			}
			return nil
		})
	}
	var wg sync.WaitGroup
	for k := 0; k < w-1; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(k)
		}()
	}
	work(w - 1)
	wg.Wait()
	return slices.Concat(deferred...)
}

// Scan evaluates the family at every grid point, then visits the
// results in point order on the calling goroutine. points holds
// NumParams floats per point, row-major; visit receives each point's
// index and result (res is reused across calls — copy what you keep).
// On error visit is never called.
//
// Tapes are compiled regions of the family's parameter space. The scan
// makes two passes:
//
//   - The tapes the family had cached when the scan started replay the
//     grid on up to GOMAXPROCS cores. Each worker takes a contiguous
//     chunk of whole 8-point batches and its own MRU-ordered copy of
//     the tapes, which its first point orders first: a batch replays
//     through the MRU tape (Tape.ReplayBatch, a branch-free array
//     walk), and each lane it rejects tries the other tapes in turn. A
//     worker never compiles; it defers every point no starting tape
//     accepts.
//   - The caller then serves the deferred points in point order, the
//     same batch-first way, through the tapes that were not cached at
//     the start: those this pass records and those concurrent scans add
//     meanwhile. A point none of them accepts falls back to one full
//     recording evaluation, which both answers the point and
//     contributes the new region's tape.
//
// Replayed or fallback, every result is bit-identical to a full
// analytic evaluation of the family at that point. Unless a concurrent
// scan adds tapes meanwhile, a point falls back exactly when it would
// in a single pass over the grid in point order, so ScanStats does not
// depend on GOMAXPROCS; a cold scan, with no starting tapes, is that
// single pass.
//
// Scan is safe for concurrent use with Predict and other Scan calls
// on a shared Predictor; keyed families share discovered regions
// across those calls.
func (p *Predictor) Scan(f ScanFamily, points []float64, visit func(i int, res *EngineResult)) (*ScanStats, error) {
	if f.Platform == nil {
		return nil, fmt.Errorf("dperf: scan family has no platform")
	}
	if f.Build == nil {
		return nil, fmt.Errorf("dperf: scan family has no build function")
	}
	np := f.NumParams
	if np <= 0 {
		return nil, fmt.Errorf("dperf: scan family has %d parameters", np)
	}
	if len(points)%np != 0 {
		return nil, fmt.Errorf("dperf: scan grid of %d floats is not a multiple of %d parameters", len(points), np)
	}
	n := len(points) / np
	set := p.tapeSetFor(&f)
	start, seen := set.fetch(0)
	res := make([]analytic.Result, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	deferred := all
	if len(start) > 0 {
		deferred = replayStarting(start, points, np, res, all, &p.rejects)
	}

	// The deferred points never re-try a starting tape: each already
	// rejected them all. A miss tries the tapes this pass has seen in
	// MRU order, then those concurrent scans added meanwhile, then
	// records a new one.
	sc := newScanner(nil, points, np, res, &p.rejects)
	fallbacks := 0
	err := sc.run(deferred, func(i int) error {
		if sc.replay(i) {
			return nil
		}
		pt := points[i*np : i*np+np]
		var fresh []*Tape
		fresh, seen = set.fetch(seen)
		for k, tp := range fresh {
			if tp.Replay(pt, &res[i]) {
				sc.mru = append([]*Tape{tp}, sc.mru...)
				sc.mru = append(sc.mru, fresh[k+1:]...)
				return nil
			}
			p.rejects.scalar.Add(1)
			sc.mru = append(sc.mru, tp)
		}
		tp, err := analytic.CompileTape(f.Platform, pt, f.Build)
		if err != nil {
			return fmt.Errorf("dperf: scan fallback at point %d: %w", i, err)
		}
		if !tp.Replay(pt, &res[i]) {
			return fmt.Errorf("dperf: freshly recorded tape rejects its own record point %d", i)
		}
		if set.add(tp) == seen+1 {
			seen++ // nothing else was added: don't re-fetch our own tape
		}
		sc.mru = append([]*Tape{tp}, sc.mru...)
		fallbacks++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if visit != nil {
		var er EngineResult
		for i := range res {
			r := &res[i]
			er = EngineResult{
				PredictedSeconds:    r.PredictedSeconds,
				ScatterSeconds:      r.ScatterSeconds,
				ComputeSeconds:      r.ComputeSeconds,
				GatherSeconds:       r.GatherSeconds,
				RoundsSimulated:     r.RoundsSimulated,
				RoundsFastForwarded: r.RoundsFastForwarded,
			}
			visit(i, &er)
		}
	}
	return &ScanStats{Points: n, Replayed: n - fallbacks, Fallbacks: fallbacks, Regions: set.size()}, nil
}

// Scan evaluates a symbolic family over a parameter grid through a
// throwaway Predictor. Use a shared Predictor's Scan method to keep
// discovered tape regions across calls.
func Scan(f ScanFamily, points []float64, visit func(i int, res *EngineResult)) (*ScanStats, error) {
	return NewPredictor().Scan(f, points, visit)
}
