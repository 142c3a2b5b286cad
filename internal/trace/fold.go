// Loop-folded trace IR. dPerf traces are dominated by per-iteration
// patterns — the compute/send/recv/conv records an iterative method
// emits every round — so instead of materializing one record per
// event, a folded trace stores each repeating pattern once together
// with its repetition count (the "identify the repeating structure,
// store the parameters" idea). Folding is exact: Unfold(Fold(t))
// reproduces t record for record, bit for bit.
package trace

import (
	"fmt"
	"math"
)

// Op is one instruction of the folded IR: Count repetitions of either
// a single record (Body empty — a literal or a run-length fold) or a
// sub-sequence of ops (a loop fold; bodies may nest).
type Op struct {
	Count int    `json:"count"`
	Rec   Record `json:"rec"`
	Body  []Op   `json:"body,omitempty"`
}

// Lit wraps a record as a single-occurrence literal op.
func Lit(r Record) Op { return Op{Count: 1, Rec: r} }

// NumRecords returns the number of records the op unfolds to,
// saturating at math.MaxInt64.
func (o Op) NumRecords() int64 {
	if len(o.Body) == 0 {
		return int64(o.Count)
	}
	return SatMul(int64(o.Count), opsRecords(o.Body))
}

// opEqual reports exact structural equality.
func opEqual(a, b Op) bool {
	if a.Count != b.Count || len(a.Body) != len(b.Body) {
		return false
	}
	if len(a.Body) == 0 {
		return a.Rec == b.Rec
	}
	return opsEqual(a.Body, b.Body)
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !opEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// normalizeOp rewrites a repeat of a single literal as a longer run
// of it, unless the combined count would overflow.
func normalizeOp(op Op) Op {
	if len(op.Body) == 1 && len(op.Body[0].Body) == 0 {
		if prod := SatMul(int64(op.Count), int64(op.Body[0].Count)); prod < math.MaxInt64 {
			return Op{Count: int(prod), Rec: op.Body[0].Rec}
		}
	}
	return op
}

// mergeOp folds b into a when both repeat the same content — equal
// literals or equal-bodied repeats just add their counts. The merge
// preserves exact unfold equality (hostile counts near the int64
// limit refuse to merge rather than wrap).
func mergeOp(a *Op, b Op) bool {
	sum := SatAdd(int64(a.Count), int64(b.Count))
	if sum == math.MaxInt64 {
		return false
	}
	switch {
	case len(a.Body) == 0 && len(b.Body) == 0 && a.Rec == b.Rec:
		a.Count = int(sum)
		return true
	case len(a.Body) > 0 && len(b.Body) > 0 && opsEqual(a.Body, b.Body):
		a.Count = int(sum)
		return true
	}
	return false
}

// appendOp appends op to ops, merging with the trailing op when
// possible.
func appendOp(ops []Op, op Op) []Op {
	if op.Count <= 0 {
		return ops
	}
	op = normalizeOp(op)
	if n := len(ops); n > 0 && mergeOp(&ops[n-1], op) {
		return ops
	}
	return append(ops, op)
}

func appendOps(dst []Op, src []Op) []Op {
	for _, op := range src {
		dst = appendOp(dst, op)
	}
	return dst
}

func opsRecords(ops []Op) int64 {
	var n int64
	for _, op := range ops {
		n = SatAdd(n, op.NumRecords())
	}
	return n
}

// SatAdd returns a+b for non-negative operands, saturating at
// math.MaxInt64 — the arithmetic behind every unfolded count.
func SatAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// SatMul returns a*b for non-negative operands, saturating at
// math.MaxInt64.
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Folded is one rank's trace in the compact IR.
type Folded struct {
	Rank int  `json:"rank"`
	Of   int  `json:"of"`
	Ops  []Op `json:"ops"`
}

// NumRecords returns the record count of the unfolded trace,
// saturating at math.MaxInt64.
func (f *Folded) NumRecords() int64 { return opsRecords(f.Ops) }

// NumOps counts the ops of the IR, including nested bodies — the
// folded size, against which NumRecords gives the fold ratio.
func (f *Folded) NumOps() int { return countOps(f.Ops) }

func countOps(ops []Op) int {
	n := 0
	for _, op := range ops {
		n += 1 + countOps(op.Body)
	}
	return n
}

// maxUnfoldRecords bounds in-memory materialization; folded traces
// read from untrusted files can claim absurd counts.
const maxUnfoldRecords = 1 << 31

// Unfold materializes the flat record sequence. It fails rather than
// materialize a trace claiming more than 2^31 records.
func (f *Folded) Unfold() (*Trace, error) {
	n := f.NumRecords()
	if n > maxUnfoldRecords {
		return nil, fmt.Errorf("trace: refusing to unfold %d records (max %d)", n, int64(maxUnfoldRecords))
	}
	t := &Trace{Rank: f.Rank, Of: f.Of, Records: make([]Record, 0, n)}
	t.Records = expandOps(t.Records, f.Ops)
	return t, nil
}

func expandOps(recs []Record, ops []Op) []Record {
	for _, op := range ops {
		if len(op.Body) == 0 {
			for i := 0; i < op.Count; i++ {
				recs = append(recs, op.Rec)
			}
			continue
		}
		for i := 0; i < op.Count; i++ {
			recs = expandOps(recs, op.Body)
		}
	}
	return recs
}

// maxFoldPeriod bounds the pattern length the offline folder searches
// for. Loop bodies in practice are a handful of records; the window
// keeps Fold near-linear.
const maxFoldPeriod = 32

// Fold compresses a flat trace into the folded IR: identical adjacent
// records become run-length ops, and repeating record patterns (the
// per-iteration structure of the source loops) become Repeat ops. The
// fold is exact — Unfold returns the input records bit for bit — so
// anything that does not repeat exactly stays literal.
func Fold(t *Trace) *Folded {
	ops := make([]Op, 0, 16)
	for _, r := range t.Records {
		ops = appendOp(ops, Lit(r))
	}
	return &Folded{Rank: t.Rank, Of: t.Of, Ops: foldPeriodic(ops)}
}

// foldPeriodic greedily replaces repeating op patterns with Repeat
// ops. At each position it picks the period covering the most ops;
// ties prefer the shortest period (the innermost loop structure).
func foldPeriodic(ops []Op) []Op {
	var out []Op
	for i := 0; i < len(ops); {
		bestP, bestK := 0, 0
		maxP := maxFoldPeriod
		if rem := (len(ops) - i) / 2; rem < maxP {
			maxP = rem
		}
		for p := 1; p <= maxP; p++ {
			k := 1
			for i+(k+1)*p <= len(ops) && opsEqual(ops[i:i+p], ops[i+k*p:i+(k+1)*p]) {
				k++
			}
			// Worth folding only if the repeat op (1 header + p body
			// ops) is smaller than the k*p ops it replaces.
			if k >= 2 && k*p > p+1 && k*p > bestK*bestP {
				bestP, bestK = p, k
			}
		}
		if bestP == 0 {
			out = appendOp(out, ops[i])
			i++
			continue
		}
		body := append([]Op(nil), ops[i:i+bestP]...)
		out = appendOp(out, Op{Count: bestK, Body: body})
		i += bestP * bestK
	}
	return out
}

// ---------------------------------------------------------------------------
// Builder: online folding driven by the source program's loop
// structure.

// Builder assembles a folded trace incrementally. Records are
// appended as the generator emits them; LoopEnter/LoopIter/LoopExit
// report the source program's loop-iteration boundaries, and the
// builder folds consecutive iterations that emitted identical record
// patterns into a single Repeat op as they complete — the whole trace
// is never materialized flat. Iterations that differ (the first
// round's warm-up compute, a tail iteration) stay literal, so the
// folded trace unfolds to exactly the flat record sequence.
type Builder struct {
	rank, of int
	top      []Op
	frames   []builderFrame
}

// builderFrame tracks one open loop.
type builderFrame struct {
	out      []Op // completed ops of this loop, before the active repeat
	repBody  []Op // body of the repeat being accumulated
	repCount int
	iter     []Op // ops of the iteration in progress
}

// NewBuilder starts a folded trace for one rank.
func NewBuilder(rank, of int) *Builder {
	return &Builder{rank: rank, of: of}
}

// Append adds one record at the current position.
func (b *Builder) Append(r Record) {
	if n := len(b.frames); n > 0 {
		f := &b.frames[n-1]
		f.iter = appendOp(f.iter, Lit(r))
		return
	}
	b.top = appendOp(b.top, Lit(r))
}

// LoopEnter opens a loop scope; subsequent records belong to its
// iterations until the matching LoopExit.
func (b *Builder) LoopEnter() {
	b.frames = append(b.frames, builderFrame{})
}

// LoopIter marks the end of one loop iteration. An iteration whose
// records match the previous ones extends the active repeat;
// otherwise the repeat is flushed and a new one starts.
func (b *Builder) LoopIter() {
	if len(b.frames) == 0 {
		return // tolerate unbalanced callers
	}
	f := &b.frames[len(b.frames)-1]
	if f.repCount > 0 && opsEqual(f.iter, f.repBody) {
		f.repCount++
		f.iter = f.iter[:0]
		return
	}
	f.flushRep()
	f.repBody = f.iter
	f.repCount = 1
	f.iter = nil
}

// LoopExit closes the innermost loop scope, folding its accumulated
// iterations into the enclosing scope.
func (b *Builder) LoopExit() {
	n := len(b.frames)
	if n == 0 {
		return
	}
	f := b.frames[n-1]
	b.frames = b.frames[:n-1]
	f.flushRep()
	f.out = appendOps(f.out, f.iter)
	if n > 1 {
		parent := &b.frames[n-2]
		parent.iter = appendOps(parent.iter, f.out)
		return
	}
	b.top = appendOps(b.top, f.out)
}

// flushRep commits the active repeat into the frame's output.
// Iterations that emitted no records (compute-only loops cut at comm
// events, not iteration boundaries) leave an empty body and commit
// nothing.
func (f *builderFrame) flushRep() {
	switch {
	case f.repCount == 0 || len(f.repBody) == 0:
	case f.repCount == 1:
		f.out = appendOps(f.out, f.repBody)
	default:
		f.out = appendOp(f.out, Op{Count: f.repCount, Body: f.repBody})
	}
	f.repBody = nil
	f.repCount = 0
}

// Finish closes any loops still open (a loop left early) and returns
// the folded trace. The builder must not be reused afterwards.
func (b *Builder) Finish() *Folded {
	for len(b.frames) > 0 {
		b.LoopExit()
	}
	return &Folded{Rank: b.rank, Of: b.of, Ops: b.top}
}
