package trace

import (
	"fmt"
	"math"
)

// Cursor streams a trace's records in order without materializing the
// unfolded sequence. Records are delivered as runs — a record plus
// the number of consecutive identical repetitions — so consumers can
// fast-path long homogeneous stretches (replay turns a run of equal
// compute records into a single DES event). Runs are not guaranteed
// to be maximal; a run count is always >= 1.
type Cursor interface {
	// Next advances to the next run, reporting false when the trace
	// is exhausted.
	Next() bool
	// Run returns the current record and its repetition count. It is
	// only valid after Next has returned true.
	Run() (Record, int)
}

// Cursor returns a cursor over the flat record slice. Identical
// adjacent records are delivered as one run.
func (t *Trace) Cursor() Cursor { return &sliceCursor{recs: t.Records} }

type sliceCursor struct {
	recs []Record
	i    int
	rec  Record
	n    int
}

func (c *sliceCursor) Next() bool {
	if c.i >= len(c.recs) {
		return false
	}
	r := c.recs[c.i]
	j := c.i + 1
	for j < len(c.recs) && c.recs[j] == r {
		j++
	}
	c.rec, c.n = r, j-c.i
	c.i = j
	return true
}

func (c *sliceCursor) Run() (Record, int) { return c.rec, c.n }

// Cursor returns a cursor over the folded ops. Memory is O(nesting
// depth); advancing allocates only when a repeat nests deeper than
// any seen before.
func (f *Folded) Cursor() Cursor { return newOpsCursor(f.Ops) }

type opsFrame struct {
	ops  []Op
	idx  int
	left int // iterations remaining, including the current one
}

type opsCursor struct {
	stack []opsFrame
	rec   Record
	n     int
}

func newOpsCursor(ops []Op) *opsCursor {
	c := &opsCursor{stack: make([]opsFrame, 1, 8)}
	c.stack[0] = opsFrame{ops: ops, left: 1}
	return c
}

func (c *opsCursor) Next() bool {
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.idx >= len(f.ops) {
			f.left--
			if f.left > 0 {
				f.idx = 0
				continue
			}
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		op := f.ops[f.idx]
		f.idx++
		if len(op.Body) == 0 {
			if op.Count <= 0 {
				continue
			}
			c.rec, c.n = op.Rec, op.Count
			return true
		}
		if op.Count > 0 {
			c.stack = append(c.stack, opsFrame{ops: op.Body, left: op.Count})
		}
	}
	return false
}

func (c *opsCursor) Run() (Record, int) { return c.rec, c.n }

// Source yields the per-rank traces of a consistent set as cursors —
// the representation-independent form replay consumes. Rank r of a
// source with Ranks() == n holds the trace of rank r in an n-rank
// execution. Cursors are independent; a Source may be shared by
// concurrent readers as long as the underlying traces are not
// mutated.
type Source interface {
	Ranks() int
	Cursor(rank int) Cursor
}

// SliceSource adapts a flat trace slice (rank-indexed) as a Source.
type SliceSource []*Trace

// Ranks implements Source.
func (s SliceSource) Ranks() int { return len(s) }

// Cursor implements Source.
func (s SliceSource) Cursor(rank int) Cursor { return s[rank].Cursor() }

// FoldedSource adapts a folded trace slice (rank-indexed) as a
// Source.
type FoldedSource []*Folded

// Ranks implements Source.
func (s FoldedSource) Ranks() int { return len(s) }

// Cursor implements Source.
func (s FoldedSource) Cursor(rank int) Cursor { return s[rank].Cursor() }

// OpsSource is a Source that can additionally expose each rank's
// folded op structure. Cursors flatten Repeat ops into record runs,
// which is what plain replay wants — but the fast-forward engine
// needs to see the Repeat boundaries themselves (a round of a folded
// loop is the unit it detects steady state over), so op-structured
// sources advertise the IR here. The returned slice must not be
// mutated.
type OpsSource interface {
	Source
	RankOps(rank int) []Op
}

// RankOps implements OpsSource.
func (s FoldedSource) RankOps(rank int) []Op { return s[rank].Ops }

// Collectives returns the number of conv and barrier records the op
// sequence unfolds to, saturating at math.MaxInt64 — O(ops),
// independent of repeat counts. The replay fast-forward engine keys
// loop alignment across ranks on the collectives completed before a
// Repeat: collectives synchronize all ranks, so equal counts identify
// the same loop in every rank's trace even when the surrounding op
// layout differs.
func Collectives(ops []Op) (convs, barriers int64) {
	WalkOps(ops, 1, func(r Record, mult int64) error {
		switch r.Kind {
		case KindConv:
			convs = SatAdd(convs, mult)
		case KindBarrier:
			barriers = SatAdd(barriers, mult)
		}
		return nil
	})
	return convs, barriers
}

// maxValidateRecords bounds how many records validation is willing to
// stream per rank before declaring the trace unreasonable. Folded
// traces from untrusted files can imply astronomically long replays.
const maxValidateRecords = int64(1) << 33

// ValidateSource checks cross-rank consistency of a source: every
// send has a matching recv on the peer and all conv/barrier counts
// agree — replay deadlocks otherwise. Folded, slice and op-structured
// sources (templates included) are checked structurally in O(ops) —
// multiplicities, never per-iteration streaming, so a hostile repeat
// count cannot turn validation into a spin; other sources are
// streamed, with the same record-count ceiling applied.
func ValidateSource(src Source) error {
	n := src.Ranks()
	v := newValidator(n)
	for i := 0; i < n; i++ {
		var err error
		switch s := src.(type) {
		case FoldedSource:
			err = WalkOps(s[i].Ops, 1, v.visitor(i))
		case SliceSource:
			err = walkRecords(s[i].Records, v.visitor(i))
		case OpsSource:
			err = WalkOps(s.RankOps(i), 1, v.visitor(i))
		default:
			err = walkCursor(src.Cursor(i), v.visitor(i))
		}
		if err != nil {
			return err
		}
	}
	return v.check()
}

// WalkOps visits each literal op of a folded op sequence once, with
// the total multiplicity its record unfolds to: mult (1 for a rank's
// whole sequence) times the counts of the op and its enclosing
// repeats, saturating at math.MaxInt64. It is O(ops), independent of
// repeat counts — the walk behind validation, collective counting and
// TraceSet.Stats's format sizes. A visit error stops the walk.
func WalkOps(ops []Op, mult int64, visit func(Record, int64) error) error {
	for _, op := range ops {
		m := SatMul(mult, int64(op.Count))
		if len(op.Body) == 0 {
			if err := visit(op.Rec, m); err != nil {
				return err
			}
			continue
		}
		if err := WalkOps(op.Body, m, visit); err != nil {
			return err
		}
	}
	return nil
}

func walkRecords(recs []Record, visit func(Record, int64) error) error {
	for _, r := range recs {
		if err := visit(r, 1); err != nil {
			return err
		}
	}
	return nil
}

func walkCursor(cur Cursor, visit func(Record, int64) error) error {
	for cur.Next() {
		r, n := cur.Run()
		if err := visit(r, int64(n)); err != nil {
			return err
		}
	}
	return nil
}

// validator accumulates per-direction message counts and collective
// counts across ranks.
type validator struct {
	n     int
	sends map[ValidatePair]int64
	recvs map[ValidatePair]int64
	convs []int64
	bars  []int64
}

// ValidatePair keys a directed rank pair in validation counts.
type ValidatePair struct{ From, To int }

func newValidator(n int) *validator {
	return &validator{
		n:     n,
		sends: make(map[ValidatePair]int64),
		recvs: make(map[ValidatePair]int64),
		convs: make([]int64, n),
		bars:  make([]int64, n),
	}
}

func (v *validator) visitor(rank int) func(Record, int64) error {
	var total int64
	return func(r Record, mult int64) error {
		if total = SatAdd(total, mult); total > maxValidateRecords {
			return fmt.Errorf("trace: rank %d implies more than %d records", rank, maxValidateRecords)
		}
		switch r.Kind {
		case KindSend:
			if r.Peer < 0 || r.Peer >= v.n || r.Peer == rank {
				return fmt.Errorf("trace: rank %d sends to invalid peer %d", rank, r.Peer)
			}
			p := ValidatePair{rank, r.Peer}
			v.sends[p] = SatAdd(v.sends[p], mult)
		case KindRecv:
			if r.Peer < 0 || r.Peer >= v.n || r.Peer == rank {
				return fmt.Errorf("trace: rank %d receives from invalid peer %d", rank, r.Peer)
			}
			p := ValidatePair{r.Peer, rank}
			v.recvs[p] = SatAdd(v.recvs[p], mult)
		case KindConv:
			v.convs[rank] = SatAdd(v.convs[rank], mult)
		case KindBarrier:
			v.bars[rank] = SatAdd(v.bars[rank], mult)
		case KindCompute:
			if r.NS < 0 || math.IsNaN(r.NS) {
				return fmt.Errorf("trace: rank %d has invalid compute duration %v", rank, r.NS)
			}
		default:
			return fmt.Errorf("trace: rank %d has unknown record kind %d", rank, r.Kind)
		}
		return nil
	}
}

func (v *validator) check() error {
	for p, c := range v.sends {
		if v.recvs[p] != c {
			return fmt.Errorf("trace: %d sends %d->%d but %d recvs", c, p.From, p.To, v.recvs[p])
		}
	}
	for p, c := range v.recvs {
		if v.sends[p] != c {
			return fmt.Errorf("trace: %d recvs %d->%d but %d sends", c, p.From, p.To, v.sends[p])
		}
	}
	for i := 1; i < v.n; i++ {
		if v.convs[i] != v.convs[0] {
			return fmt.Errorf("trace: rank %d has %d conv records, rank 0 has %d", i, v.convs[i], v.convs[0])
		}
		if v.bars[i] != v.bars[0] {
			return fmt.Errorf("trace: rank %d has %d barriers, rank 0 has %d", i, v.bars[i], v.bars[0])
		}
	}
	return nil
}

// ValidateFolded checks rank labeling and cross-rank consistency of a
// folded set in O(ops), without unfolding.
func ValidateFolded(fs []*Folded) error {
	n := len(fs)
	for i, f := range fs {
		if f == nil {
			return fmt.Errorf("trace: folded slot %d is nil", i)
		}
		if err := ValidateLabel(i, n, f.Rank, f.Of); err != nil {
			return err
		}
	}
	return ValidateSource(FoldedSource(fs))
}
