package trace

import (
	"fmt"
	"math"
)

// Source is replay's input: the per-rank folded op sequences of a
// consistent set. Rank r of a source with Ranks() == n holds the ops of
// rank r in an n-rank execution. Replay walks them in order, so a run
// of identical records costs one op and Repeat boundaries stay visible
// to the steady-state engines (the unit fast-forward detects over is a
// round of a folded loop). The returned slices must not be mutated; a
// Source may be shared by concurrent readers.
type Source interface {
	Ranks() int
	RankOps(rank int) []Op
}

// FoldedSource adapts a folded trace slice (rank-indexed) as a
// Source.
type FoldedSource []*Folded

// Ranks implements Source.
func (s FoldedSource) Ranks() int { return len(s) }

// RankOps implements Source.
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
// accept per rank before declaring the trace unreasonable. Folded
// traces from untrusted files can imply astronomically long replays.
const maxValidateRecords = int64(1) << 33

// ValidateSource checks cross-rank consistency of a source: every
// send has a matching recv on the peer and all conv/barrier counts
// agree — replay deadlocks otherwise. The check is structural, O(ops):
// it walks multiplicities, never iterations, so a hostile repeat count
// cannot turn validation into a spin.
func ValidateSource(src Source) error {
	n := src.Ranks()
	v := newValidator(n)
	for i := 0; i < n; i++ {
		if err := WalkOps(src.RankOps(i), 1, v.visitor(i)); err != nil {
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

// ValidQuantity reports whether x is a usable compute duration or
// message size: non-negative and below +Inf (NaN fails the
// comparison). Every decoder and the validator apply it, so a source
// built in memory is held to the same bound as a parsed one: replay
// cannot advance past an infinite compute, and a NaN, negative or
// infinite message never completes. The trace-set readers and both
// prediction tiers hold a run's deployment bytes to the same rule.
func ValidQuantity(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

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
			if !ValidQuantity(r.Bytes) {
				return fmt.Errorf("trace: rank %d sends invalid message size %v", rank, r.Bytes)
			}
			p := ValidatePair{rank, r.Peer}
			v.sends[p] = SatAdd(v.sends[p], mult)
		case KindRecv:
			if r.Peer < 0 || r.Peer >= v.n || r.Peer == rank {
				return fmt.Errorf("trace: rank %d receives from invalid peer %d", rank, r.Peer)
			}
			if !ValidQuantity(r.Bytes) {
				return fmt.Errorf("trace: rank %d receives invalid message size %v", rank, r.Bytes)
			}
			p := ValidatePair{r.Peer, rank}
			v.recvs[p] = SatAdd(v.recvs[p], mult)
		case KindConv:
			v.convs[rank] = SatAdd(v.convs[rank], mult)
		case KindBarrier:
			v.bars[rank] = SatAdd(v.bars[rank], mult)
		case KindCompute:
			if !ValidQuantity(r.NS) {
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
