package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"repro/dperf"
	"repro/internal/trace"
)

// fixtures are the two base trace sets every workload derives its
// inputs from: the paper-scale obstacle workload (N=1200, 120 rounds
// of 15 sweeps) at 8 ranks, at O0 (fast-forward settles it, so auto
// mode serves it from the analytic tier) and at O2 (its rounds never
// settle, so every replay simulates all of them).
type fixtures struct {
	o0, o2 *dperf.TraceSet
}

// loadFixtures returns the base sets, interpreting the obstacle source
// only when dir holds no cached copy. Interpretation takes seconds per
// set, so it happens once per checkout and never inside a timed phase.
func loadFixtures(dir string) (*fixtures, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o0, err := baseSet(dir, dperf.O0)
	if err != nil {
		return nil, err
	}
	o2, err := baseSet(dir, dperf.O2)
	if err != nil {
		return nil, err
	}
	return &fixtures{o0: o0, o2: o2}, nil
}

func baseSet(dir string, level dperf.Level) (*dperf.TraceSet, error) {
	path := filepath.Join(dir, fmt.Sprintf("obstacle-r8-%s.dpts", level))
	if ts, err := dperf.LoadTraceSet(path); err == nil {
		return ts, nil
	}
	a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithRanks(8), dperf.WithLevel(level)).Analyze()
	if err != nil {
		return nil, err
	}
	ts, err := a.Traces()
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := ts.SaveBinary(tmp); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return ts, nil
}

// variant serializes a copy of base whose compute durations are all
// scaled by f, in the per-rank binary container (format version 1)
// that dperf.TraceSet.WriteBinary emits. Scaling every compute record
// by one factor keeps the folded loop structure, so a variant of a
// settling set still settles and a variant of an irregular one stays
// irregular, while its bytes, digest and predictions are its own.
func variant(base *dperf.TraceSet, f float64) ([]byte, error) {
	var b []byte
	b = append(b, "dpts"...)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, uint64(len(base.Workload)))
	b = append(b, base.Workload...)
	b = binary.AppendUvarint(b, uint64(base.Ranks))
	b = binary.AppendUvarint(b, uint64(base.Level))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(base.ScatterBytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(base.GatherBytes))
	for _, fd := range base.Folded() {
		v := &trace.Folded{Rank: fd.Rank, Of: fd.Of, Ops: scaleCompute(fd.Ops, f)}
		var blob bytes.Buffer
		if err := v.WriteBinary(&blob); err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(blob.Len()))
		b = append(b, blob.Bytes()...)
	}
	return b, nil
}

func scaleCompute(ops []trace.Op, f float64) []trace.Op {
	out := make([]trace.Op, len(ops))
	for i, op := range ops {
		out[i] = op
		switch {
		case op.Body != nil:
			out[i].Body = scaleCompute(op.Body, f)
		case op.Rec.Kind == trace.KindCompute:
			out[i].Rec.NS = op.Rec.NS * f
		}
	}
	return out
}

// rng is a splitmix64 stream. Every seeded choice the benchmark makes
// draws from a stream keyed by (seed, purpose, index), so unit i's
// inputs are the same whichever units ran before it.
type rng struct{ s uint64 }

func newRNG(seed uint64, purpose string, i int) *rng {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// scaleFactor is the compute scale of a seeded variant: within ±5% of
// the base set, far enough apart that two draws never collide.
func (r *rng) scaleFactor() float64 { return 0.95 + 0.1*r.float() }
