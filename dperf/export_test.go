package dperf

import "repro/internal/trace"

// TraceSetWithOps returns a set with ts's workload, rank count, level
// and deployment payloads that replays the given per-rank folded ops,
// which lets a test shape a set's loop structure directly.
func TraceSetWithOps(ts *TraceSet, folded []*trace.Folded) *TraceSet {
	return &TraceSet{
		Workload:     ts.Workload,
		Ranks:        ts.Ranks,
		Level:        ts.Level,
		ScatterBytes: ts.ScatterBytes,
		GatherBytes:  ts.GatherBytes,
		folded:       folded,
		cfg:          readConfig(),
	}
}

// Certifications reports how many closed-form evaluations the
// Predictor has run.
func (p *Predictor) Certifications() int64 { return p.certifications.Load() }
