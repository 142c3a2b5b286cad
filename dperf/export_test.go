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

// ScanRejects reports how many batch and scalar tape replays the
// Predictor's scans ran that rejected a point.
func (p *Predictor) ScanRejects() (batch, scalar int64) {
	return p.rejects.batch.Load(), p.rejects.scalar.Load()
}

// Replays reports how many replays the pool has run.
func (p *SessionPool) Replays() int64 { return p.replays.Load() }

// SkewCertificate certifies the set's configuration under opts on p
// and moves the certified prediction by delta seconds, so that auto
// mode's verification replay disagrees with it.
func SkewCertificate(p *Predictor, ts *TraceSet, delta float64, opts ...Option) error {
	cfg := ts.cfg.apply(opts)
	cfg.predictor = p
	spec, _, err := cfg.resolve(ts)
	if err != nil {
		return err
	}
	e, err := p.entryFor(&spec)
	if err != nil {
		return err
	}
	cert, err := p.certify(e, &spec)
	if err != nil {
		return err
	}
	cert.PredictedSeconds += delta
	return nil
}
