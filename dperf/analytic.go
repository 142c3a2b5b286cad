package dperf

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/platform"
	"repro/internal/trace"
)

// PredictMode selects the prediction tier Predict and Sweep run a
// configuration through.
type PredictMode int

const (
	// PredictDES (the default) always replays on the session pool.
	PredictDES PredictMode = iota
	// PredictAuto serves eligible, steady-state-certified
	// configurations from the analytic tier and replays everything
	// else on the session pool. The pool first replays the
	// configuration once with fast-forward forced on. Only when that
	// replay jumped is the configuration certified, and the
	// certificate serves only if the two agree bit for bit. A replay
	// that never jumped is already the answer when fast-forward is on.
	// The check runs once per certificate.
	PredictAuto
	// PredictAnalytic forces the analytic tier; ineligible
	// configurations fail instead of falling back.
	PredictAnalytic
)

func (m PredictMode) String() string {
	switch m {
	case PredictDES:
		return "des"
	case PredictAuto:
		return "auto"
	case PredictAnalytic:
		return "analytic"
	}
	return fmt.Sprintf("PredictMode(%d)", int(m))
}

// ParsePredictMode parses the CLI spelling of a prediction mode.
func ParsePredictMode(s string) (PredictMode, error) {
	switch s {
	case "des", "":
		return PredictDES, nil
	case "auto":
		return PredictAuto, nil
	case "analytic":
		return PredictAnalytic, nil
	}
	return PredictDES, fmt.Errorf("dperf: unknown predict mode %q (want des, auto or analytic)", s)
}

// Prediction tier labels.
const (
	TierDES      = "des"
	TierAnalytic = "analytic"
)

// WithPredictMode selects the prediction tier (default PredictDES).
// The analytic tier evaluates under fast-forward semantics: its
// results are bit-identical to the DES replay with
// WithFastForward(true), and can differ from a non-fast-forward replay
// by float64 rounding in the last ulps.
func WithPredictMode(m PredictMode) Option {
	return func(c *config) { c.predictMode = m }
}

// WithPredictor shares a Predictor across Predict and Sweep calls, so
// repeated predictions of the same configuration are served from its
// certificate cache and see one *Platform per (kind, size). Without
// it, a Pipeline's artifacts share the Predictor the pipeline made, a
// trace set a reader builds (ReadTraceSetJSON, ReadTraceSetBinary,
// ReadTraceSetData, LoadTraceSet) gets its own when it is read, and a
// Sweep call gets one for the whole sweep.
func WithPredictor(p *Predictor) Option {
	return func(c *config) { c.predictor = p }
}

// errNotSteadyState marks a configuration whose fast-forward replay
// never jumped: no certificate can match it, so auto mode lets the
// replay answer.
var errNotSteadyState = errors.New("dperf: fast-forward replay found no steady state")

// Predictor is the analytic tier's serving cache: platform models and
// configuration certificates, safe for concurrent use. Certifying a
// configuration runs the closed-form evaluation once. In auto mode one
// verification replay on the session pool comes first, and the
// evaluation runs only if that replay jumped. Every subsequent
// prediction for the configuration is answered from the stored
// outcome. The Predictor holds no replay sessions: the pool verifies
// on its own warm sessions.
type Predictor struct {
	mu     sync.Mutex
	plats  map[platKey]*Platform
	models map[*platform.Platform]*analytic.Model
	certs  map[string]*certEntry
	// tapes caches keyed scan families' compiled guard regions (see
	// Scan); unkeyed scans use private sets and never touch it.
	tapes map[string]*tapeSet
	// certifications counts closed-form evaluations, a deterministic
	// work counter.
	certifications atomic.Int64
	// rejects counts the scans' tape replays that rejected a point.
	rejects scanRejects
}

// certEntry is one certified configuration. Its own lock serializes
// concurrent certification of the same key without blocking the
// predictor.
type certEntry struct {
	// src pins the source the key names by address (see analyticKey):
	// while the entry lives, no other source can take that address and
	// be served this certificate.
	src       trace.FoldedSource
	mu        sync.Mutex
	cert      *analytic.Result
	err       error
	certified bool
	// verified marks auto mode's verdict as checked, and verr holds
	// it: nil when the certificate matched the pool's replay and
	// serves, otherwise why the pool answers instead.
	verified bool
	verr     error
}

// NewPredictor returns an empty analytic serving cache.
func NewPredictor() *Predictor {
	return &Predictor{
		plats:  make(map[platKey]*Platform),
		models: make(map[*platform.Platform]*analytic.Model),
		certs:  make(map[string]*certEntry),
		tapes:  make(map[string]*tapeSet),
	}
}

// platKey identifies a shareable platform build. The sizing policy
// (which rank counts produce identical graphs) lives with the
// generators as platform.SizeKey, so it cannot drift from them.
type platKey struct {
	kind  Kind
	ranks int
}

// platformFor resolves a built-in platform through the predictor's
// cache. Sessions, models and certificates are keyed by platform
// identity, so repeated predictions must see the same *Platform for
// the same kind and size — without this cache every call would build
// a fresh graph, realize a fresh session and re-certify from scratch.
func (p *Predictor) platformFor(kind Kind, ranks int) (*Platform, error) {
	key := platKey{kind: kind, ranks: platform.SizeKey(kind, ranks)}
	p.mu.Lock()
	plat := p.plats[key]
	p.mu.Unlock()
	if plat == nil {
		built, err := platform.ForKind(kind, ranks)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		if plat = p.plats[key]; plat == nil {
			plat = built
			p.plats[key] = plat
		} // else a concurrent call won the build race; keep its identity
		p.mu.Unlock()
	}
	return plat, nil
}

func (p *Predictor) model(plat *platform.Platform) (*analytic.Model, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.models[plat]; ok {
		return m, nil
	}
	m, err := analytic.NewModel(plat)
	if err != nil {
		return nil, err
	}
	p.models[plat] = m
	return m, nil
}

func (p *Predictor) entry(key string, src trace.FoldedSource) *certEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.certs[key]
	if !ok {
		e = &certEntry{src: src}
		p.certs[key] = e
	}
	return e
}

// analyticSpec maps the engine spec onto the analytic tier's spec.
func analyticSpec(spec *engineSpec) analytic.Spec {
	return analytic.Spec{
		Platform:     spec.Platform,
		Hosts:        spec.Hosts,
		Submitter:    spec.Submitter,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
		Source:       spec.Source,
	}
}

// analyticKey identifies a certifiable configuration. Platform and
// source are keyed by identity (a source by the address of its first
// rank's ops), so an entry must keep both alive: the model cache pins
// the platform and the entry itself the source.
func analyticKey(spec *engineSpec) string {
	return fmt.Sprintf("%p|%016x|%016x|%s|%p",
		spec.Platform,
		math.Float64bits(spec.ScatterBytes), math.Float64bits(spec.GatherBytes),
		strings.Join(spec.Hosts, ","), spec.Source)
}

func analyticResult(res *analytic.Result) *EngineResult {
	return &EngineResult{
		PredictedSeconds:    res.PredictedSeconds,
		ScatterSeconds:      res.ScatterSeconds,
		ComputeSeconds:      res.ComputeSeconds,
		GatherSeconds:       res.GatherSeconds,
		RoundsSimulated:     res.RoundsSimulated,
		RoundsFastForwarded: res.RoundsFastForwarded,
		Jumps:               res.Jumps,
	}
}

// entryFor returns the spec's certificate entry once the spec is
// eligible for the analytic tier.
func (p *Predictor) entryFor(spec *engineSpec) (*certEntry, error) {
	if err := analytic.Eligible(spec.Source); err != nil {
		return nil, err
	}
	return p.entry(analyticKey(spec), spec.Source), nil
}

// certify returns the entry's certificate, evaluating it on first use.
func (p *Predictor) certify(e *certEntry, spec *engineSpec) (*analytic.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.certified {
		e.certified = true
		m, err := p.model(spec.Platform)
		if err != nil {
			e.err = err
		} else {
			p.certifications.Add(1)
			e.cert, e.err = m.Evaluate(analyticSpec(spec))
		}
	}
	return e.cert, e.err
}

// predictAnalytic is analytic mode's tier policy: it serves the spec's
// certificate, certifying it on first use, steady state or not.
func (p *Predictor) predictAnalytic(spec *engineSpec) (*EngineResult, error) {
	e, err := p.entryFor(spec)
	if err != nil {
		return nil, err
	}
	cert, err := p.certify(e, spec)
	if err != nil {
		return nil, err
	}
	return analyticResult(cert), nil
}

// predictAuto is auto mode's tier policy. It returns the result and
// the tier that produced it. An eligible spec is first replayed once
// on the pool with fast-forward forced on. A certificate serves only
// when its Jumps is above zero and equal to that replay's, so the
// configuration is certified only after the replay jumped; a replay
// that never jumped is already the answer when fast-forward is on. The
// verdict is kept, so later predictions of the configuration either
// serve the certificate or replay once. Any failure (ineligibility, no
// jump, a certification error, a mismatch) lets the pool answer.
func (p *Predictor) predictAuto(spec *engineSpec, pool *SessionPool) (*EngineResult, string, error) {
	e, err := p.entryFor(spec)
	if err != nil {
		return replayTier(pool, spec)
	}
	e.mu.Lock()
	verified, verr, cert := e.verified, e.verr, e.cert
	e.mu.Unlock()
	if verified {
		if verr != nil {
			return replayTier(pool, spec)
		}
		return analyticResult(cert), TierAnalytic, nil
	}
	// The replay runs outside the entry's lock, so concurrent first
	// uses may each replay; replay is deterministic, so each reaches
	// the same verdict.
	vs := *spec
	vs.FastForward = true
	res, rerr := pool.replay(vs)
	switch {
	case rerr != nil:
		verr = fmt.Errorf("dperf: analytic verification replay failed: %w", rerr)
	case res.Jumps == 0:
		verr = errNotSteadyState
	default:
		if cert, verr = p.certify(e, spec); verr == nil {
			verr = matchReplay(cert, res)
		}
	}
	e.mu.Lock()
	e.verified, e.verr = true, verr
	e.mu.Unlock()
	switch {
	case verr == nil:
		return analyticResult(cert), TierAnalytic, nil
	case !spec.FastForward:
		return replayTier(pool, spec)
	case rerr != nil:
		return nil, "", rerr
	}
	// The verification replay was this configuration's own replay.
	return res, TierDES, nil
}

// replayTier lets the pool answer the spec.
func replayTier(pool *SessionPool, spec *engineSpec) (*EngineResult, string, error) {
	res, err := pool.replay(*spec)
	return res, TierDES, err
}

// matchReplay requires the certificate to match a fast-forward replay
// of its spec on the pool bit for bit: every phase time, both round
// counts and the jump count. This is the auto tier's guardrail before
// a certificate serves predictions without further simulation.
func matchReplay(c *analytic.Result, res *EngineResult) error {
	if res.PredictedSeconds != c.PredictedSeconds ||
		res.ScatterSeconds != c.ScatterSeconds ||
		res.ComputeSeconds != c.ComputeSeconds ||
		res.GatherSeconds != c.GatherSeconds ||
		res.RoundsSimulated != c.RoundsSimulated ||
		res.RoundsFastForwarded != c.RoundsFastForwarded ||
		res.Jumps != c.Jumps {
		return fmt.Errorf("dperf: analytic prediction diverged from verification replay: analytic %v, replay %v", c.PredictedSeconds, res.PredictedSeconds)
	}
	return nil
}
