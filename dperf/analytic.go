package dperf

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/analytic"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// PredictMode selects the prediction tier Predict and Sweep run a
// configuration through.
type PredictMode int

const (
	// PredictDES (the default) always replays through the configured
	// DES engine.
	PredictDES PredictMode = iota
	// PredictAuto serves eligible, steady-state-certified
	// configurations from the analytic tier — each certificate is
	// checked once against a DES verification replay before it serves
	// predictions — and falls back to the DES engine for everything
	// else.
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
// results are bit-identical to the DES engine with
// WithFastForward(true), and can differ from a non-fast-forward replay
// by float64 rounding in the last ulps.
func WithPredictMode(m PredictMode) Option {
	return func(c *config) { c.predictMode = m }
}

// WithPredictor shares a Predictor across Predict calls, so repeated
// predictions of the same configuration are served from its
// certificate cache. Without it, each Predict call in an analytic mode
// builds a throwaway predictor (Sweep always shares one across the
// whole sweep).
func WithPredictor(p *Predictor) Option {
	return func(c *config) { c.predictor = p }
}

// errNotSteadyState marks an evaluation that completed without proving
// a periodic steady state — auto mode falls back to DES for those.
var errNotSteadyState = errors.New("dperf: analytic evaluation found no steady state")

// Predictor is the analytic tier's serving cache: platform models and
// configuration certificates, safe for concurrent use. Certifying a
// configuration runs the closed-form evaluation once (plus, in auto
// mode, one DES verification replay); every subsequent prediction for
// it is answered from the stored certificate.
type Predictor struct {
	mu     sync.Mutex
	plats  map[platKey]*Platform
	models map[*platform.Platform]*analytic.Model
	certs  map[string]*certEntry
	// tapes caches keyed scan families' compiled guard regions (see
	// Scan); unkeyed scans use private sets and never touch it.
	tapes map[string]*tapeSet
}

// certEntry is one certified configuration. Its own lock serializes
// concurrent certification of the same key without blocking the
// predictor.
type certEntry struct {
	// src pins the source the key names by address (see analyticKey):
	// while the entry lives, no other source can take that address and
	// be served this certificate.
	src       trace.Source
	mu        sync.Mutex
	cert      *analytic.Certificate
	err       error
	certified bool
	verified  bool // verification replay ran (auto mode)
	verr      error
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

// platformFor resolves the configuration's target platform through the
// predictor's cache. Models and certificates are keyed by platform
// identity, so repeated Predict calls must see the same *Platform for
// the same built-in kind — without this cache every call would build a
// fresh graph and re-certify from scratch. Custom platforms already
// carry stable identity (the caller owns the pointer).
func (p *Predictor) platformFor(cfg *config, ranks int) (*Platform, string, error) {
	if cfg.custom != nil {
		return cfg.custom, cfg.custom.Name, nil
	}
	key := keyFor(cfg.kind, ranks)
	p.mu.Lock()
	plat := p.plats[key]
	p.mu.Unlock()
	if plat != nil {
		return plat, string(cfg.kind), nil
	}
	plat, label, err := cfg.platformFor(ranks)
	if err != nil {
		return nil, "", err
	}
	p.mu.Lock()
	if existing := p.plats[key]; existing != nil {
		plat = existing // lost a build race; keep one identity
	} else {
		p.plats[key] = plat
	}
	p.mu.Unlock()
	return plat, label, nil
}

// Predict serves the spec from the analytic tier: certificate-cache
// hit, or closed-form evaluation on miss. It never runs the DES
// engine; ineligible specs fail.
func (p *Predictor) Predict(spec EngineSpec) (*EngineResult, error) {
	return p.tryAnalytic(&spec, false)
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

func (p *Predictor) entry(key string, src trace.Source) *certEntry {
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
func analyticSpec(spec *EngineSpec) analytic.Spec {
	return analytic.Spec{
		Platform:     spec.Platform,
		Hosts:        spec.Hosts,
		Submitter:    spec.Submitter,
		Scheme:       spec.Scheme,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
		Source:       spec.Source,
	}
}

// analyticKey identifies a certifiable configuration. Like the sweep's
// periodKey, platform and source are keyed by identity, so an entry
// must keep both alive: the model cache pins the platform and the
// entry itself the source. An unkeyable source disables caching rather
// than risk serving a wrong certificate.
func analyticKey(spec *EngineSpec) string {
	src := sourceID(spec.Source)
	if src == "" {
		return ""
	}
	return fmt.Sprintf("%p|%d|%016x|%016x|%s|%s",
		spec.Platform, spec.Scheme,
		math.Float64bits(spec.ScatterBytes), math.Float64bits(spec.GatherBytes),
		strings.Join(spec.Hosts, ","), src)
}

func analyticResult(res analytic.Result) *EngineResult {
	return &EngineResult{
		PredictedSeconds:    res.PredictedSeconds,
		ScatterSeconds:      res.ScatterSeconds,
		ComputeSeconds:      res.ComputeSeconds,
		GatherSeconds:       res.GatherSeconds,
		RoundsSimulated:     res.RoundsSimulated,
		RoundsFastForwarded: res.RoundsFastForwarded,
	}
}

// tryAnalytic serves or certifies the spec. In auto mode (verify) the
// certificate must prove a steady state and match a one-off DES
// verification replay bit for bit before it serves anything; any error
// means "use the DES tier".
func (p *Predictor) tryAnalytic(spec *EngineSpec, verify bool) (*EngineResult, error) {
	if err := analytic.Eligible(spec.Source); err != nil {
		return nil, err
	}
	m, err := p.model(spec.Platform)
	if err != nil {
		return nil, err
	}
	aspec := analyticSpec(spec)
	key := analyticKey(spec)
	if key == "" {
		cert, err := m.Certify(aspec)
		if err != nil {
			return nil, err
		}
		if verify {
			if !cert.SteadyState {
				return nil, errNotSteadyState
			}
			if err := verifyCertificate(cert, spec); err != nil {
				return nil, err
			}
		}
		return analyticResult(cert.Res), nil
	}
	e := p.entry(key, spec.Source)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.certified {
		e.cert, e.err = m.Certify(aspec)
		e.certified = true
	}
	if e.err != nil {
		return nil, e.err
	}
	if verify {
		if !e.cert.SteadyState {
			return nil, errNotSteadyState
		}
		if !e.verified {
			e.verr = verifyCertificate(e.cert, spec)
			e.verified = true
		}
		if e.verr != nil {
			return nil, e.verr
		}
	}
	return analyticResult(e.cert.Res), nil
}

// verifyCertificate replays the spec once through the DES stack with
// fast-forward on and requires the certificate to match bit for bit —
// the auto tier's guardrail before a certificate serves predictions
// without further simulation.
func verifyCertificate(cert *analytic.Certificate, spec *EngineSpec) error {
	vs := *spec
	vs.FastForward = true
	vs.Periods = nil
	vs.PeriodKey = ""
	res, err := replay.RunSource(replaySpec(vs), vs.Source)
	if err != nil {
		return fmt.Errorf("dperf: analytic verification replay failed: %w", err)
	}
	c := cert.Res
	if res.PredictedSeconds != c.PredictedSeconds ||
		res.ScatterSeconds != c.ScatterSeconds ||
		res.ComputeSeconds != c.ComputeSeconds ||
		res.GatherSeconds != c.GatherSeconds ||
		res.FF.RoundsSimulated != c.RoundsSimulated ||
		res.FF.RoundsFastForwarded != c.RoundsFastForwarded ||
		res.FF.Jumps != c.Jumps {
		return fmt.Errorf("dperf: analytic prediction diverged from verification replay: analytic %v, replay %v", c.PredictedSeconds, res.PredictedSeconds)
	}
	return nil
}

// predictorOrNew returns the configured shared predictor, or a
// throwaway one.
func (c config) predictorOrNew() *Predictor {
	if c.predictor != nil {
		return c.predictor
	}
	return NewPredictor()
}
