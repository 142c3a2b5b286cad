package dperf

import "io"

// config carries the resolved pipeline settings. It is captured when
// a Pipeline is created, flows into every artifact the pipeline
// produces, and can be overridden per stage call with Options.
type config struct {
	level Level
	ranks int
	// ranksSet distinguishes an explicit WithRanks value from the
	// default, so an explicit nonpositive count fails downstream
	// instead of being silently replaced.
	ranksSet    bool
	kind        Kind
	scheme      Scheme
	pool        *SessionPool
	fastForward bool
	predictMode PredictMode
	predictor   *Predictor
	ffDebug     io.Writer
}

// normalized fills unset fields with the documented defaults: level
// O0, 4 ranks, the cluster platform, the synchronous scheme, a fresh
// SessionPool and a fresh Predictor. The Predictor resolves every
// platform, so all calls sharing a config see one *Platform per (kind,
// size), and the session pool keyed on it reuses its sessions.
func (c config) normalized() config {
	if c.ranks == 0 && !c.ranksSet {
		c.ranks = 4
	}
	if c.kind == "" {
		c.kind = KindCluster
	}
	if c.pool == nil {
		c.pool = NewSessionPool()
	}
	if c.predictor == nil {
		c.predictor = NewPredictor()
	}
	return c
}

func (c config) apply(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c.normalized()
}

// Option adjusts pipeline settings. Options passed to New become the
// pipeline defaults; options passed to a stage call override them for
// that call only.
type Option func(*config)

// WithLevel sets the GCC optimization level used for benchmarking and
// trace generation.
func WithLevel(l Level) Option { return func(c *config) { c.level = l } }

// WithRanks sets the number of peer processes (default 4). A count
// below one is rejected by the trace-generation stage.
func WithRanks(n int) Option {
	return func(c *config) {
		c.ranks = n
		c.ranksSet = true
	}
}

// WithPlatform targets one of the built-in evaluation platforms
// (default KindCluster).
func WithPlatform(k Kind) Option { return func(c *config) { c.kind = k } }

// WithScheme sets the P2PSAP computation scheme a prediction is
// labelled with (default Synchronous). No trace prediction depends on
// it: the traced sends are eager and the receives block under both
// schemes, so the scheme moves no predicted time, and predictions that
// differ only in scheme share one certificate, one verification and
// the pooled sessions.
func WithScheme(s Scheme) Option { return func(c *config) { c.scheme = s } }

// WithEngine shares a SessionPool, the replay engine, across Predict
// and Sweep calls, so their replays (and, in auto mode, the
// verification replays of the analytic tier's certificates) reuse its
// warm sessions. Without it, a Pipeline's artifacts share the pool the
// pipeline made, a trace set a reader builds gets its own when it is
// read, and a Sweep call gets one for the whole sweep.
func WithEngine(p *SessionPool) Option { return func(c *config) { c.pool = p } }

// WithPeriodCache does nothing.
//
// Deprecated: the period cache is gone (see PeriodCache).
func WithPeriodCache(*PeriodCache) Option { return func(*config) {} }

// WithFFDebug streams the fast-forward engine's boundary-rejection and
// jump diagnostics to w (nil: silent, the default). Observational
// only — diagnostics can never reach a prediction. This replaces the
// old process-wide FF_DEBUG environment gate, which was frozen at init
// time; the dperf CLI maps FF_DEBUG to this option itself.
func WithFFDebug(w io.Writer) Option {
	return func(c *config) { c.ffDebug = w }
}

// WithFastForward toggles steady-state fast-forward replay (default
// off): once the rounds of a folded Repeat loop reach an exactly
// periodic steady state, the remaining iterations are costed in
// closed form instead of simulated — typically an order of magnitude
// faster on iteration-dominated traces. The fast-forwarded prediction
// is bit-identical to the engine's per-iteration verification path;
// relative to the default (no fast-forward) it can differ by float64
// rounding in the last ulps. The resulting Prediction reports rounds
// simulated vs fast-forwarded.
func WithFastForward(on bool) Option { return func(c *config) { c.fastForward = on } }
