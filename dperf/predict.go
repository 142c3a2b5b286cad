package dperf

import (
	"encoding/json"
	"fmt"
	"io"
)

// Prediction is a complete dPerf result for one configuration.
type Prediction struct {
	Workload string `json:"workload,omitempty"`
	Platform string `json:"platform"`
	Engine   string `json:"engine"`
	Ranks    int    `json:"ranks"`
	Level    Level  `json:"level"`
	// Scheme is the P2PSAP scheme the prediction is labelled with
	// (WithScheme); no predicted time depends on it.
	Scheme Scheme `json:"scheme"`
	// Predicted is t_predicted in seconds; Scatter/Compute/Gather are
	// its phase breakdown.
	Predicted float64 `json:"predicted_s"`
	Scatter   float64 `json:"scatter_s"`
	Compute   float64 `json:"compute_s"`
	Gather    float64 `json:"gather_s"`
	// RoundsSimulated / RoundsFastForwarded report the steady-state
	// fast-forward split over the trace's folded iteration loops
	// (both zero unless WithFastForward(true) engaged).
	RoundsSimulated     int64 `json:"rounds_simulated,omitempty"`
	RoundsFastForwarded int64 `json:"rounds_fast_forwarded,omitempty"`
	// Tier reports which prediction tier produced the result: TierDES
	// (the replay engine) or TierAnalytic (the closed-form evaluator).
	Tier string `json:"tier,omitempty"`
	// TraceSet is the artifact this prediction was replayed from. It is
	// kept out of serialized predictions: the trace set is its own
	// artifact with its own JSON format.
	TraceSet *TraceSet `json:"-"`
}

// predictionVersion guards the serialized prediction format.
const predictionVersion = 1

type predictionJSON struct {
	Version int `json:"dperf_prediction_version"`
	*Prediction
}

// WriteJSON serializes the prediction, indented, with a format version
// header. This is the canonical machine rendering: the dperf CLI's
// -json flag and the dperfd server both emit exactly these bytes, so
// "bit-identical predictions" is checkable with a byte comparison.
func (p *Prediction) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(predictionJSON{Version: predictionVersion, Prediction: p})
}

// resolve turns the configuration and the trace set into the spec
// handed to the session pool and the analytic tier, plus the platform
// label used in reports. The configuration's Predictor resolves the
// platform. The label is returned whenever the platform resolved, even
// if the spec then fails.
func (cfg config) resolve(ts *TraceSet) (engineSpec, string, error) {
	if len(ts.folded) == 0 {
		return engineSpec{}, "", fmt.Errorf("dperf: empty trace set")
	}
	plat, err := cfg.predictor.platformFor(cfg.kind, ts.Ranks)
	if err != nil {
		return engineSpec{}, "", err
	}
	label := string(cfg.kind)
	hosts, err := hostsFor(plat, ts.Ranks)
	if err != nil {
		return engineSpec{}, label, err
	}
	spec := engineSpec{
		Platform:     plat,
		Hosts:        hosts,
		Submitter:    plat.Frontend,
		ScatterBytes: ts.ScatterBytes,
		GatherBytes:  ts.GatherBytes,
		Source:       ts.folded,
		FastForward:  cfg.fastForward,
		Debug:        cfg.ffDebug,
	}
	return spec, label, nil
}

// predict is the tier policy, the one path from a resolved spec to a
// prediction for Predict and every Sweep job. DES mode always
// replays on the session pool. Analytic mode serves the Predictor's
// certificate and fails instead of falling back. Auto mode serves a
// certificate only after one fast-forward replay on the pool jumped
// and matched it, and otherwise lets the pool answer (see
// PredictAuto).
func (cfg config) predict(ts *TraceSet, spec *engineSpec, label string) (*Prediction, error) {
	var (
		res  *EngineResult
		tier = TierDES
		err  error
	)
	switch cfg.predictMode {
	case PredictAnalytic:
		res, err = cfg.predictor.predictAnalytic(spec)
		tier = TierAnalytic
	case PredictAuto:
		res, tier, err = cfg.predictor.predictAuto(spec, cfg.pool)
	default:
		res, err = cfg.pool.replay(*spec)
	}
	if err != nil {
		return nil, err
	}
	return cfg.newPrediction(ts, label, res, tier), nil
}

// newPrediction assembles the public result from a tier's outcome.
func (cfg config) newPrediction(ts *TraceSet, label string, res *EngineResult, tier string) *Prediction {
	return &Prediction{
		Workload:            ts.Workload,
		Platform:            label,
		Engine:              engineName,
		Ranks:               ts.Ranks,
		Level:               ts.Level,
		Scheme:              cfg.scheme,
		Predicted:           res.PredictedSeconds,
		Scatter:             res.ScatterSeconds,
		Compute:             res.ComputeSeconds,
		Gather:              res.GatherSeconds,
		RoundsSimulated:     res.RoundsSimulated,
		RoundsFastForwarded: res.RoundsFastForwarded,
		Tier:                tier,
		TraceSet:            ts,
	}
}

// Predict produces the prediction for the trace set on the configured
// platform — through the DES replay engine, the analytic tier, or
// auto-selection between them (WithPredictMode). The same trace set
// can be predicted on many platforms — pass WithPlatform per call.
// Trace sets loaded from JSON use the package defaults for anything
// not overridden here.
func (ts *TraceSet) Predict(opts ...Option) (*Prediction, error) {
	cfg := ts.cfg.apply(opts)
	spec, label, err := cfg.resolve(ts)
	if err != nil {
		return nil, err
	}
	return cfg.predict(ts, &spec, label)
}

// hostsFor picks the first n compute hosts of a platform.
func hostsFor(plat *Platform, n int) ([]string, error) {
	hosts, have := plat.FirstHosts(n)
	if have < n {
		return nil, fmt.Errorf("dperf: platform %s has %d hosts, need %d", plat.Name, have, n)
	}
	return hosts, nil
}
