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
	Scheme   Scheme `json:"scheme"`
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
	// ReplayWorkers / ReplayWindows report how the parallel replay
	// engine executed (zero for the serial engine). Execution-strategy
	// metadata only: the predicted times above are bit-identical at
	// any worker count.
	ReplayWorkers int `json:"replay_workers,omitempty"`
	ReplayWindows int `json:"replay_windows,omitempty"`
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

// engineSpec resolves the configuration against the trace set into
// the spec handed to the replay engine, plus the platform label used
// in reports.
func (cfg config) engineSpec(ts *TraceSet) (EngineSpec, string, error) {
	if ts.Source().Ranks() == 0 {
		return EngineSpec{}, "", fmt.Errorf("dperf: empty trace set")
	}
	plat, label, err := cfg.platformFor(ts.Ranks)
	if err != nil {
		return EngineSpec{}, "", err
	}
	return cfg.engineSpecOn(ts, plat, label)
}

// engineSpecOn is engineSpec with the platform already resolved —
// sweeps resolve each distinct platform once and share it.
func (cfg config) engineSpecOn(ts *TraceSet, plat *Platform, label string) (EngineSpec, string, error) {
	if plat.Frontend == "" {
		return EngineSpec{}, "", fmt.Errorf("dperf: platform %s has no frontend host to submit from", plat.Name)
	}
	hosts, err := hostsFor(plat, ts.Ranks)
	if err != nil {
		return EngineSpec{}, "", err
	}
	spec := EngineSpec{
		Platform:     plat,
		Hosts:        hosts,
		Submitter:    plat.Frontend,
		Scheme:       cfg.scheme,
		ScatterBytes: ts.ScatterBytes,
		GatherBytes:  ts.GatherBytes,
		Source:       ts.Source(),
		FastForward:  cfg.fastForward,
		Debug:        cfg.ffDebug,
	}
	return spec, label, nil
}

// newPrediction assembles the public result from an engine outcome.
func (cfg config) newPrediction(ts *TraceSet, label string, res *EngineResult) *Prediction {
	return &Prediction{
		Workload:            ts.Workload,
		Platform:            label,
		Engine:              cfg.engine.Name(),
		Ranks:               ts.Ranks,
		Level:               ts.Level,
		Scheme:              cfg.scheme,
		Predicted:           res.PredictedSeconds,
		Scatter:             res.ScatterSeconds,
		Compute:             res.ComputeSeconds,
		Gather:              res.GatherSeconds,
		RoundsSimulated:     res.RoundsSimulated,
		RoundsFastForwarded: res.RoundsFastForwarded,
		ReplayWorkers:       res.ReplayWorkers,
		ReplayWindows:       res.ReplayWindows,
		Tier:                TierDES,
		TraceSet:            ts,
	}
}

// Predict produces the prediction for the trace set on the configured
// platform — through the DES replay engine, the analytic tier, or
// auto-selection between them (WithPredictMode). The same trace set
// can be predicted on many platforms — pass
// WithPlatform/WithCustomPlatform per call. Trace sets loaded from
// JSON use the package defaults for anything not overridden here.
func (ts *TraceSet) Predict(opts ...Option) (*Prediction, error) {
	cfg := ts.cfg.apply(opts)
	var (
		spec      EngineSpec
		label     string
		err       error
		predictor *Predictor
	)
	if cfg.predictMode != PredictDES || cfg.predictor != nil {
		// Resolve the platform through the predictor so a shared
		// predictor sees a stable *Platform identity across calls —
		// certificate-cache and session-pool hits both key on it. A caller-installed predictor provides that identity
		// even in pure DES mode.
		predictor = cfg.predictorOrNew()
		if ts.Source().Ranks() == 0 {
			return nil, fmt.Errorf("dperf: empty trace set")
		}
		var plat *Platform
		plat, label, err = predictor.platformFor(&cfg, ts.Ranks)
		if err != nil {
			return nil, err
		}
		spec, label, err = cfg.engineSpecOn(ts, plat, label)
	} else {
		spec, label, err = cfg.engineSpec(ts)
	}
	if err != nil {
		return nil, err
	}
	switch cfg.predictMode {
	case PredictAnalytic:
		res, err := predictor.tryAnalytic(&spec, nil)
		if err != nil {
			return nil, err
		}
		pred := cfg.newPrediction(ts, label, res)
		pred.Tier = TierAnalytic
		return pred, nil
	case PredictAuto:
		// Any analytic failure — ineligibility, no steady state, a
		// verification mismatch — silently selects the DES tier; that
		// fallback is the mode's contract. The engine that answers the
		// fallback also runs the verification replay.
		if res, err := predictor.tryAnalytic(&spec, cfg.engine); err == nil {
			pred := cfg.newPrediction(ts, label, res)
			pred.Tier = TierAnalytic
			return pred, nil
		}
	}
	res, err := cfg.engine.Replay(spec)
	if err != nil {
		return nil, err
	}
	return cfg.newPrediction(ts, label, res), nil
}

// hostsFor picks the first n compute hosts of a platform.
func hostsFor(plat *Platform, n int) ([]string, error) {
	hosts, have := plat.FirstHosts(n)
	if have < n {
		return nil, fmt.Errorf("dperf: platform %s has %d hosts, need %d", plat.Name, have, n)
	}
	return hosts, nil
}
