package dperf

import (
	"io"

	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// PeriodCache once shared proven fast-forward jumps across replays.
//
// Deprecated: the cache is gone; a warm hit skipped one scan of at
// most 16 boundary signatures and saved no measurable time. The type
// remains so existing callers compile, and does nothing.
type PeriodCache struct{}

// NewPeriodCache returns an empty PeriodCache.
//
// Deprecated: see PeriodCache.
func NewPeriodCache() *PeriodCache { return &PeriodCache{} }

// engineName labels every prediction and sweep row. It is "replay",
// the in-process engine's name since before pooling, so predictions
// keep their bytes.
const engineName = "replay"

// engineSpec is everything a replay needs to turn a
// platform-independent trace set into a platform-specific prediction.
// It holds no P2PSAP scheme: no replay result depends on one (sends
// are eager and receives block under both schemes), so the scheme only
// labels a prediction (Prediction.Scheme), and configurations that
// differ only in scheme share one certificate and one verification.
type engineSpec struct {
	Platform *platform.Platform
	// Hosts maps rank -> host name; one entry per trace.
	Hosts []string
	// Submitter is the scatter/gather endpoint (platform frontend).
	Submitter string
	// ScatterBytes/GatherBytes are the per-peer deployment payloads.
	ScatterBytes float64
	GatherBytes  float64
	// Source is the set's per-rank folded ops. They replay in
	// O(compressed) memory and may be shared across concurrent
	// replays (a replay only reads them).
	Source trace.FoldedSource
	// FastForward enables steady-state fast-forward replay: once the
	// rounds of a folded Repeat loop settle into an exactly periodic
	// steady state, the remaining iterations are costed in closed
	// form instead of simulated. Results are bit-identical to the
	// engine's rebased per-iteration path (replay.FFVerify); relative
	// to a replay without fast-forward (the default) predictions can
	// differ by float64 rounding in the last ulps.
	FastForward bool
	// Debug, when non-nil, receives the fast-forward engine's boundary
	// and jump diagnostics. Observational only: it never reaches a
	// prediction.
	Debug io.Writer
}

// EngineResult is a replay outcome: t_predicted plus its phase
// breakdown, all in virtual seconds.
type EngineResult struct {
	PredictedSeconds float64
	ScatterSeconds   float64
	ComputeSeconds   float64
	GatherSeconds    float64
	// RoundsSimulated / RoundsFastForwarded report the fast-forward
	// engine's work split over managed Repeat loops (both zero when
	// fast-forward was off or never engaged).
	RoundsSimulated     int64
	RoundsFastForwarded int64
	// Jumps counts the fast-forward jumps behind RoundsFastForwarded.
	// Auto mode compares it when it verifies a certificate; it is
	// never serialized.
	Jumps int64
}

func replaySpec(spec engineSpec) replay.Spec {
	mode := replay.FFOff
	if spec.FastForward {
		mode = replay.FFOn
	}
	return replay.Spec{
		Platform:     spec.Platform,
		Hosts:        spec.Hosts,
		Submitter:    spec.Submitter,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
		FastForward:  mode,
		Debug:        spec.Debug,
	}
}

func engineResult(res *replay.Result) *EngineResult {
	return &EngineResult{
		PredictedSeconds:    res.PredictedSeconds,
		ScatterSeconds:      res.ScatterSeconds,
		ComputeSeconds:      res.ComputeSeconds,
		GatherSeconds:       res.GatherSeconds,
		RoundsSimulated:     res.FF.RoundsSimulated,
		RoundsFastForwarded: res.FF.RoundsFastForwarded,
		Jumps:               res.FF.Jumps,
	}
}
