// Package analytic is dPerf's closed-form prediction tier: it costs a
// steady-state workload without running the discrete-event simulator
// on the prediction path.
//
// The DES replay (internal/replay over internal/des) is exact but
// drives every compute, send and receive through simulated processes,
// switching into a process coroutine at each wakeup and running a
// scheduled closure per network event; even with fast-forward a
// paper-scale obstacle replay crosses thousands of events before the
// steady-state detector can jump. This package re-derives the
// identical prediction with one engine (gengine.go, gexec.go): the des
// kernel, the netsim fluid network, the p2pdc scatter/compute/gather
// protocol and the p2psap channel model re-expressed as plain state
// machines driven by one (time, seq)-ordered event loop. The
// steady-state detection is not re-expressed: the engine implements
// replay.FFKernel and drives the DES replay's own controller
// (replay.FFController) at the managed loops' boundaries. Every
// scheduling call, float operation and tie-break mirrors the DES stack
// operation for operation, so the evaluation is bit-identical to
// replay.RunSource with FastForward=FFOn — the differential tests here
// and in dperf assert exactly that.
//
// The engine is generic over its number type and has two
// instantiations. At float64 (f64.go) it serves Evaluate, whose cached
// Result (dperf's certificate) then answers repeated predictions in
// nanoseconds. At the tape recorder's symbolic values (tape.go) the
// same evaluation records a guarded straight-line tape that replays a
// whole region of platform parameters.
//
// Why bit identity is attainable at all: the des event queue is a
// strict total order ((time, seq) with unique sequence numbers), so
// pop order is independent of queue shape; process interleaving is
// fully determined by the scheduling calls each primitive makes; and
// the replayed applications never exchange data values, only timing —
// mailbox payloads can be dropped and every queue becomes a counter.
// What remains is pure float64 arithmetic, which this package performs
// in the same order with the same operands.
package analytic

import (
	"fmt"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Spec configures one analytic evaluation. The fields mirror
// replay.Spec: a prediction is comparable across tiers only when both
// were produced from the same spec.
type Spec struct {
	// Platform supplies routes and link capacities. When evaluating
	// through a shared Model, it must be nil or the model's platform.
	Platform *platform.Platform
	// Hosts maps rank -> host name. Hosts must be pairwise distinct:
	// the analytic mailbox model indexes peer boxes by rank pair, which
	// coincides with the DES per-(host, tag) mailboxes only when no two
	// ranks share a host.
	Hosts []string
	// Submitter is the scatter/gather endpoint (platform frontend).
	Submitter string
	// Scheme labels the P2PSAP scheme of the trace prediction. The
	// evaluator never reads it: the traced record kinds behave
	// identically under both schemes (sends are eager, receives
	// block), as they do in trace replay (TestSchemeInvariance). dperf
	// leaves it zero; the field stays for callers that still set it,
	// such as dperfbench.
	Scheme p2psap.Scheme
	// ScatterBytes/GatherBytes model the P2PDC deployment phases.
	ScatterBytes float64
	GatherBytes  float64
	// Source supplies each rank's folded ops; the steady-state engine
	// needs their Repeat boundaries, exactly like the DES fast-forward
	// executor.
	Source trace.Source
}

// Result is the analytic prediction, field-compatible with the replay
// result plus the steady-state round accounting.
type Result struct {
	// PredictedSeconds is t_predicted: submission to last gather.
	PredictedSeconds float64
	ScatterSeconds   float64
	ComputeSeconds   float64
	GatherSeconds    float64
	// RoundsSimulated / RoundsFastForwarded / Jumps mirror
	// replay.FFStats for the managed loops.
	RoundsSimulated     int64
	RoundsFastForwarded int64
	Jumps               int64
}

// Eligible reports whether a trace source qualifies for the analytic
// tier: every rank must contain at least one top-level manageable
// Repeat (replay.Manageable — the same rule the DES fast-forward
// executor applies), since a workload with no steady-state candidate
// gains nothing over plain DES replay.
func Eligible(src trace.Source) error {
	if src == nil {
		return fmt.Errorf("analytic: nil source")
	}
	for r := 0; r < src.Ranks(); r++ {
		found := false
		for _, op := range src.RankOps(r) {
			if replay.Manageable(op) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("analytic: rank %d has no steady-state candidate (top-level Repeat of >= %d iterations with a leading compute and collectives)", r, replay.FFMinIterations)
		}
	}
	return nil
}

// Evaluate runs one analytic evaluation, building a throwaway model
// for spec.Platform. Callers evaluating many specs against one
// platform should build a Model once and use Model.Evaluate.
func Evaluate(spec Spec) (*Result, error) {
	if spec.Platform == nil {
		return nil, fmt.Errorf("analytic: spec has no platform")
	}
	m, err := NewModel(spec.Platform)
	if err != nil {
		return nil, err
	}
	return m.Evaluate(spec)
}

// Model is the reusable, platform-bound half of the evaluator: the
// engine's network model at float64 — link records and a route cache
// whose latencies are summed edge by edge in path order, exactly as
// the realized network's RouteProvider does. A Model is safe for
// concurrent use; sweeps and dperfd share one per platform across
// goroutines.
type Model struct {
	gm *gmodel[float64]
}

// NewModel builds the analytic network model for a platform.
func NewModel(plat *platform.Platform) (*Model, error) {
	gm, err := newGModel[float64](f64{}, plat, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Model{gm: gm}, nil
}

// Platform returns the platform the model is bound to.
func (m *Model) Platform() *platform.Platform { return m.gm.plat }

// Evaluate runs one analytic evaluation against the model's platform:
// the engine instantiated at float64. The engine itself checks the
// hosts, the submitter and the deployment bytes.
func (m *Model) Evaluate(spec Spec) (*Result, error) {
	if spec.Platform != nil && spec.Platform != m.gm.plat {
		return nil, fmt.Errorf("analytic: spec platform %q is not the model's platform %q", spec.Platform.Name, m.gm.plat.Name)
	}
	if spec.Source == nil || spec.Source.Ranks() == 0 {
		return nil, fmt.Errorf("analytic: no traces")
	}
	if err := trace.ValidateSource(spec.Source); err != nil {
		return nil, err
	}
	var ar f64
	ranks := make([][]gop[float64], spec.Source.Ranks())
	for r := range ranks {
		ranks[r] = convOps[float64](ar, spec.Source.RankOps(r))
	}
	res, err := runGeneric[float64, f64](ar, m.gm, &gspec[float64]{
		hosts:        spec.Hosts,
		submitter:    spec.Submitter,
		scatterBytes: spec.ScatterBytes,
		gatherBytes:  spec.GatherBytes,
		ranks:        ranks,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		PredictedSeconds:    res.predicted,
		ScatterSeconds:      res.scatter,
		ComputeSeconds:      res.compute,
		GatherSeconds:       res.gather,
		RoundsSimulated:     res.ff.RoundsSimulated,
		RoundsFastForwarded: res.ff.RoundsFastForwarded,
		Jumps:               res.ff.Jumps,
	}, nil
}

// Certify is Evaluate. It is kept only because dperfbench's traced
// run calls it.
func (m *Model) Certify(spec Spec) (*Result, error) { return m.Evaluate(spec) }
