// Package replay is dPerf's trace-based simulation stage: the SimGrid
// MSG equivalent. Each rank's folded ops (a trace.Source) are replayed
// as a process over a simulated platform; compute records advance the
// local clock, send and receive records move bytes through the P2PSAP
// channel model, and conv records perform the rank-0 gather/broadcast
// convergence pattern. The result is the total predicted time
// t_predicted (paper §III-D.2: "with SimGrid we calculate the
// necessary time for communicating over the network; to this time,
// SimGrid adds the computation time already present in the trace
// file").
//
// One executor (opsExec) walks the ops for every engine and mode: a
// run of identical compute records becomes one kernel event, and a
// fast-forward controller, when the spec asks for one, steers the
// managed Repeat loops.
package replay

import (
	"fmt"
	"io"

	"repro/internal/p2pdc"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Spec configures a replay.
type Spec struct {
	Platform *platform.Platform
	// Hosts maps rank -> host name; one entry per source rank.
	Hosts []string
	// Submitter is the scatter/gather endpoint (platform frontend).
	Submitter string
	// Scheme labels the P2PSAP channels the data records travel on.
	// No replay result depends on it (the channels only store it):
	// traced sends are eager and receives block under both schemes, so
	// every result is the same under either (TestSchemeInvariance).
	// dperf leaves it zero; the field stays for callers that still set
	// it, such as dperfbench.
	Scheme p2psap.Scheme
	// ScatterBytes/GatherBytes model the P2PDC input distribution and
	// result collection phases around the traced execution.
	ScatterBytes float64
	GatherBytes  float64
	// FastForward selects the steady-state fast-forward mode (FFOff,
	// FFVerify, FFOn). The default FFOff replays every folded round
	// and keeps timings bit-identical to prior releases; FFOn skips
	// steady-state rounds in closed form, bit-identical to FFVerify
	// (the rebased per-iteration reference).
	FastForward FFMode
	// Debug, when non-nil, receives the fast-forward engine's boundary
	// and jump diagnostics for this replay. It replaces the old
	// init-time FF_DEBUG environment gate, which was frozen at process
	// start and therefore useless in a long-running server; callers
	// (the CLI reads FF_DEBUG itself) decide per replay. Diagnostics
	// are observational only and never affect predictions.
	Debug io.Writer
}

// Result is the prediction outcome.
type Result struct {
	// PredictedSeconds is t_predicted: virtual time from submission to
	// the last result's arrival at the submitter.
	PredictedSeconds float64
	// ComputeSeconds / phase breakdown mirror p2pdc.RunResult.
	ScatterSeconds float64
	ComputeSeconds float64
	GatherSeconds  float64
	// FF reports what the fast-forward engine did (all zero when
	// Spec.FastForward is FFOff).
	FF FFStats
	// Par reports how the parallel engine executed the replay (zero
	// for plain Session runs; Workers==1 marks a serial fallback).
	// Execution-strategy metadata only: every timing above is
	// bit-identical at any worker count.
	Par ParStats
	// KernelEvents counts the DES events the replay executed, summed
	// over the kernels of a partitioned run; DirectResumes counts how
	// many of them were direct resumes (see package des). Both are
	// deterministic work counters and never serialized.
	KernelEvents, DirectResumes int64
}

// RunSource replays a trace source once and returns the predicted
// time. It is a convenience wrapper over a single-use Session; callers
// replaying many trace sets or configurations against the same
// platform should create one Session and reuse it.
func RunSource(spec Spec, src trace.Source) (*Result, error) {
	if spec.Platform == nil {
		return nil, fmt.Errorf("replay: spec has no platform")
	}
	s, err := NewSession(spec.Platform)
	if err != nil {
		return nil, err
	}
	return s.RunSource(spec, src)
}

// Session is a reusable replay context bound to one platform. It
// keeps the expensive simulation state — the event kernel, the
// realized network (hosts, links, route caches), mailboxes and
// adapted P2PSAP channels — alive across RunSource calls instead of
// rebuilding them per replay, which dominates replay cost on large
// platforms (the Daisy topology realizes 1024 hosts).
//
// Between runs the virtual clock is rewound to zero, so a reused
// session produces results bit-identical to a fresh one regardless of
// how many replays preceded it. Hosts, submitter, scheme and
// deployment bytes may differ per run; only the platform is fixed.
//
// A Session is not safe for concurrent use; use one session per
// goroutine (they may share the platform, whose route computation is
// internally synchronized).
//
// ParallelEngine extends this reuse contract to partitioned replay:
// it holds one such environment per partition, rewinds all of them
// between runs, marks the whole partition set dirty after a failed
// run so the next use rebuilds it (a stalled partition leaves
// processes parked exactly as it does here —
// TestParallelFailedRunReapsGoroutines pins the teardown), and is
// likewise single-goroutine.
type Session struct {
	plat *platform.Platform
	env  *p2pdc.Environment
	// dirty marks the environment as unusable after a failed run (a
	// stalled application leaves processes parked forever); the next
	// RunSource rebuilds it.
	dirty bool
}

// NewSession creates a replay session for the platform, realizing the
// simulation environment once.
func NewSession(plat *platform.Platform) (*Session, error) {
	if plat == nil {
		return nil, fmt.Errorf("replay: nil platform")
	}
	env, err := p2pdc.NewEnvironment(plat)
	if err != nil {
		return nil, err
	}
	return &Session{plat: plat, env: env}, nil
}

// Platform returns the platform the session is bound to.
func (s *Session) Platform() *platform.Platform { return s.plat }

// Close tears down the session's simulation environment, unwinding any
// processes still parked in the kernel. A closed session is not dead:
// the next RunSource rebuilds the environment from the platform,
// exactly like the rebuild after a failed run. Close is for callers
// that pool sessions (a long-running server keeping per-platform
// pools hot) and want to release idle simulation state without
// discarding the session identity.
func (s *Session) Close() {
	s.env.Shutdown()
	s.dirty = true
}

// RunSource replays a trace source under spec, reusing the session's
// simulation environment; spec.Platform must be nil or the session's
// platform. Folded ops replay in O(compressed) memory, and a run of
// identical compute records becomes a single simulation event; both
// produce timings bit-identical to replaying the flat record
// sequence.
func (s *Session) RunSource(spec Spec, src trace.Source) (*Result, error) {
	if spec.Platform != nil && spec.Platform != s.plat {
		return nil, fmt.Errorf("replay: spec platform %q is not the session's platform %q",
			spec.Platform.Name, s.plat.Name)
	}
	if src == nil || src.Ranks() == 0 {
		return nil, fmt.Errorf("replay: no traces")
	}
	if len(spec.Hosts) != src.Ranks() {
		return nil, fmt.Errorf("replay: %d hosts for %d traces", len(spec.Hosts), src.Ranks())
	}
	if err := trace.ValidateSource(src); err != nil {
		return nil, err
	}
	if s.dirty {
		env, err := p2pdc.NewEnvironment(s.plat)
		if err != nil {
			return nil, err
		}
		s.env = env
		s.dirty = false
	} else if err := s.env.Reset(); err != nil {
		return nil, err
	}
	res, err := s.run(spec, src)
	if err != nil {
		// Tear down the wreck before marking it for rebuild: a failed
		// run (a stalled application, or a process that panicked)
		// leaves worker processes parked forever, and without an
		// explicit shutdown every failed replay would leak their
		// coroutines for the life of the program.
		s.env.Shutdown()
		s.dirty = true
		return nil, err
	}
	return res, nil
}

// run executes one replay on the (reset) environment.
func (s *Session) run(spec Spec, src trace.Source) (*Result, error) {
	var ctl *FFController[float64]
	if spec.FastForward != FFOff {
		ctl = NewFFController[float64](desKernel{s.env}, src.Ranks(), spec.FastForward == FFOn, spec.Debug)
	}
	res, err := s.env.Run(spec.runSpec(), opsApp(src, ctl))
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	out := &Result{
		PredictedSeconds: res.Total,
		ScatterSeconds:   res.ScatterTime,
		ComputeSeconds:   res.ComputeTime,
		GatherSeconds:    res.GatherTime,
		KernelEvents:     s.env.Sim.Events(),
		DirectResumes:    s.env.Sim.DirectResumes(),
	}
	if ctl != nil {
		out.FF = ctl.Stats()
	}
	return out, nil
}

// runSpec is the deployment half of the spec, as p2pdc runs it.
func (spec Spec) runSpec() p2pdc.RunSpec {
	return p2pdc.RunSpec{
		Submitter:    spec.Submitter,
		Hosts:        spec.Hosts,
		Scheme:       spec.Scheme,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
	}
}
