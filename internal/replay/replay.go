// Package replay is dPerf's trace-based simulation stage: the SimGrid
// MSG equivalent. Per-rank traces are replayed as processes over a
// simulated platform; compute records advance the local clock, send
// and receive records move bytes through the P2PSAP channel model,
// and conv records perform the rank-0 gather/broadcast convergence
// pattern. The result is the total predicted time t_predicted
// (paper §III-D.2: "with SimGrid we calculate the necessary time for
// communicating over the network; to this time, SimGrid adds the
// computation time already present in the trace file").
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
	// Hosts maps rank -> host name; must have len(Traces) entries.
	Hosts []string
	// Submitter is the scatter/gather endpoint (platform frontend).
	Submitter string
	// Scheme selects the P2PSAP channel scheme used for data records.
	Scheme p2psap.Scheme
	// ScatterBytes/GatherBytes model the P2PDC input distribution and
	// result collection phases around the traced execution.
	ScatterBytes float64
	GatherBytes  float64
	// FastForward selects the steady-state fast-forward mode (FFOff,
	// FFVerify, FFOn). The default FFOff replays every folded round
	// and keeps timings bit-identical to prior releases; FFOn skips
	// steady-state rounds of op-structured sources in closed form,
	// bit-identical to FFVerify (the rebased per-iteration reference).
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
	// Spec.FastForward is FFOff or the source is not op-structured).
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

// Run replays the traces once and returns the predicted time. It is
// a convenience wrapper over a single-use Session; callers replaying
// many trace sets or configurations against the same platform should
// create one Session and reuse it.
func Run(spec Spec, traces []*trace.Trace) (*Result, error) {
	if spec.Platform == nil {
		return nil, fmt.Errorf("replay: spec has no platform")
	}
	s, err := NewSession(spec.Platform)
	if err != nil {
		return nil, err
	}
	return s.Run(spec, traces)
}

// RunSource is Run over a trace.Source — folded traces replay in
// O(compressed) memory, flat slices via trace.SliceSource.
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
// adapted P2PSAP channels — alive across Run calls instead of
// rebuilding them per replay, which dominates replay cost on large
// platforms (the Daisy topology realizes 1024 hosts).
//
// Between runs the virtual clock is rewound to zero, so a reused
// session produces results bit-identical to a fresh one regardless of
// how many replays preceded it. Hosts, submitter, scheme and
// deployment bytes may differ per Run; only the platform is fixed.
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
	// Run rebuilds it.
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
// processes still parked in the kernel. A closed session is
// not dead: the next Run rebuilds the environment from the platform,
// exactly like the rebuild after a failed run. Close is for callers
// that pool sessions (a long-running server keeping per-platform
// pools hot) and want to release idle simulation state without
// discarding the session identity.
func (s *Session) Close() {
	s.env.Shutdown()
	s.dirty = true
}

// Run replays the traces under spec, reusing the session's simulation
// environment. spec.Platform must be nil or the session's platform.
func (s *Session) Run(spec Spec, traces []*trace.Trace) (*Result, error) {
	for i, t := range traces {
		if t == nil {
			return nil, fmt.Errorf("replay: trace slot %d is nil", i)
		}
		if err := trace.ValidateLabel(i, len(traces), t.Rank, t.Of); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return s.RunSource(spec, trace.SliceSource(traces))
}

// RunSource replays a trace source under spec, reusing the session's
// simulation environment. Folded sources replay in O(compressed)
// memory, and a run of identical compute records becomes a single
// simulation event; both produce timings bit-identical to replaying
// the flat record sequence.
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
	var app p2pdc.App
	if spec.FastForward != FFOff {
		if ops, ok := src.(trace.OpsSource); ok {
			// Op-structured replay: the executor sees Repeat
			// boundaries and runs the steady-state protocol. Sources
			// without op structure fall through to the cursor path
			// (nothing to fast-forward over).
			ctl = NewFFController[float64](desKernel{s.env}, src.Ranks(), spec.FastForward == FFOn, spec.Debug)
			app = func(w *p2pdc.Worker) error {
				ex := &opsExec{w: w, ctl: ctl}
				return ex.run(ops.RankOps(w.Rank()), true)
			}
		}
	}
	if app == nil {
		app = cursorApp(src)
	}
	runSpec := p2pdc.RunSpec{
		Submitter:    spec.Submitter,
		Hosts:        spec.Hosts,
		Scheme:       spec.Scheme,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
	}
	res, err := s.env.Run(runSpec, app)
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

// cursorApp is the record-run replay loop shared by the legacy path,
// non-op-structured sources and the parallel engine's partitions.
func cursorApp(src trace.Source) p2pdc.App {
	return func(w *p2pdc.Worker) error {
		cur := src.Cursor(w.Rank())
		for cur.Next() {
			r, n := cur.Run()
			switch r.Kind {
			case trace.KindCompute:
				if n == 1 {
					w.Sleep(r.NS / 1e9)
					continue
				}
				// Fast path: one kernel event for the whole run, at
				// the bit-identical deadline n individual sleeps
				// would reach.
				w.SleepUntil(ComputeDeadline(w.Now(), r.NS, n))
			case trace.KindSend:
				for i := 0; i < n; i++ {
					if err := w.Send(r.Peer, r.Bytes, nil); err != nil {
						return err
					}
				}
			case trace.KindRecv:
				for i := 0; i < n; i++ {
					if _, err := w.Recv(r.Peer); err != nil {
						return err
					}
				}
			case trace.KindConv:
				for i := 0; i < n; i++ {
					if _, err := w.ConvergeMax(0); err != nil {
						return err
					}
				}
			case trace.KindBarrier:
				for i := 0; i < n; i++ {
					if err := w.Barrier(); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}
