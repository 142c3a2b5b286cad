// Parallel replay: a conservative, null-message-free parallel DES
// mode. The rank set is split into P contiguous partitions, each
// running its own des.Simulation + event heap over a full replica of
// the platform network. Partitions advance in lockstep time windows
// whose width is the minimum route propagation latency L between any
// two used hosts: an event dispatched at time t can influence another
// host no earlier than t+L (every cross-host effect rides a flow,
// and a flow joins bandwidth sharing only after its route latency),
// so all partitions may run [T, T+L) independently — each window fans
// the kernels out across goroutines — and exchange boundary records
// at the window barrier.
//
// Bit-identity with the serial engine rests on replicating the flow
// population everywhere: a partition starts its own ranks' sends as
// real flows (delivery suppressed for remote destinations) and
// re-injects every other partition's netsim.FlowStart record as a
// ghost flow activating at the exact instant the originating kernel
// computed (fl(startedAt + latency), the same float expression the
// local send path evaluates). Max–min fair rate assignment is
// order-independent bitwise — each progressive-filling round fixes
// every bottleneck-crossing flow at one fair share and subtracts that
// same value per crossing, and links are scanned in sorted name order
// — so identical flow populations yield identical rates, completion
// times and delivery times in every kernel, at any worker count.
package replay

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/p2pdc"
	"repro/internal/platform"
	"repro/internal/trace"
)

// ParStats reports how the parallel engine executed one replay.
type ParStats struct {
	// Workers is the number of partitions the replay actually used
	// (1 when the engine fell back to the serial path).
	Workers int
	// Windows counts the conservative time windows driven.
	Windows int
	// BoundaryRecords counts the flow-start records exchanged at
	// window barriers.
	BoundaryRecords int
	// LookaheadSeconds is the window width: the minimum route latency
	// over all used host pairs.
	LookaheadSeconds float64
}

// ParallelEngine is a reusable parallel replay context bound to one
// platform, the multi-kernel counterpart of Session. Like a Session
// it keeps its expensive simulation state — one full environment per
// partition — alive across runs, rewinding clocks in between, and is
// not safe for concurrent use.
//
// Fallbacks: the engine transparently runs the serial Session path
// when partitioning cannot help or cannot be conservative — fewer
// than 2 effective workers, any fast-forward mode (the steady-state
// skip already beats parallelism, and it rebases the clock mid-run),
// duplicate hosts in the deployment (rank partitioning is host
// ownership), or a platform with a zero-latency route between used
// hosts (no lookahead). Results are bit-identical either way.
type ParallelEngine struct {
	plat    *platform.Platform
	workers int
	serial  *Session
	// envs[i] is partition i's environment; grown on demand, rebuilt
	// after a failed run (see dirty).
	envs  []*p2pdc.Environment
	dirty bool
}

// NewParallelEngine creates a parallel replay engine with the given
// worker count (clamped below at 1). Partition environments are
// realized lazily on the first parallel run.
func NewParallelEngine(plat *platform.Platform, workers int) (*ParallelEngine, error) {
	if plat == nil {
		return nil, fmt.Errorf("replay: nil platform")
	}
	if workers < 1 {
		workers = 1
	}
	serial, err := NewSession(plat)
	if err != nil {
		return nil, err
	}
	return &ParallelEngine{plat: plat, workers: workers, serial: serial}, nil
}

// Platform returns the platform the engine is bound to.
func (e *ParallelEngine) Platform() *platform.Platform { return e.plat }

// Workers returns the configured worker count.
func (e *ParallelEngine) Workers() int { return e.workers }

// RunSource replays a trace source under spec across the engine's
// partitions, bit-identical to Session.RunSource at any worker count.
func (e *ParallelEngine) RunSource(spec Spec, src trace.Source) (*Result, error) {
	if spec.Platform != nil && spec.Platform != e.plat {
		return nil, fmt.Errorf("replay: spec platform %q is not the engine's platform %q",
			spec.Platform.Name, e.plat.Name)
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
	p := e.workers
	if n := src.Ranks(); p > n {
		p = n
	}
	if p < 2 || !partitionable(spec) {
		res, err := e.serial.RunSource(spec, src)
		if res != nil {
			res.Par.Workers = 1
		}
		return res, err
	}
	used := append([]string{spec.Submitter}, spec.Hosts...)
	if err := e.ensureEnvs(p); err != nil {
		return nil, err
	}
	lookahead, err := minRouteLatency(e.envs[0].Net, used)
	if err != nil {
		return nil, err
	}
	if lookahead <= 0 {
		res, err := e.serial.RunSource(spec, src)
		if res != nil {
			res.Par.Workers = 1
		}
		return res, err
	}
	res, err := e.runPartitioned(spec, src, p, lookahead)
	if err != nil {
		// Same contract as Session.RunSource's error path: tear the
		// wrecked kernels down (a stalled or panicked partition leaves
		// processes parked forever) and rebuild on the next run.
		for _, env := range e.envs {
			env.Post.SetPartition(nil, nil)
			env.Shutdown()
		}
		e.dirty = true
		return nil, err
	}
	return res, nil
}

// partitionable reports whether the spec is eligible for the
// partitioned path.
func partitionable(spec Spec) bool {
	if spec.FastForward != FFOff {
		// Steady-state fast-forward already wins on these replays and
		// rebases the kernel clock mid-run; serial is both faster and
		// simpler.
		return false
	}
	// Rank partitioning is host ownership: every used host must have
	// exactly one owner.
	seen := make(map[string]bool, len(spec.Hosts)+1)
	seen[spec.Submitter] = true
	for _, h := range spec.Hosts {
		if seen[h] {
			return false
		}
		seen[h] = true
	}
	return true
}

// ensureEnvs grows (and, after a failed run, rebuilds) the partition
// environments so at least p are usable.
func (e *ParallelEngine) ensureEnvs(p int) error {
	if e.dirty {
		e.envs = nil
		e.dirty = false
	}
	for len(e.envs) < p {
		env, err := p2pdc.NewEnvironment(e.plat)
		if err != nil {
			return err
		}
		e.envs = append(e.envs, env)
	}
	return nil
}

// minRouteLatency returns the minimum route propagation latency over
// all ordered pairs of distinct used hosts — the conservative window
// lookahead: no event can influence another host sooner.
func minRouteLatency(net *netsim.Network, hosts []string) (float64, error) {
	min := math.Inf(1)
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			l, err := net.RouteLatency(a, b)
			if err != nil {
				return 0, err
			}
			if l < min {
				min = l
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0, nil
	}
	return min, nil
}

// runWindow advances partition i's kernel through one window. A panic
// there — a process body's, which the kernel re-raises on the goroutine
// driving it, or the kernel's own — becomes the window's error, so a
// failure on a partition goroutine fails the run instead of the
// program.
func runWindow(i int, env *p2pdc.Environment, limit float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay: parallel execution failed in partition %d: %v", i, r)
		}
	}()
	env.Sim.RunWindow(limit)
	return nil
}

// boundaryRecord is one partition's FlowStart tagged with its origin.
type boundaryRecord struct {
	part int
	rec  netsim.FlowStart
}

// runPartitioned executes one replay across p partitions.
func (e *ParallelEngine) runPartitioned(spec Spec, src trace.Source, p int, lookahead float64) (*Result, error) {
	n := src.Ranks()
	envs := e.envs[:p]
	for _, env := range envs {
		if err := env.Reset(); err != nil {
			return nil, err
		}
	}

	// Contiguous rank blocks; partition 0 additionally owns the
	// submitter host.
	owners := make([]map[string]bool, p)
	ranksOf := make([][]int, p)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		owners[i] = make(map[string]bool, hi-lo+1)
		for r := lo; r < hi; r++ {
			ranksOf[i] = append(ranksOf[i], r)
			owners[i][spec.Hosts[r]] = true
		}
	}
	owners[0][spec.Submitter] = true

	// Per-partition boundary buffers, filled by the Post hooks while
	// a window runs; drained (merged, injected) at every barrier.
	pending := make([][]netsim.FlowStart, p)
	for i, env := range envs {
		i := i
		own := owners[i]
		env.Post.SetPartition(
			func(host string) bool { return own[host] },
			func(rec netsim.FlowStart) { pending[i] = append(pending[i], rec) },
		)
	}
	defer func() {
		for _, env := range envs {
			env.Post.SetPartition(nil, nil)
		}
	}()

	app := opsApp(src, nil)
	runSpec := spec.runSpec()
	parts := make([]*p2pdc.Partition, p)
	for i, env := range envs {
		pt, err := env.LaunchPartition(runSpec, app, ranksOf[i], i == 0)
		if err != nil {
			return nil, err
		}
		parts[i] = pt
	}

	stats := ParStats{Workers: p, LookaheadSeconds: lookahead}
	var merged []boundaryRecord
	windowErrs := make([]error, p)
	for {
		// Barrier: merge the previous window's records in a single
		// deterministic order — start time, then origin partition,
		// then the origin's send sequence — and replay each into every
		// other partition as a ghost flow.
		merged = merged[:0]
		for i := range pending {
			for _, rec := range pending[i] {
				merged = append(merged, boundaryRecord{part: i, rec: rec})
			}
			pending[i] = pending[i][:0]
		}
		sort.Slice(merged, func(a, b int) bool {
			ra, rb := &merged[a], &merged[b]
			if ra.rec.StartedAt != rb.rec.StartedAt {
				return ra.rec.StartedAt < rb.rec.StartedAt
			}
			if ra.part != rb.part {
				return ra.part < rb.part
			}
			return ra.rec.Seq < rb.rec.Seq
		})
		stats.BoundaryRecords += len(merged)
		for _, br := range merged {
			for i, env := range envs {
				if i == br.part {
					continue // the origin already runs the real flow
				}
				if err := env.Post.InjectRemote(br.rec); err != nil {
					return nil, fmt.Errorf("replay: boundary injection failed: %w", err)
				}
			}
		}

		// Next window: [min pending event, min + lookahead). Peeking
		// after injection lets quiet stretches (long heterogeneous
		// computes) pass in one hop instead of empty L-sized steps.
		next := math.Inf(1)
		for _, env := range envs {
			if t, ok := env.Sim.PeekTime(); ok && t < next {
				next = t
			}
		}
		if math.IsInf(next, 1) {
			break // every kernel drained, no records in flight
		}
		limit := next + lookahead
		var wg sync.WaitGroup
		for i, env := range envs[1:] {
			wg.Add(1)
			i, env := i+1, env
			// Barrier-parallel window execution: between barriers the
			// kernels share nothing (each partition's boundary buffer is
			// filled only by its own kernel), and the wait below plus the
			// deterministic merge order make the outcome independent of
			// OS scheduling.
			//dperfvet:allow simpurity kernels are independent between barriers; the barrier wait and deterministic merge order make results schedule-independent
			go func() {
				defer wg.Done()
				windowErrs[i] = runWindow(i, env, limit)
			}()
		}
		windowErrs[0] = runWindow(0, envs[0], limit)
		wg.Wait()
		stats.Windows++
		for _, err := range windowErrs {
			if err != nil {
				return nil, err
			}
		}
	}

	res := &p2pdc.RunResult{
		WorkerTimes: make([]float64, n),
		Errors:      make([]error, n),
	}
	allDone := true
	for _, pt := range parts {
		pt.Merge(res)
		if !pt.Done() {
			allDone = false
		}
	}
	if !allDone {
		return nil, fmt.Errorf("replay: parallel execution stalled (first app error: %v)", res.FirstError())
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}

	// Phase derivation mirrors Environment.Run: Merge left the global
	// scatter/compute end maxima in the two phase fields.
	scatterEnd, computeEnd := res.ScatterTime, res.ComputeTime
	total := 0.0
	var events, direct int64
	for i, pt := range parts {
		if t := envs[i].Sim.AbsNow() - pt.Start(); t > total {
			total = t
		}
		events += envs[i].Sim.Events()
		direct += envs[i].Sim.DirectResumes()
	}
	out := &Result{
		PredictedSeconds: total,
		ScatterSeconds:   scatterEnd,
		ComputeSeconds:   computeEnd - scatterEnd,
		GatherSeconds:    total - computeEnd,
		Par:              stats,
		KernelEvents:     events,
		DirectResumes:    direct,
	}
	if out.GatherSeconds < 0 {
		out.GatherSeconds = 0
	}
	return out, nil
}
