// Package p2pdc is the P2PDC computing environment: it executes a
// task-parallel application on a set of simulated peers connected by a
// platform's network, with direct peer communication through P2PSAP
// channels. A run has three phases, as in the paper: the submitter
// scatters subtask data to the peers, peers iterate (computing and
// exchanging directly), and results are gathered back at the
// submitter.
//
// The environment measures virtual wall-clock time exactly — this is
// the paper's "reference time t_normal_execution ... measured using
// hardware counters", with the deterministic simulation clock playing
// the counters' role.
package p2pdc

import (
	"fmt"
	"strconv"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/trace"
)

// Environment binds a platform to an event kernel, network, message
// layer and protocol instance.
type Environment struct {
	Sim   *des.Simulation
	Net   *netsim.Network
	Post  *netsim.Post
	Proto *p2psap.Protocol
	Plat  *platform.Platform
}

// NewEnvironment instantiates the platform and the full communication
// stack on a fresh kernel.
func NewEnvironment(plat *platform.Platform) (*Environment, error) {
	sim := des.New()
	net, err := plat.NewNetwork(sim)
	if err != nil {
		return nil, err
	}
	post := netsim.NewPost(net)
	return &Environment{
		Sim:   sim,
		Net:   net,
		Post:  post,
		Proto: p2psap.New(post),
		Plat:  plat,
	}, nil
}

// Reset rewinds the environment's virtual clock to zero so the next
// Run produces timings bit-identical to a fresh environment's, while
// keeping the expensive structures — realized hosts and links, route
// caches, mailboxes, adapted P2PSAP channels — alive. It fails if the
// previous run left the kernel busy (e.g. a stalled application).
func (e *Environment) Reset() error {
	if err := e.Sim.Reset(); err != nil {
		return fmt.Errorf("p2pdc: %w", err)
	}
	if err := e.Net.Reset(); err != nil {
		return fmt.Errorf("p2pdc: %w", err)
	}
	return nil
}

// Shutdown unwinds every process still parked in the kernel and drops
// pending events. It is the cleanup path for an environment abandoned
// after a failed run (a stalled application leaves workers parked
// forever, and a panicking one leaves its peers parked); without it,
// each failed replay would hold one coroutine per parked worker, each
// with its own goroutine stack, for the lifetime of the program.
func (e *Environment) Shutdown() { e.Sim.Shutdown() }

// App is the per-peer subtask body. It runs as one simulated process
// per rank and may compute, exchange with other ranks, and reduce.
type App func(w *Worker) error

// RunSpec configures one execution.
type RunSpec struct {
	// Submitter is the host that scatters inputs and gathers results.
	Submitter string
	// Hosts are the working peers, one rank each, in rank order.
	Hosts []string
	// Scheme selects synchronous or asynchronous P2PSAP channels.
	Scheme p2psap.Scheme
	// ScatterBytes / GatherBytes are per-peer subtask input and result
	// sizes moved in the scatter and gather phases (0 skips a phase).
	ScatterBytes float64
	GatherBytes  float64
}

// RunResult reports the timing decomposition of an execution.
type RunResult struct {
	Total       float64
	ScatterTime float64
	ComputeTime float64 // scatter end -> last worker finished
	GatherTime  float64
	// WorkerTimes holds each rank's busy time (end of its app body).
	WorkerTimes []float64
	// Errors collects per-rank application errors (nil entries for ok).
	Errors []error
}

// checkSpec validates a run spec against the environment's network
// before anything is spawned: the hosts and submitter must exist, and
// each deployment size must be a valid trace quantity (zero skips its
// phase; a negative, NaN or infinite size would otherwise be skipped
// silently or never finish transferring).
func (e *Environment) checkSpec(spec RunSpec) error {
	if len(spec.Hosts) == 0 {
		return fmt.Errorf("p2pdc: no hosts")
	}
	if e.Net.Host(spec.Submitter) == nil {
		return fmt.Errorf("p2pdc: unknown submitter host %q", spec.Submitter)
	}
	for _, h := range spec.Hosts {
		if e.Net.Host(h) == nil {
			return fmt.Errorf("p2pdc: unknown host %q", h)
		}
	}
	if !trace.ValidQuantity(spec.ScatterBytes) {
		return fmt.Errorf("p2pdc: invalid ScatterBytes %v (want finite and non-negative)", spec.ScatterBytes)
	}
	if !trace.ValidQuantity(spec.GatherBytes) {
		return fmt.Errorf("p2pdc: invalid GatherBytes %v (want finite and non-negative)", spec.GatherBytes)
	}
	return nil
}

// Run executes the application and returns the measured phase times.
func (e *Environment) Run(spec RunSpec, app App) (*RunResult, error) {
	if err := e.checkSpec(spec); err != nil {
		return nil, err
	}
	res := &RunResult{
		WorkerTimes: make([]float64, len(spec.Hosts)),
		Errors:      make([]error, len(spec.Hosts)),
	}
	// Phase times are measured on the absolute clock: the replay
	// fast-forward engine rebases the kernel's epoch mid-run, so the
	// in-epoch Now() is not a duration origin.
	start := e.Sim.AbsNow()
	n := len(spec.Hosts)

	scatterDone := make([]bool, n)
	var scatterEnd float64
	computeDone := 0
	var computeEnd float64

	// Submitter process: scatter inputs, then wait for results.
	gathered := 0
	gatherDoneCond := e.Sim.NewCond()
	e.Sim.Spawn("submitter", 0, func(p *des.Process) {
		if spec.ScatterBytes > 0 {
			for i, h := range spec.Hosts {
				tag := scatterTag(i)
				if err := e.Post.SendAsync(spec.Submitter, h, tag, spec.ScatterBytes, nil); err != nil {
					res.Errors[i] = err
				}
			}
		}
		if spec.GatherBytes > 0 {
			for range spec.Hosts {
				e.Post.Recv(p, spec.Submitter, "p2pdc:gather")
				gathered++
			}
		}
		gatherDoneCond.Signal()
	})

	// Worker processes.
	for i, h := range spec.Hosts {
		i, h := i, h
		e.Sim.Spawn("rank"+strconv.Itoa(i), 0, func(p *des.Process) {
			if spec.ScatterBytes > 0 {
				e.Post.Recv(p, h, scatterTag(i))
			}
			scatterDone[i] = true
			if t := e.Sim.AbsNow() - start; t > scatterEnd {
				scatterEnd = t
			}
			w := &Worker{
				env:   e,
				proc:  p,
				rank:  i,
				hosts: spec.Hosts,
				spec:  &spec,
			}
			if err := app(w); err != nil {
				res.Errors[i] = err
			}
			res.WorkerTimes[i] = e.Sim.AbsNow() - start
			computeDone++
			if t := e.Sim.AbsNow() - start; t > computeEnd {
				computeEnd = t
			}
			if spec.GatherBytes > 0 {
				if err := e.Post.Send(p, h, spec.Submitter, "p2pdc:gather", spec.GatherBytes, i); err != nil && res.Errors[i] == nil {
					res.Errors[i] = err
				}
			}
		})
	}

	// Drive the simulation until the submitter has everything. A
	// stalled application (e.g. a rank that errored out of a
	// collective, leaving the others waiting) surfaces as a kernel
	// deadlock panic, and a panic inside a process body is re-raised
	// here by the kernel; convert either into an error so callers see
	// the per-rank causes.
	e.Sim.Spawn("watchdog", 0, func(p *des.Process) {
		gatherDoneCond.Wait(p)
	})
	stall := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("p2pdc: execution stalled: %v (first app error: %v)", r, res.FirstError())
			}
		}()
		e.Sim.Run()
		return nil
	}()

	res.Total = e.Sim.AbsNow() - start
	res.ScatterTime = scatterEnd
	res.ComputeTime = computeEnd - scatterEnd
	res.GatherTime = res.Total - computeEnd
	if res.GatherTime < 0 {
		res.GatherTime = 0
	}
	if stall != nil {
		return res, stall
	}
	if computeDone != n {
		return res, fmt.Errorf("p2pdc: only %d of %d workers finished", computeDone, n)
	}
	return res, nil
}

// scatterTag is the mailbox tag of rank i's scatter input. Per-run
// names are built with strconv, not fmt: fmt's buffer pool makes the
// allocation count of a run vary under the race detector.
func scatterTag(i int) string { return "p2pdc:scatter:" + strconv.Itoa(i) }

// FirstError returns the first non-nil application error, or nil.
func (r *RunResult) FirstError() error {
	for _, err := range r.Errors {
		if err != nil {
			return err
		}
	}
	return nil
}

// Worker is the per-rank execution context handed to the App.
type Worker struct {
	env   *Environment
	proc  *des.Process
	rank  int
	hosts []string
	spec  *RunSpec
	host  *netsim.Host // this rank's host, resolved on first Compute
	// dataCh/ctlCh cache the per-peer channel handles so the
	// per-message path neither formats a tag nor hits the protocol's
	// channel map (both allocate).
	dataCh, ctlCh []*p2psap.Channel
}

// Rank returns this worker's 0-based rank.
func (w *Worker) Rank() int { return w.rank }

// Size returns the number of ranks.
func (w *Worker) Size() int { return len(w.hosts) }

// Host returns the host this rank runs on.
func (w *Worker) Host() string { return w.hosts[w.rank] }

// Now returns virtual time.
func (w *Worker) Now() float64 { return w.env.Sim.Now() }

// Compute blocks for the time the host needs to execute cycles of
// work (cycles / host speed).
func (w *Worker) Compute(cycles float64) {
	if cycles <= 0 {
		return
	}
	if w.host == nil {
		w.host = w.env.Net.Host(w.Host())
	}
	w.proc.Sleep(cycles / w.host.Speed)
}

// Sleep blocks for d virtual seconds (protocol modelling).
func (w *Worker) Sleep(d float64) { w.proc.Sleep(d) }

// SleepUntil blocks until the absolute virtual time t (>= Now()) as a
// single kernel event — the fast path for replaying long homogeneous
// compute runs.
func (w *Worker) SleepUntil(t float64) { w.proc.SleepUntil(t) }

// channel returns the P2PSAP channel to a peer for a traffic class.
// Data and control (convergence) traffic use distinct sessions so a
// small control message can never overtake a large data message in
// the same mailbox and be mistaken for it. Handles are cached per
// worker: an iterative application crosses the same channels every
// round.
func (w *Worker) channel(peer int, class string) (*p2psap.Channel, error) {
	if peer < 0 || peer >= len(w.hosts) {
		return nil, fmt.Errorf("p2pdc: rank %d out of range [0,%d)", peer, len(w.hosts))
	}
	cache := &w.dataCh
	if class == "ctl" {
		cache = &w.ctlCh
	}
	if *cache == nil {
		*cache = make([]*p2psap.Channel, len(w.hosts))
	}
	if ch := (*cache)[peer]; ch != nil {
		return ch, nil
	}
	a, b := w.rank, peer
	if a > b {
		a, b = b, a
	}
	tag := "r" + strconv.Itoa(a) + "-r" + strconv.Itoa(b) + ":" + class
	ch, err := w.env.Proto.Channel(w.hosts[a], w.hosts[b], tag, w.spec.Scheme)
	if err != nil {
		return nil, err
	}
	(*cache)[peer] = ch
	return ch, nil
}

// Send transmits bytes to another rank through the pair's P2PSAP
// data channel (eager: the transfer proceeds in the background).
func (w *Worker) Send(to int, bytes float64, payload interface{}) error {
	ch, err := w.channel(to, "data")
	if err != nil {
		return err
	}
	return ch.Send(w.proc, w.Host(), bytes, payload)
}

// Recv blocks until a data message from the given rank arrives.
func (w *Worker) Recv(from int) (interface{}, error) {
	ch, err := w.channel(from, "data")
	if err != nil {
		return nil, err
	}
	return ch.Recv(w.proc, w.Host())
}

// TryRecvLatest returns the freshest pending data message from the
// given rank without blocking (asynchronous iterations).
func (w *Worker) TryRecvLatest(from int) (interface{}, bool, error) {
	ch, err := w.channel(from, "data")
	if err != nil {
		return nil, false, err
	}
	return ch.TryRecvLatest(w.proc, w.Host())
}

// sendCtl / recvCtl move control values on the dedicated channel.
func (w *Worker) sendCtl(to int, bytes float64, payload interface{}) error {
	ch, err := w.channel(to, "ctl")
	if err != nil {
		return err
	}
	return ch.Send(w.proc, w.Host(), bytes, payload)
}

func (w *Worker) recvCtl(from int) (interface{}, error) {
	ch, err := w.channel(from, "ctl")
	if err != nil {
		return nil, err
	}
	return ch.Recv(w.proc, w.Host())
}

// ConvergeBytes is the payload of one ConvergeMax control message:
// a single float64 residual.
const ConvergeBytes = 8

// ConvergeMax performs the convergence test of distributed iterative
// methods: every rank contributes a local residual, rank 0 gathers
// them (its P2PSAP receive processing serializes, making the test cost
// grow with the peer count), computes the maximum and broadcasts it.
// All ranks return the global maximum. It doubles as a barrier.
func (w *Worker) ConvergeMax(local float64) (float64, error) {
	if w.Size() == 1 {
		return local, nil
	}
	if w.rank != 0 {
		if err := w.sendCtl(0, ConvergeBytes, local); err != nil {
			return 0, err
		}
		v, err := w.recvCtl(0)
		if err != nil {
			return 0, err
		}
		return v.(float64), nil
	}
	max := local
	for i := 1; i < w.Size(); i++ {
		v, err := w.recvCtl(i)
		if err != nil {
			return 0, err
		}
		if f := v.(float64); f > max {
			max = f
		}
	}
	for i := 1; i < w.Size(); i++ {
		if err := w.sendCtl(i, ConvergeBytes, max); err != nil {
			return 0, err
		}
	}
	return max, nil
}

// Barrier synchronizes all ranks through the rank-0 gather/broadcast.
func (w *Worker) Barrier() error {
	_, err := w.ConvergeMax(0)
	return err
}

// HostsOf returns the first n host names of a platform, sorted, which
// is how experiments pick peers ("we use, in turn, 2^1..2^5 nodes").
func HostsOf(plat *platform.Platform, n int) ([]string, error) {
	hosts, have := plat.FirstHosts(n)
	if have < n {
		return nil, fmt.Errorf("p2pdc: platform has %d hosts, need %d", have, n)
	}
	return hosts, nil
}
