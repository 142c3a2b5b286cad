package p2pdc

import (
	"fmt"
	"strconv"

	"repro/internal/des"
)

// Partition is one shard of a rank-partitioned execution. Each
// partition owns a disjoint subset of the ranks (and partition 0 the
// submitter) on its own Environment — a full replica of the platform
// network — and is driven externally in conservative time windows by
// the coordinator (see internal/replay's parallel engine) instead of
// by Environment.Run. Cross-partition traffic moves as
// netsim.FlowStart boundary records: the owning partition's Post
// records every send, the coordinator broadcasts the records at
// window barriers, and every other partition injects them as ghost
// flows so max–min fair bandwidth sharing remains the same global
// computation in every kernel.
type Partition struct {
	env          *Environment
	spec         RunSpec
	ranks        []int
	hasSubmitter bool

	start      float64
	scatterEnd float64
	computeEnd float64
	// workerTimes and errors are full-world slices with only this
	// partition's rank entries populated; the coordinator merges them.
	workerTimes []float64
	errors      []error

	procs  int
	exited int
}

// LaunchPartition validates the spec against this environment's
// network and spawns this partition's processes: the submitter first
// (when withSubmitter is set), then the local ranks in ascending
// order — the same relative order Environment.Run uses. It does not
// drive the kernel; the caller advances it window by window with
// des.Simulation.RunWindow. The ranks slice must be ascending.
func (e *Environment) LaunchPartition(spec RunSpec, app App, ranks []int, withSubmitter bool) (*Partition, error) {
	if err := e.checkSpec(spec); err != nil {
		return nil, err
	}
	n := len(spec.Hosts)
	for i, r := range ranks {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("p2pdc: partition rank %d out of range [0,%d)", r, n)
		}
		if i > 0 && r <= ranks[i-1] {
			return nil, fmt.Errorf("p2pdc: partition ranks must be ascending")
		}
	}
	pt := &Partition{
		env:          e,
		spec:         spec,
		ranks:        ranks,
		hasSubmitter: withSubmitter,
		start:        e.Sim.AbsNow(),
		workerTimes:  make([]float64, n),
		errors:       make([]error, n),
	}

	if withSubmitter {
		pt.procs++
		e.Sim.Spawn("submitter", 0, func(p *des.Process) {
			defer func() { pt.exited++ }()
			if spec.ScatterBytes > 0 {
				for i, h := range spec.Hosts {
					tag := scatterTag(i)
					if err := e.Post.SendAsync(spec.Submitter, h, tag, spec.ScatterBytes, nil); err != nil {
						pt.errors[i] = err
					}
				}
			}
			if spec.GatherBytes > 0 {
				for i := 0; i < n; i++ {
					e.Post.Recv(p, spec.Submitter, "p2pdc:gather")
				}
			}
		})
	}

	for _, r := range ranks {
		r := r
		h := spec.Hosts[r]
		pt.procs++
		e.Sim.Spawn("rank"+strconv.Itoa(r), 0, func(p *des.Process) {
			defer func() { pt.exited++ }()
			if spec.ScatterBytes > 0 {
				e.Post.Recv(p, h, scatterTag(r))
			}
			if t := e.Sim.AbsNow() - pt.start; t > pt.scatterEnd {
				pt.scatterEnd = t
			}
			w := &Worker{
				env:   e,
				proc:  p,
				rank:  r,
				hosts: spec.Hosts,
				spec:  &pt.spec,
			}
			if err := app(w); err != nil {
				pt.errors[r] = err
			}
			pt.workerTimes[r] = e.Sim.AbsNow() - pt.start
			if t := e.Sim.AbsNow() - pt.start; t > pt.computeEnd {
				pt.computeEnd = t
			}
			if spec.GatherBytes > 0 {
				if err := e.Post.Send(p, h, spec.Submitter, "p2pdc:gather", spec.GatherBytes, r); err != nil && pt.errors[r] == nil {
					pt.errors[r] = err
				}
			}
		})
	}
	return pt, nil
}

// Env returns the partition's environment.
func (pt *Partition) Env() *Environment { return pt.env }

// Ranks returns the partition's rank set (ascending, not to be
// mutated).
func (pt *Partition) Ranks() []int { return pt.ranks }

// Done reports whether every process of this partition (submitter
// included) has run to completion.
func (pt *Partition) Done() bool { return pt.exited == pt.procs }

// Merge folds this partition's phase bookkeeping into a shared
// RunResult: per-rank entries are copied, phase boundaries combine by
// maximum — the same maxima Environment.Run tracks across all ranks,
// computed piecewise. Total/ComputeTime/GatherTime derivation is the
// caller's job once every partition has been merged and the global
// end time is known.
func (pt *Partition) Merge(res *RunResult) {
	if pt.scatterEnd > res.ScatterTime {
		res.ScatterTime = pt.scatterEnd
	}
	if pt.computeEnd > res.ComputeTime {
		res.ComputeTime = pt.computeEnd
	}
	for _, r := range pt.ranks {
		res.WorkerTimes[r] = pt.workerTimes[r]
		res.Errors[r] = pt.errors[r]
	}
	if pt.hasSubmitter {
		for i, err := range pt.errors {
			if err != nil && res.Errors[i] == nil {
				res.Errors[i] = err
			}
		}
	}
}

// Start returns the absolute virtual time the partition was launched
// at.
func (pt *Partition) Start() float64 { return pt.start }
