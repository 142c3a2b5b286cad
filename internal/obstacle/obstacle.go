// Package obstacle implements the paper's evaluation workload: the
// obstacle problem (Spitéri & Chau 2002; Nguyen et al. IPDPSW'10), a
// free-boundary PDE solved by a projected Jacobi/Richardson iteration
// on a square grid, parallelized over P2PDC with strip domain
// decomposition and direct boundary exchange between neighbouring
// peers.
//
// The solver runs in two modes:
//
//   - Numerics mode (tests, small grids): every cell is really
//     computed, boundary rows really travel as payloads, and the
//     distributed fixed point is checked against the serial solver.
//   - Modeled mode (experiments, paper-scale grids): the per-cell cost
//     from internal/costmodel is charged to the virtual clock instead
//     of crunching 1.4M cells × thousands of sweeps in real time; the
//     communication pattern is identical.
package obstacle

import (
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/p2pdc"
)

// Problem defines an obstacle-problem instance on an N×N interior
// grid of the unit square: find u >= psi with the projected Laplace
// update u = max(psi, 0.25*(neighbours) + q).
type Problem struct {
	N int
	// Force is the constant source term contribution per cell (q).
	Force float64
	// ObstacleHeight parametrizes the obstacle psi: a raised plateau
	// in the grid centre.
	ObstacleHeight float64
}

// DefaultProblem returns the instance used by the test suite's
// numerics checks.
func DefaultProblem(n int) Problem {
	return Problem{N: n, Force: 1e-4, ObstacleHeight: 0.05}
}

// Psi returns the obstacle height at interior cell (i, j).
func (pb Problem) Psi(i, j int) float64 {
	n := pb.N
	// A centred square plateau covering the middle third.
	if i > n/3 && i < 2*n/3 && j > n/3 && j < 2*n/3 {
		return pb.ObstacleHeight
	}
	return 0
}

// Config controls a solver run.
type Config struct {
	Problem Problem
	// Rounds is the number of communication rounds (ghost exchanges).
	Rounds int
	// Sweeps is the number of relaxation sweeps between exchanges
	// (block-iterative methods communicate every few sweeps).
	Sweeps int
	// Tol stops early when the global residual falls below it
	// (numerics mode only; 0 disables).
	Tol float64
	// Level is the GCC optimization level being modelled.
	Level costmodel.Level
	// Numerics selects real computation (true) or cost-model time
	// accounting (false).
	Numerics bool
	// ConvEvery runs the global convergence test every k rounds
	// (default 1: every round, as the P2PDC obstacle code does).
	ConvEvery int
	// Async selects the asynchronous iterative scheme (El-Baz et al.):
	// peers never block waiting for neighbour boundaries — they use
	// the freshest values that have arrived (possibly stale) and keep
	// relaxing. P2PSAP's asynchronous channel mode provides the
	// latest-value reception this needs. Convergence checks still
	// synchronize every ConvEvery rounds.
	Async bool
}

// DefaultConfig is the paper-scale calibration: a 1200² grid, 120
// communication rounds of 15 sweeps each, sized so the O0 reference
// on two peers lands near the paper's ≈ 40 s, as internal/experiments'
// TestFig9Calibration checks.
func DefaultConfig(level costmodel.Level) Config {
	return Config{
		Problem:   Problem{N: 1200, Force: 1e-4, ObstacleHeight: 0.05},
		Rounds:    120,
		Sweeps:    15,
		Level:     level,
		Numerics:  false,
		ConvEvery: 1,
	}
}

// BytesPerBoundary returns the wire size of one ghost-row exchange.
func (c Config) BytesPerBoundary() float64 { return 8 * float64(c.Problem.N) }

// ScatterBytesPerPeer returns the subtask input size for p peers: the
// peer's strip of the initial grid plus the obstacle strip.
func (c Config) ScatterBytesPerPeer(p int) float64 {
	return 2 * 8 * float64(c.Problem.N) * float64(c.Problem.N) / float64(p)
}

// GatherBytesPerPeer returns the per-peer result size (its strip of
// the solution).
func (c Config) GatherBytesPerPeer(p int) float64 {
	return 8 * float64(c.Problem.N) * float64(c.Problem.N) / float64(p)
}

// SerialSolve runs the projected Jacobi iteration on one node and
// returns the final grid and the last residual. It is the numerics
// ground truth.
func SerialSolve(cfg Config) ([][]float64, float64) {
	n := cfg.Problem.N
	u := newGrid(n)
	next := newGrid(n)
	res := math.Inf(1)
	for r := 0; r < cfg.Rounds; r++ {
		for s := 0; s < cfg.Sweeps; s++ {
			res = sweep(cfg.Problem, u, next, 0, n)
			u, next = next, u
		}
		if cfg.Tol > 0 && res < cfg.Tol {
			break
		}
	}
	return u, res
}

// newGrid allocates an (n+2)×(n+2) grid (one ghost/boundary layer).
func newGrid(n int) [][]float64 {
	g := make([][]float64, n+2)
	cells := make([]float64, (n+2)*(n+2))
	for i := range g {
		g[i], cells = cells[:n+2], cells[n+2:]
	}
	return g
}

// sweep applies one projected-Jacobi sweep to interior rows
// [rowLo, rowHi) (1-based rows rowLo+1..rowHi) reading u, writing
// next, and returns the max residual of the region.
func sweep(pb Problem, u, next [][]float64, rowLo, rowHi int) float64 {
	res := 0.0
	for i := rowLo + 1; i <= rowHi; i++ {
		ui, uim, uip := u[i], u[i-1], u[i+1]
		ni := next[i]
		for j := 1; j <= pb.N; j++ {
			v := 0.25*(uim[j]+uip[j]+ui[j-1]+ui[j+1]) + pb.Force
			if psi := pb.Psi(i-1, j-1); v < psi {
				v = psi
			}
			if d := math.Abs(v - ui[j]); d > res {
				res = d
			}
			ni[j] = v
		}
	}
	return res
}

// StripOf returns rank r's interior row range [lo, hi) (0-based
// interior rows) for an N-row grid split over p ranks.
func StripOf(n, p, r int) (lo, hi int) {
	base := n / p
	extra := n % p
	lo = r*base + min(r, extra)
	hi = lo + base
	if r < extra {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// App builds the P2PDC application for the given configuration. Rank
// topology is a line: rank r exchanges its first and last interior
// rows with ranks r-1 and r+1 every round, then every ConvEvery
// rounds all ranks run the global convergence test through rank 0.
func App(cfg Config, report func(rank int, round int, residual float64)) p2pdc.App {
	if cfg.ConvEvery <= 0 {
		cfg.ConvEvery = 1
	}
	return func(w *p2pdc.Worker) error {
		n := cfg.Problem.N
		p := w.Size()
		r := w.Rank()
		lo, hi := StripOf(n, p, r)
		rows := hi - lo
		if rows <= 0 {
			return fmt.Errorf("obstacle: rank %d of %d has no rows (n=%d)", r, p, n)
		}

		var u, next [][]float64
		if cfg.Numerics {
			// Each rank holds the full (n+2)² grid but only updates its
			// strip; ghost rows come from neighbours. (Memory-lavish but
			// simple, and tests use small n.)
			u = newGrid(n)
			next = newGrid(n)
		}

		bnd := cfg.BytesPerBoundary()
		cellCycles := costmodel.ObstacleCellCycles(cfg.Level)
		sweepCycles := float64(cfg.Sweeps) * float64(rows) * float64(n) * cellCycles

		for round := 0; round < cfg.Rounds; round++ {
			// Local relaxation sweeps.
			var localRes float64
			if cfg.Numerics {
				for s := 0; s < cfg.Sweeps; s++ {
					if s > 0 {
						// The grid we are about to read was the write
						// target of the previous sweep; refresh its ghost
						// rows from the other grid (block iteration: ghosts
						// stay fixed within a round).
						copy(u[lo], next[lo])
						copy(u[hi+1], next[hi+1])
					}
					localRes = sweep(cfg.Problem, u, next, lo, hi)
					u, next = next, u
				}
				w.Compute(sweepCycles)
			} else {
				w.Compute(sweepCycles)
				// Synthetic residual decays geometrically so ConvEvery
				// logic is exercised in modeled runs too.
				localRes = math.Pow(0.9, float64(round))
			}

			// Boundary exchange with line neighbours: send our edge
			// rows, then obtain theirs for the ghost rows — blocking
			// under the synchronous scheme, freshest-available under the
			// asynchronous one.
			if r > 0 {
				if err := w.Send(r-1, bnd, edgeRow(cfg, u, lo+1)); err != nil {
					return err
				}
			}
			if r < p-1 {
				if err := w.Send(r+1, bnd, edgeRow(cfg, u, hi)); err != nil {
					return err
				}
			}
			if cfg.Async {
				if r > 0 {
					v, ok, err := w.TryRecvLatest(r - 1)
					if err != nil {
						return err
					}
					if ok {
						setGhostRow(cfg, u, lo, v)
					}
				}
				if r < p-1 {
					v, ok, err := w.TryRecvLatest(r + 1)
					if err != nil {
						return err
					}
					if ok {
						setGhostRow(cfg, u, hi+1, v)
					}
				}
			} else {
				if r > 0 {
					v, err := w.Recv(r - 1)
					if err != nil {
						return err
					}
					setGhostRow(cfg, u, lo, v)
				}
				if r < p-1 {
					v, err := w.Recv(r + 1)
					if err != nil {
						return err
					}
					setGhostRow(cfg, u, hi+1, v)
				}
			}

			// Global convergence test (gathers at rank 0, serialized by
			// P2PSAP receive processing there).
			if (round+1)%cfg.ConvEvery == 0 {
				global, err := w.ConvergeMax(localRes)
				if err != nil {
					return err
				}
				if report != nil {
					report(r, round, global)
				}
				if cfg.Tol > 0 && global < cfg.Tol {
					return nil
				}
			}
		}
		return nil
	}
}

// edgeRow copies interior row idx (1-based in the padded grid) as the
// message payload in numerics mode; nil otherwise.
func edgeRow(cfg Config, u [][]float64, idx int) interface{} {
	if !cfg.Numerics {
		return nil
	}
	row := make([]float64, len(u[idx]))
	copy(row, u[idx])
	return row
}

// setGhostRow installs a received boundary row.
func setGhostRow(cfg Config, u [][]float64, idx int, payload interface{}) {
	if !cfg.Numerics || payload == nil {
		return
	}
	copy(u[idx], payload.([]float64))
}

// MaxDiff returns the max absolute difference between two grids'
// strips (rows [lo+1, hi] of the padded grids).
func MaxDiff(a, b [][]float64, lo, hi int) float64 {
	d := 0.0
	for i := lo + 1; i <= hi; i++ {
		for j := range a[i] {
			if x := math.Abs(a[i][j] - b[i][j]); x > d {
				d = x
			}
		}
	}
	return d
}
