package analytic

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/platform"
)

// compileUnpruned compiles the tape CompileTape records at point but
// keeps every guard the recording pinned: the unpruned twin the prune
// tests compare each tape with.
func compileUnpruned(t testing.TB, plat *platform.Platform, point []float64, build func(*Symbolic) (*SymSpec, error)) *Tape {
	t.Helper()
	rec, res, err := record(plat, point, build)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return rec.finalize(res)
}

// tapeTwin is a pruned tape, its unpruned twin and the point both
// were recorded at.
type tapeTwin struct {
	name          string
	point         []float64
	pruned, full  *Tape
	scanGridShape bool
}

// scanGridCells are the corners of the three cells the scan-grid
// workload of the served benchmark draws its 2-peer, n=256, 40-round
// sub-grids from; each cell spans 3% of its corner on every axis.
var scanGridCells = [][3]float64{
	{100 * platform.Mbps, 300e-6, 2e9},
	{50 * platform.Mbps, 2e-3, 3e9},
	{20 * platform.Mbps, 10e-3, 1e9},
}

// pruneTwins compiles the tapes the prune tests check, each with its
// unpruned twin: every region TestTapeReplayBitIdentical's grid records
// (when grid is set), and in each scan-grid cell the tapes recorded at
// the given fractions of the cell's width from its corner.
func pruneTwins(t testing.TB, grid bool, cellAt ...float64) []tapeTwin {
	t.Helper()
	const w, n, rounds = 2, 256, 40
	plat := starPlatform(t, w)
	build := symGhostSpec(plat, w, n, rounds)
	var twins []tapeTwin
	add := func(name string, point []float64, scanGridShape bool) {
		twins = append(twins, tapeTwin{
			name:          name,
			point:         point,
			pruned:        compileGhost(t, plat, w, n, rounds, point),
			full:          compileUnpruned(t, plat, point, build),
			scanGridShape: scanGridShape,
		})
	}
	if grid {
		var res Result
		for _, bw := range []float64{200 * platform.Mbps, 204 * platform.Mbps, 208 * platform.Mbps} {
			for _, lat := range []float64{100e-6, 103e-6, 900e-6, 927e-6} {
				for _, speed := range []float64{3e9, 3.06e9} {
					point := []float64{bw, lat, speed}
					accepted := false
					for _, tw := range twins {
						if tw.pruned.Replay(point, &res) {
							accepted = true
							break
						}
					}
					if !accepted {
						add("grid", point, false)
					}
				}
			}
		}
	}
	for _, cell := range scanGridCells {
		for _, at := range cellAt {
			f := 0.03 * at
			add("scan-grid cell", []float64{cell[0] * (1 + f), cell[1] * (1 + f), cell[2] * (1 + f)}, true)
		}
	}
	return twins
}

// specialFloats are parameter values outside any sensible region:
// signed zeros, negatives, subnormals, the extremes, infinities, NaN.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -2,
	5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// probePoints returns points inside, around and far outside the region
// around point, plus point with each parameter, and then every
// parameter at once, replaced by each special value.
func probePoints(point []float64) [][]float64 {
	var out [][]float64
	scaled := func(f0, f1, f2 float64) {
		out = append(out, []float64{point[0] * f0, point[1] * f1, point[2] * f2})
	}
	inside := []float64{0.97, 0.99, 1, 1.005, 1.01, 1.03}
	for _, f0 := range inside {
		for _, f1 := range inside {
			for _, f2 := range inside {
				scaled(f0, f1, f2)
			}
		}
	}
	around := []float64{0.5, 0.8, 0.9, 1, 1.1, 1.25, 1.5}
	for _, f0 := range around {
		for _, f1 := range around {
			for _, f2 := range around {
				scaled(f0, f1, f2)
			}
		}
	}
	for _, f := range []float64{1e-9, 1e-3, 0.1, 10, 1e3, 1e9} {
		scaled(f, 1, 1)
		scaled(1, f, 1)
		scaled(1, 1, f)
		scaled(f, f, f)
	}
	for _, s := range specialFloats {
		for k := range point {
			p := append([]float64(nil), point...)
			p[k] = s
			out = append(out, p)
		}
		out = append(out, []float64{s, s, s})
	}
	return out
}

// sameResult compares two results bit for bit (NaN payloads included).
func sameResult(a, b *Result) bool {
	return math.Float64bits(a.PredictedSeconds) == math.Float64bits(b.PredictedSeconds) &&
		math.Float64bits(a.ScatterSeconds) == math.Float64bits(b.ScatterSeconds) &&
		math.Float64bits(a.ComputeSeconds) == math.Float64bits(b.ComputeSeconds) &&
		math.Float64bits(a.GatherSeconds) == math.Float64bits(b.GatherSeconds) &&
		a.RoundsSimulated == b.RoundsSimulated &&
		a.RoundsFastForwarded == b.RoundsFastForwarded &&
		a.Jumps == b.Jumps
}

// checkTwin requires the pruned tape and its twin to accept exactly the
// same points with the same bits, scalar and batched. It returns how
// many points the pair accepted.
func checkTwin(t testing.TB, name string, pruned, full *Tape, pts [][]float64) int {
	t.Helper()
	accepted := 0
	var rp, rf Result
	for _, p := range pts {
		okp, okf := pruned.Replay(p, &rp), full.Replay(p, &rf)
		if okp != okf {
			t.Fatalf("%s: at %v the pruned tape accepts=%v, the unpruned one %v", name, p, okp, okf)
		}
		if !okp {
			continue
		}
		accepted++
		if !sameResult(&rp, &rf) {
			t.Fatalf("%s: at %v the pruned tape replays %+v, the unpruned one %+v", name, p, rp, rf)
		}
	}
	np := pruned.NumParams()
	lanes := make([]float64, BatchLanes*np)
	var bp, bf [BatchLanes]Result
	var okp, okf [BatchLanes]bool
	for lo := 0; lo < len(pts); lo += BatchLanes {
		for l := 0; l < BatchLanes; l++ {
			copy(lanes[l*np:], pts[(lo+l)%len(pts)])
		}
		vp, vf := pruned.ReplayBatch(lanes, &bp, &okp), full.ReplayBatch(lanes, &bf, &okf)
		if vp != vf || okp != okf {
			t.Fatalf("%s: batch at point %d: pruned lanes %v, unpruned %v", name, lo, okp, okf)
		}
		for l := range okp {
			if okp[l] && !sameResult(&bp[l], &bf[l]) {
				t.Fatalf("%s: batch at point %d lane %d: pruned %+v, unpruned %+v", name, lo, l, bp[l], bf[l])
			}
		}
	}
	return accepted
}

// TestTapePruneDifferential: every tape of TestTapeReplayBitIdentical's
// grid and of the scan-grid cells accepts exactly the points its
// unpruned twin accepts, with the same bits, inside, around and far
// outside its region and at signed zeros, negatives, subnormals, ±Inf
// and NaN, and Grad agrees on which points are valid. A scan-grid tape
// keeps at most 60% of the guards it records.
func TestTapePruneDifferential(t *testing.T) {
	for _, tw := range pruneTwins(t, true, 0, 0.5, 1) {
		pts := probePoints(tw.point)
		accepted := checkTwin(t, tw.name, tw.pruned, tw.full, pts)
		for _, p := range pts {
			_, gp := tw.pruned.Grad(p)
			_, gf := tw.full.Grad(p)
			if gp != gf {
				t.Fatalf("%s: at %v Grad of the pruned tape accepts=%v, of the unpruned one %v", tw.name, p, gp, gf)
			}
		}
		if accepted == 0 || accepted == len(pts) {
			t.Fatalf("%s at %v: %d of %d probes accepted; the probes must straddle the region", tw.name, tw.point, accepted, len(pts))
		}
		if tw.pruned.NumGuards() >= tw.full.NumGuards() || tw.pruned.NumInstrs() > tw.full.NumInstrs() {
			t.Fatalf("%s at %v: pruning kept %d of %d guards and %d of %d instructions",
				tw.name, tw.point, tw.pruned.NumGuards(), tw.full.NumGuards(), tw.pruned.NumInstrs(), tw.full.NumInstrs())
		}
		if tw.scanGridShape && 10*tw.pruned.NumGuards() > 6*tw.full.NumGuards() {
			t.Fatalf("%s at %v: pruning kept %d of %d guards, more than 60%%", tw.name, tw.point, tw.pruned.NumGuards(), tw.full.NumGuards())
		}
		t.Logf("%s at %v: guards %d -> %d, instrs %d -> %d, %d of %d probes accepted",
			tw.name, tw.point, tw.full.NumGuards(), tw.pruned.NumGuards(), tw.full.NumInstrs(), tw.pruned.NumInstrs(), accepted, len(pts))
	}
}

// synthTwin records guards over three parameters straight through the
// recorder, twice, and returns the pruned tape and its unpruned twin.
// build returns the register the tape outputs.
func synthTwin(point []float64, build func(r *recorder, x, y, z sval) sval) (pruned, full *Tape) {
	tape := func(prune bool) *Tape {
		r := newRecorder(point)
		out := build(r, r.param(0), r.param(1), r.param(2))
		if prune {
			r.pruneGuards()
		}
		return r.finalize(&gresult[sval]{predicted: out, scatter: out, compute: out, gather: out})
	}
	return tape(true), tape(false)
}

// TestTapePruneRules pins each rule's edge cases on hand-built
// recordings, and checks every pruned tape against its unpruned twin
// over all triples of special values.
func TestTapePruneRules(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var specials [][]float64
	for _, x := range specialFloats {
		for _, y := range specialFloats {
			for _, z := range specialFloats {
				specials = append(specials, []float64{x, y, z})
			}
		}
	}
	for _, c := range []struct {
		name             string
		point            []float64
		build            func(r *recorder, x, y, z sval) sval
		guards, instrs   int
		reject           []float64 // a point the recorded guards reject
		acceptEverywhere bool
	}{
		{
			name:  "B drops x+y<x for a constant y with a clear sign bit",
			point: []float64{1, 0, 0},
			build: func(r *recorder, x, y, z sval) sval {
				inf := r.Div(r.Const(1), r.Const(0)) // folds to +Inf
				r.Less(r.Add(x, inf), x)
				r.Less(r.Add(r.Const(3), x), x)
				return y
			},
			guards: 0, instrs: 0, acceptEverywhere: true,
		},
		{
			name:  "B keeps x+y<x for y through a -0 divisor",
			point: []float64{math.Inf(1), 0, 0},
			build: func(r *recorder, x, y, z sval) sval {
				negInf := r.Mul(r.Const(2), r.Div(r.Const(1), r.Const(negZero))) // folds to -Inf
				r.Less(r.Add(x, negInf), x)
				return y
			},
			guards: 1, instrs: 1, reject: []float64{1, 0, 0},
		},
		{
			name:  "B keeps x+y<x for a parameter y",
			point: []float64{1, 2, 0},
			build: func(r *recorder, x, y, z sval) sval {
				r.Less(r.Add(x, y), x)
				return z
			},
			guards: 1, instrs: 1, reject: []float64{1, -2, 0},
		},
		{
			name:  "C rewrites 0<a-b and a-b<0, and their Subs die",
			point: []float64{2, 1, 3},
			build: func(r *recorder, x, y, z sval) sval {
				r.Less(r.Const(0), r.Sub(x, y))
				r.Less(r.Sub(x, z), r.Const(negZero))
				return y
			},
			guards: 2, instrs: 0, reject: []float64{1, 2, 3},
		},
		{
			name:  "C leaves 0<=a-b alone",
			point: []float64{1, 2, 0},
			build: func(r *recorder, x, y, z sval) sval {
				r.LessEq(r.Const(0), r.Sub(x, y))
				return z
			},
			guards: 1, instrs: 1, reject: []float64{1, 1, 0},
		},
		{
			name:  "A keeps a false comparison no uncertified path may prove",
			point: []float64{2, 1, 1.5},
			build: func(r *recorder, x, y, z sval) sval {
				r.Less(x, y) // false: y <= x if neither is NaN
				r.Less(z, y) // false: y <= z if neither is NaN
				r.Less(x, z) // false: z <= x if neither is NaN
				return x
			},
			guards: 3, instrs: 0, reject: []float64{1, 2, math.NaN()},
		},
		{
			name:  "A drops a false comparison a certified path proves",
			point: []float64{2, 1, 1.5},
			build: func(r *recorder, x, y, z sval) sval {
				r.Less(x, y)
				r.Less(z, y)
				r.Less(x, z)
				r.Eq(x, x)
				r.Eq(y, y)
				r.Eq(z, z)
				return x
			},
			guards: 5, instrs: 0, reject: []float64{1, 2, math.NaN()},
		},
		{
			name:  "A never lets a guard certify the edge that would drop it",
			point: []float64{1, 2, 0},
			build: func(r *recorder, x, y, z sval) sval {
				r.LessEq(x, y) // certifies x and y, and nothing else does
				r.Less(y, x)   // false: x<=y implies it
				return z
			},
			guards: 1, instrs: 0, reject: []float64{math.NaN(), 2, 0},
		},
		{
			name:  "A drops order guards that one or two kept edges imply",
			point: []float64{1, 2, 3},
			build: func(r *recorder, x, y, z sval) sval {
				r.Less(x, z)   // x<y<z implies it
				r.LessEq(x, y) // x<y implies it
				r.Less(x, y)
				r.Less(y, z)
				r.LessEq(z, x) // false: x<y<z implies it
				r.Less(z, y)   // false: y<z implies it
				return x
			},
			guards: 2, instrs: 0, reject: []float64{2, 1, 3},
		},
		{
			name:  "A needs a strict edge on the path to a strict guard",
			point: []float64{1, 2, 3},
			build: func(r *recorder, x, y, z sval) sval {
				r.Less(x, z)
				r.LessEq(x, y)
				r.LessEq(y, z)
				return x
			},
			guards: 3, instrs: 0, reject: []float64{3, 3, 3},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			pruned, full := synthTwin(c.point, c.build)
			if got := [2]int{pruned.NumGuards(), pruned.NumInstrs()}; got != [2]int{c.guards, c.instrs} {
				t.Fatalf("pruned tape keeps %v guards/instrs, want %v (unpruned: %d/%d)",
					got, [2]int{c.guards, c.instrs}, full.NumGuards(), full.NumInstrs())
			}
			var res Result
			if !pruned.Replay(c.point, &res) {
				t.Fatal("the pruned tape rejects its record point")
			}
			if c.reject != nil && (full.Replay(c.reject, &res) || pruned.Replay(c.reject, &res)) {
				t.Fatalf("a tape accepts %v", c.reject)
			}
			accepted := checkTwin(t, c.name, pruned, full, specials)
			if c.acceptEverywhere && accepted != len(specials) {
				t.Fatalf("%d of %d special points accepted, want all", accepted, len(specials))
			}
		})
	}
}

// FuzzTapePrune: for arbitrary float64 bit patterns in the eight lanes'
// parameters, each pruned tape accepts exactly the lanes its unpruned
// twin accepts, with the same bits, batched and scalar.
func FuzzTapePrune(f *testing.F) {
	twins := pruneTwins(f, false, 0.5)
	lanes := func(fill func(l, k int) float64) []byte {
		b := make([]byte, 0, BatchLanes*3*8)
		for l := 0; l < BatchLanes; l++ {
			for k := 0; k < 3; k++ {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fill(l, k)))
			}
		}
		return b
	}
	for _, tw := range twins {
		f.Add(lanes(func(l, k int) float64 { return tw.point[k] * (1 + 0.002*float64(l)) }))
		f.Add(lanes(func(l, k int) float64 { return tw.point[k] * (1 - 0.02*float64(l)) }))
	}
	f.Add(lanes(func(l, k int) float64 { return specialFloats[(3*l+k)%len(specialFloats)] }))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pts [BatchLanes * 3]float64
		for k := range pts {
			if len(data) >= 8*(k+1) {
				pts[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
			}
		}
		probes := make([][]float64, BatchLanes)
		for l := range probes {
			probes[l] = pts[3*l : 3*l+3]
		}
		for _, tw := range twins {
			checkTwin(t, tw.name, tw.pruned, tw.full, probes)
		}
	})
}
