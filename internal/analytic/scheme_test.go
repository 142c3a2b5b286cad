package analytic

import (
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/trace"
)

// TestSchemeInvariance: the analytic tier never reads the P2PSAP
// scheme, and like trace replay it answers alike under both. On
// cluster and LAN, whose latencies select different P2PSAP profiles,
// Evaluate returns equal results under Synchronous and Asynchronous
// for sets that settle and for one whose loop is split around a
// heterogeneous round.
func TestSchemeInvariance(t *testing.T) {
	plats := []struct {
		name  string
		build func(int) (*platform.Platform, error)
	}{{"cluster", platform.Cluster}, {"lan", platform.LAN}}
	srcs := []struct {
		name string
		src  trace.Source
	}{{"steady", steadySrc(4, 40)}, {"slow", slowSteadySrc(4, 40)}, {"perturbed", perturbedSrc(4)}}
	for _, p := range plats {
		plat, err := p.build(4)
		if err != nil {
			t.Fatal(err)
		}
		jumped := false
		for _, s := range srcs {
			eval := func(scheme p2psap.Scheme) Result {
				t.Helper()
				res, err := Evaluate(specFor(t, plat, 4, scheme, 8192, 4096, s.src))
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", p.name, s.name, scheme, err)
				}
				return *res
			}
			sync, async := eval(p2psap.Synchronous), eval(p2psap.Asynchronous)
			if sync != async {
				t.Fatalf("%s/%s: the scheme changed an evaluation:\nsync  %+v\nasync %+v", p.name, s.name, sync, async)
			}
			jumped = jumped || sync.Jumps > 0
		}
		if !jumped {
			t.Fatalf("%s: no fixture jumped, so the steady-state path went unchecked", p.name)
		}
	}
}

// slowSteadySrc is steadySrc with ten times longer round computes,
// which outlast the convergence stagger on LAN as well, so it settles
// there too.
func slowSteadySrc(ranks, count int) trace.FoldedSource {
	fs := steadySrc(ranks, count)
	for _, f := range fs {
		f.Ops[2].Body[0].Rec.NS *= 10
	}
	return fs
}
