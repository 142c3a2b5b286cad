package replay

import (
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/trace"
)

// TestSchemeInvariance: no trace replay result depends on the P2PSAP
// scheme, which the channels only store. On cluster and LAN, whose
// latencies select different P2PSAP profiles, every fast-forward mode
// returns equal results under Synchronous and Asynchronous — timings,
// round accounting and DES work counters alike — on fresh sessions and
// on a session whose channels a run under the other scheme
// configured. Predictions leave the scheme out of the engine spec on
// the strength of this equality.
func TestSchemeInvariance(t *testing.T) {
	plats := []struct {
		name  string
		build func(int) (*platform.Platform, error)
	}{{"cluster", platform.Cluster}, {"lan", platform.LAN}}
	srcs := []struct {
		name string
		src  trace.Source
	}{{"ring", ringFixture(4, 40)}, {"steady", slowSteadyFixture()}}
	for _, p := range plats {
		plat, err := p.build(4)
		if err != nil {
			t.Fatal(err)
		}
		jumped := false
		for _, s := range srcs {
			for _, mode := range []FFMode{FFOff, FFVerify, FFOn} {
				spec := Spec{
					Platform:     plat,
					Hosts:        plat.Hosts()[:s.src.Ranks()],
					Submitter:    plat.Frontend,
					ScatterBytes: 1e5,
					GatherBytes:  1e4,
					FastForward:  mode,
				}
				run := func(sess *Session, scheme p2psap.Scheme) Result {
					t.Helper()
					spec.Scheme = scheme
					res, err := sess.RunSource(spec, s.src)
					if err != nil {
						t.Fatalf("%s/%s/%v/%v: %v", p.name, s.name, mode, scheme, err)
					}
					return *res
				}
				fresh := func(scheme p2psap.Scheme) Result {
					t.Helper()
					sess, err := NewSession(plat)
					if err != nil {
						t.Fatal(err)
					}
					return run(sess, scheme)
				}
				sync, async := fresh(p2psap.Synchronous), fresh(p2psap.Asynchronous)
				if sync != async {
					t.Fatalf("%s/%s/%v: the scheme changed a fresh replay:\nsync  %+v\nasync %+v", p.name, s.name, mode, sync, async)
				}
				reused, err := NewSession(plat)
				if err != nil {
					t.Fatal(err)
				}
				run(reused, p2psap.Asynchronous)
				if got := run(reused, p2psap.Synchronous); got != sync {
					t.Fatalf("%s/%s/%v: reconfigured channels changed a replay:\nfresh  %+v\nreused %+v", p.name, s.name, mode, sync, got)
				}
				jumped = jumped || sync.FF.Jumps > 0
			}
		}
		if !jumped {
			t.Fatalf("%s: no fixture jumped, so the fast-forward path went unchecked", p.name)
		}
	}
}

// slowSteadyFixture is steadyFixture with a 20 ms round compute, which
// outlasts the convergence stagger on LAN as well, so it settles there
// too.
func slowSteadyFixture() trace.FoldedSource {
	fs := steadyFixture(40)
	for _, f := range fs {
		f.Ops[2].Body[0].Rec.NS = 2e7
	}
	return fs
}
