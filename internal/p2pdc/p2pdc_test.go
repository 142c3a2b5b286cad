package p2pdc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
)

func env(t testing.TB, peers int) (*Environment, *platform.Platform, []string) {
	t.Helper()
	plat, err := platform.Cluster(peers)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnvironment(plat)
	if err != nil {
		t.Fatal(err)
	}
	hosts, err := HostsOf(plat, peers)
	if err != nil {
		t.Fatal(err)
	}
	return e, plat, hosts
}

func TestRunComputePhases(t *testing.T) {
	e, plat, hosts := env(t, 4)
	spec := RunSpec{
		Submitter:    plat.Frontend,
		Hosts:        hosts,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: 125e6, // ~1 s per peer at 1 Gbps
		GatherBytes:  125e5,
	}
	res, err := e.Run(spec, func(w *Worker) error {
		w.Compute(3e9) // 1 s at 3 GHz
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
	if res.ScatterTime < 0.9 {
		t.Fatalf("scatter = %v", res.ScatterTime)
	}
	if res.ComputeTime < 0.99 || res.ComputeTime > 1.2 {
		t.Fatalf("compute = %v, want ≈1s", res.ComputeTime)
	}
	if res.GatherTime <= 0 {
		t.Fatalf("gather = %v", res.GatherTime)
	}
	total := res.ScatterTime + res.ComputeTime + res.GatherTime
	if math.Abs(res.Total-total) > 1e-9 {
		t.Fatal("phases do not sum to total")
	}
	if len(res.WorkerTimes) != 4 {
		t.Fatal("missing worker times")
	}
}

func TestRunValidatesSpec(t *testing.T) {
	e, plat, hosts := env(t, 2)
	if _, err := e.Run(RunSpec{Submitter: plat.Frontend}, nil); err == nil {
		t.Fatal("empty hosts accepted")
	}
	if _, err := e.Run(RunSpec{Submitter: "nope", Hosts: hosts}, nil); err == nil {
		t.Fatal("unknown submitter accepted")
	}
	if _, err := e.Run(RunSpec{Submitter: plat.Frontend, Hosts: []string{"ghost"}}, nil); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestWorkerSendRecv(t *testing.T) {
	e, plat, hosts := env(t, 2)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts, Scheme: p2psap.Synchronous}
	res, err := e.Run(spec, func(w *Worker) error {
		if w.Rank() == 0 {
			return w.Send(1, 1e6, "hello")
		}
		v, err := w.Recv(0)
		if err != nil {
			return err
		}
		if v.(string) != "hello" {
			return errors.New("bad payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
}

func TestWorkerRankBounds(t *testing.T) {
	e, plat, hosts := env(t, 2)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts}
	res, _ := e.Run(spec, func(w *Worker) error {
		if err := w.Send(7, 8, nil); err == nil {
			return errors.New("out-of-range rank accepted")
		}
		return nil
	})
	if res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
}

func TestConvergeMaxGlobalMax(t *testing.T) {
	e, plat, hosts := env(t, 4)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts, Scheme: p2psap.Synchronous}
	res, err := e.Run(spec, func(w *Worker) error {
		local := float64(w.Rank() + 1)
		g, err := w.ConvergeMax(local)
		if err != nil {
			return err
		}
		if g != 4.0 {
			return errors.New("global max wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
}

func TestConvergeMaxSingleRank(t *testing.T) {
	e, plat, hosts := env(t, 1)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts}
	res, err := e.Run(spec, func(w *Worker) error {
		g, err := w.ConvergeMax(7.5)
		if err != nil || g != 7.5 {
			return errors.New("single-rank conv broken")
		}
		return nil
	})
	if err != nil || res.FirstError() != nil {
		t.Fatal(err, res.FirstError())
	}
}

func TestBarrierAligns(t *testing.T) {
	e, plat, hosts := env(t, 3)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts, Scheme: p2psap.Synchronous}
	var after [3]float64
	res, err := e.Run(spec, func(w *Worker) error {
		w.Compute(float64(w.Rank()) * 3e9) // 0, 1, 2 seconds
		if err := w.Barrier(); err != nil {
			return err
		}
		after[w.Rank()] = w.Now()
		return nil
	})
	if err != nil || res.FirstError() != nil {
		t.Fatal(err, res.FirstError())
	}
	for r, tm := range after {
		if tm < 2.0 {
			t.Fatalf("rank %d left barrier at %v, before slowest arrival", r, tm)
		}
	}
}

func TestTryRecvLatest(t *testing.T) {
	e, plat, hosts := env(t, 2)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts, Scheme: p2psap.Asynchronous}
	res, err := e.Run(spec, func(w *Worker) error {
		if w.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := w.Send(1, 8, i); err != nil {
					return err
				}
			}
			return nil
		}
		w.Sleep(1) // let all three arrive
		v, ok, err := w.TryRecvLatest(0)
		if err != nil {
			return err
		}
		if !ok || v.(int) != 2 {
			return errors.New("latest-value semantics broken")
		}
		return nil
	})
	if err != nil || res.FirstError() != nil {
		t.Fatal(err, res.FirstError())
	}
}

func TestAppErrorStallsWithError(t *testing.T) {
	e, plat, hosts := env(t, 2)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts, Scheme: p2psap.Synchronous}
	res, err := e.Run(spec, func(w *Worker) error {
		if w.Rank() == 0 {
			return errors.New("rank 0 gives up")
		}
		_, err := w.Recv(0) // never satisfied
		return err
	})
	if err == nil {
		t.Fatal("stalled run returned no error")
	}
	if res == nil || res.FirstError() == nil {
		t.Fatal("application error lost")
	}
}

// TestAppPanicFailsRun: a panic inside one rank's body fails the run
// with an error naming the rank, instead of crashing the program, and
// after Shutdown the environment hosts the next run.
func TestAppPanicFailsRun(t *testing.T) {
	e, plat, hosts := env(t, 4)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts, Scheme: p2psap.Synchronous}
	_, err := e.Run(spec, func(w *Worker) error {
		w.Compute(3e9)
		if w.Rank() == 2 {
			panic("rank 2 blew up")
		}
		_, err := w.ConvergeMax(0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), `des: process "rank2" panicked: rank 2 blew up`) {
		t.Fatalf("run error = %v, want the rank 2 panic", err)
	}
	e.Shutdown()
	if err := e.Reset(); err != nil {
		t.Fatalf("Reset after Shutdown: %v", err)
	}
	res, err := e.Run(spec, func(w *Worker) error {
		w.Compute(3e9)
		return nil
	})
	if err != nil || res.Total < 1 {
		t.Fatalf("post-panic run: %+v, %v", res, err)
	}
}

// TestHostsOf: the peers are the prefix of the platform's sorted
// compute hosts, copied, so a caller writing to them cannot corrupt
// the platform's cached list.
func TestHostsOf(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	all := plat.Hosts()
	hosts, err := HostsOf(plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hosts, all[:3]) {
		t.Fatalf("HostsOf(3) = %v, want the prefix of %v", hosts, all)
	}
	for _, h := range hosts {
		if h == plat.Frontend {
			t.Fatal("frontend listed as compute host")
		}
	}
	hosts[0] = "scribbled"
	if got := plat.Hosts(); !slices.Equal(got, all) {
		t.Fatalf("writing to the peers changed the platform's hosts: %v, want %v", got, all)
	}
	if _, err := HostsOf(plat, len(all)+1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("has %d hosts, need %d", len(all), len(all)+1)) {
		t.Fatalf("oversubscription: err %v", err)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	e, plat, hosts := env(t, 1)
	spec := RunSpec{Submitter: plat.Frontend, Hosts: hosts}
	res, err := e.Run(spec, func(w *Worker) error {
		w.Compute(0)
		w.Compute(-5) // ignored
		return nil
	})
	if err != nil || res.FirstError() != nil {
		t.Fatal(err)
	}
	if res.Total > 1e-3 {
		t.Fatalf("zero compute took %v", res.Total)
	}
}
