package replay

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// panickySource passes validation but makes one rank's replay panic:
// the first RankOps call on that rank is the validator's walk and is
// answered, and every later one — the rank's process fetching its ops
// — panics.
type panickySource struct {
	trace.Source
	rank   int
	opened int
}

func (s *panickySource) RankOps(rank int) []trace.Op {
	if rank == s.rank {
		if s.opened++; s.opened > 1 {
			panic("ops exploded")
		}
	}
	return s.Source.RankOps(rank)
}

// TestProcessPanicFailsReplay pins that a panic inside a simulated
// process fails its replay instead of the program, on the serial
// session and on both kinds of parallel-engine partition: rank 1 runs
// in partition 0, which the caller's goroutine drives, and rank 2 in
// partition 1, which runs on a window goroutine. Fifty panicking runs
// per engine must not grow the goroutine count, and the next clean
// replay must equal a fresh engine's.
func TestProcessPanicFailsReplay(t *testing.T) {
	spec := clusterSpec(t, 4)
	good := heteroTraces(4, 2, 5)
	type runner interface {
		RunSource(Spec, trace.Source) (*Result, error)
	}
	engines := []struct {
		name  string
		build func() (runner, error)
	}{
		{"session", func() (runner, error) { return NewSession(spec.Platform) }},
		{"parallel-w2", func() (runner, error) { return NewParallelEngine(spec.Platform, 2) }},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			fresh, err := eng.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RunSource(spec, good)
			if err != nil {
				t.Fatal(err)
			}
			r, err := eng.build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunSource(spec, good); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				for _, rank := range []int{1, 2} {
					src := &panickySource{Source: good, rank: rank}
					_, err := r.RunSource(spec, src)
					panicMsg := fmt.Sprintf(`des: process "rank%d" panicked: ops exploded`, rank)
					if err == nil || !strings.Contains(err.Error(), panicMsg) {
						t.Fatalf("cycle %d: run error = %v, want the rank %d panic", i, err, rank)
					}
				}
			}
			if n := waitGoroutines(before+2, 5*time.Second); n > before+2 {
				t.Fatalf("goroutines grew across panicking runs: %d before, %d after", before, n)
			}
			got, err := r.RunSource(spec, good)
			if err != nil {
				t.Fatalf("engine unusable after panicking runs: %v", err)
			}
			if *got != *want {
				t.Fatalf("post-panic result %+v differs from fresh %+v", got, want)
			}
			if eng.name == "parallel-w2" && got.Par.Workers != 2 {
				t.Fatalf("parallel engine ran %d partition(s), want 2", got.Par.Workers)
			}
		})
	}
}
