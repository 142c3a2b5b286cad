// Package dperf is the public façade of the dPerf performance
// prediction environment (Cornea, Bourgeois, Nguyen & El-Baz): it
// chains static analysis → block benchmarking → trace generation →
// trace-based network simulation, with each stage returning a
// persistent artifact so the chain can be cut, stored and resumed
// anywhere ("benchmark once, predict anywhere").
//
// The staged pipeline:
//
//	w := dperf.DefaultObstacleWorkload()
//	pipe := dperf.New(w, dperf.WithLevel(dperf.O3), dperf.WithRanks(8))
//	a, _ := pipe.Analyze()                 // static analysis artifact
//	rep, _ := a.Bench()                    // per-block unit costs
//	ts, _ := a.Traces()                    // platform-independent traces
//	p1, _ := ts.Predict(dperf.WithPlatform(dperf.KindCluster))
//	p2, _ := ts.Predict(dperf.WithPlatform(dperf.KindDaisy))
//
// A TraceSet is an immutable value that serializes to JSON (WriteJSON)
// or to the binary template container (WriteBinary), and
// LoadTraceSet / ReadTraceSetData read either back, so the expensive
// analyze+benchmark half can run in one process and the cheap replay
// half in many others.
//
// The one extension point is Workload, which abstracts the program
// under prediction: its source, scale parameters and deployment byte
// shape. ObstacleWorkload is the paper's workload; ProgramWorkload
// adapts any mini-C source. Every replay runs on a SessionPool, the
// in-process replay/p2pdc/netsim stack, which reuses realized networks
// across replays; WithEngine shares one across calls.
package dperf

import (
	"fmt"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/p2psap"
	"repro/internal/platform"
)

// Re-exported names so callers outside this module can use the façade
// without importing internal packages (which the Go toolchain forbids
// across module boundaries).
type (
	// Level is a GCC optimization level (O0..O3, Os).
	Level = costmodel.Level
	// Kind names one of the built-in evaluation platforms.
	Kind = platform.Kind
	// Platform is a concrete simulated platform graph.
	Platform = platform.Platform
	// Scheme is the P2PSAP application-level iterative scheme.
	Scheme = p2psap.Scheme
)

// Optimization levels of the paper's evaluation.
const (
	O0 = costmodel.O0
	O1 = costmodel.O1
	O2 = costmodel.O2
	O3 = costmodel.O3
	Os = costmodel.Os
)

// Built-in platform kinds: the Grid'5000 Bordeplage-like cluster, the
// Daisy xDSL topology (Fig. 8) and the campus LAN.
const (
	KindCluster = platform.KindCluster
	KindDaisy   = platform.KindDaisy
	KindLAN     = platform.KindLAN
)

// P2PSAP computation schemes.
const (
	Synchronous  = p2psap.Synchronous
	Asynchronous = p2psap.Asynchronous
)

// ParseLevel accepts "0", "O0", "o3", "s", "Os", ...
func ParseLevel(s string) (Level, error) { return costmodel.ParseLevel(s) }

// ParseScheme accepts "sync", "synchronous", "async" and
// "asynchronous", ignoring surrounding spaces: the scheme vocabulary of
// the dperf CLI's -sweep-schemes flag and dperfd's sweep requests.
func ParseScheme(s string) (Scheme, error) {
	switch strings.TrimSpace(s) {
	case "sync", "synchronous":
		return Synchronous, nil
	case "async", "asynchronous":
		return Asynchronous, nil
	}
	return Synchronous, fmt.Errorf("bad scheme %q (want sync or async)", s)
}
