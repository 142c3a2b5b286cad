// Package simpurity forbids impure inputs inside the simulation
// packages: wall-clock reads (time.Now and friends), global math/rand
// calls, environment reads and `go` statements. Inside the simulation
// core all time must come from the DES clock, all randomness from an
// explicitly seeded *rand.Rand, and all concurrency from the kernel's
// deterministic process scheduling — otherwise predictions stop being
// a pure function of (trace, platform, spec).
//
// The sweep-timing and CLI layers (package dperf, cmd/*) are outside
// the scope: wall-clock cost reporting there is part of the UX, not of
// the simulation. Inside the scope, a deliberate impurity (e.g. the
// parallel replay engine's per-window partition goroutines, which a
// barrier and a deterministic merge order sequence, or a debug-only
// env gate) carries //dperfvet:allow simpurity <reason>.
package simpurity

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

// simulation is the purity scope: every package that executes between
// a trace and a prediction.
var simulation = map[string]bool{
	analysis.ModulePath + "/internal/des":       true,
	analysis.ModulePath + "/internal/netsim":    true,
	analysis.ModulePath + "/internal/analytic":  true,
	analysis.ModulePath + "/internal/replay":    true,
	analysis.ModulePath + "/internal/trace":     true,
	analysis.ModulePath + "/internal/interp":    true,
	analysis.ModulePath + "/internal/p2pdc":     true,
	analysis.ModulePath + "/internal/p2psap":    true,
	analysis.ModulePath + "/internal/costmodel": true,
}

// wallClock lists time package functions that read or wait on real
// time.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// envReads lists os package functions that read ambient state.
var envReads = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// Analyzer is the simpurity analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "simpurity",
	Doc:  "forbids wall-clock, global rand, env reads and go statements in simulation packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !pass.InPackages(simulation) {
		return nil
	}
	for _, f := range pass.NonTestFiles() {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !pass.Exempted(file, n.Pos(), false) {
					pass.Reportf(n.Pos(), "go statement in a simulation package; concurrency belongs to the DES kernel's deterministic scheduling")
				}
			case *ast.CallExpr:
				path, fn := analysis.PkgFunc(pass.TypesInfo, n)
				if fn == nil {
					return true
				}
				switch {
				case path == "time" && wallClock[fn.Name()]:
					if !pass.Exempted(file, n.Pos(), false) {
						pass.Reportf(n.Pos(), "wall-clock time.%s in a simulation package; all time must come from the DES clock", fn.Name())
					}
				case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
					if !pass.Exempted(file, n.Pos(), false) {
						pass.Reportf(n.Pos(), "global %s.%s in a simulation package; use an explicitly seeded *rand.Rand", path, fn.Name())
					}
				case path == "os" && envReads[fn.Name()]:
					if !pass.Exempted(file, n.Pos(), false) {
						pass.Reportf(n.Pos(), "os.%s in a simulation package; simulation results must not depend on ambient environment", fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}
