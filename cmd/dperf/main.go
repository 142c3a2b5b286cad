// Command dperf runs the dPerf prediction pipeline for the obstacle
// problem (or any mini-C source) on one of the three evaluation
// platforms, printing the analysis report, the block-benchmarking
// table, and t_predicted.
//
// Usage:
//
//	dperf -platform grid5000|xdsl|lan -peers 4 -level O3 [-src file.c]
//	      [-emit-instrumented] [-emit-traces dir]
//	      [-save-traces set.json] [-load-traces set.json]
//	      [-trace-format json|bin] [-trace-stats] [-no-fastforward]
//	      [-json]
//	dperf -sweep [-sweep-platforms grid5000,xdsl,lan] [-sweep-ranks 2,4,8]
//	      [-sweep-schemes sync,async] [-sweep-workers N]
//	      [-sweep-format table|json|csv] [-sweep-out file]
//	dperf -scan
//
// -scan runs the symbolic scan smoke demo: a fixed grid over the
// capacity-planning ghost-exchange family served through guarded
// evaluation tapes (straight-line formula replay with guard fallback),
// cross-checked bit for bit against the full analytic evaluator.
//
// -save-traces persists the platform-independent trace set; a later
// run with -load-traces skips analysis and benchmarking entirely and
// replays the stored traces on any platform — dPerf's "benchmark
// once, predict anywhere". -trace-format selects the -save-traces
// format: json (default) or the compact binary (bin). Binary sets are
// saved as the v2 template container: the per-rank folded traces are
// factored into rank-parameterized role bodies (peers, counts and
// boundary guards as affine expressions in rank and world size), so
// the artifact stores O(roles) bodies instead of O(ranks).
// -emit-traces writes one text file per rank. -load-traces
// auto-detects a JSON set, a v1 or v2 binary container, or a
// directory of per-rank text files.
//
// -json (with -load-traces) prints the prediction as its serialized
// JSON form instead of the text report — byte-identical to what the
// dperfd service returns for the same artifact and spec, which is how
// CI diffs the two.
//
// -trace-stats inspects a trace set instead of predicting from it:
// raw vs folded record counts, the template factoring with its
// cross-rank dedup ratio, and the serialized size of each format.
//
// -sweep replays one trace source against the cross product of
// platforms × rank counts × schemes concurrently and prints the
// resulting prediction table. It composes with -load-traces (the
// stored set fixes the rank count) or with the full pipeline.
//
// Replay uses steady-state fast-forward by default: once the folded
// iteration rounds of a trace settle into an exactly periodic steady
// state, the remaining rounds are costed in closed form instead of
// simulated. -no-fastforward is the verification escape hatch that
// simulates every round.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/dperf"
	"repro/internal/trace"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the command and returns its exit status: 1 after printing
// the error run returns, 0 otherwise.
func cli(args []string, stdout, stderr io.Writer) int {
	if err := run(args, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "dperf:", err)
		return 1
	}
	return 0
}

// run is the whole CLI: flag parsing, pipeline staging and output,
// addressable from tests. args excludes the program name.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		platformName = fs.String("platform", "grid5000", "target platform: grid5000, xdsl or lan")
		peers        = fs.Int("peers", 4, "number of working peers")
		levelName    = fs.String("level", "O0", "GCC optimization level: 0,1,2,3,s")
		srcPath      = fs.String("src", "", "mini-C source file (default: embedded obstacle problem)")
		emitInstr    = fs.Bool("emit-instrumented", false, "print the instrumented source and exit")
		emitTraces   = fs.String("emit-traces", "", "directory to write per-rank trace files")
		saveTraces   = fs.String("save-traces", "", "file to write the trace set (JSON or binary, see -trace-format)")
		loadTraces   = fs.String("load-traces", "", "replay a previously saved trace set or trace directory (skips analysis; format auto-detected)")
		traceFormat  = fs.String("trace-format", "", "-save-traces format: json or bin")
		traceStats   = fs.Bool("trace-stats", false, "print trace-set statistics (records vs folded ops, per-format sizes, binding-class fit quality) instead of predicting")
		noFF         = fs.Bool("no-fastforward", false, "simulate every folded iteration round instead of fast-forwarding steady-state rounds")
		predictMode  = fs.String("predict-mode", "des", "prediction tier: des (replay engine), auto (analytic when certified, DES fallback) or analytic (forced, fails when ineligible)")
		jsonOut      = fs.Bool("json", false, "print the prediction as its serialized JSON form (exactly the bytes dperfd serves) instead of the text report")
		scan         = fs.Bool("scan", false, "run the symbolic guarded-tape scan smoke demo and exit")
		n            = fs.Int64("n", 0, "override grid dimension N")
		rounds       = fs.Int64("rounds", 0, "override the iteration round count")

		sweep       = fs.Bool("sweep", false, "sweep the design space instead of predicting one configuration")
		sweepPlats  = fs.String("sweep-platforms", "", "comma-separated platforms to sweep (default: all three)")
		sweepRanks  = fs.String("sweep-ranks", "", "comma-separated rank counts to sweep (default: -peers)")
		sweepSchms  = fs.String("sweep-schemes", "sync", "comma-separated schemes to sweep: sync,async")
		sweepWork   = fs.Int("sweep-workers", 0, "sweep worker pool size (default: GOMAXPROCS)")
		sweepFormat = fs.String("sweep-format", "table", "sweep output format: table, json or csv")
		sweepOut    = fs.String("sweep-out", "", "write sweep output to a file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	// Validate the trace-format flags up front: a typo must not cost a
	// full pipeline run.
	switch *traceFormat {
	case "", "json", "bin":
	default:
		return fmt.Errorf("unknown -trace-format %q (want json or bin; -emit-traces always writes text)", *traceFormat)
	}
	if *traceFormat != "" && *saveTraces == "" {
		return fmt.Errorf("-trace-format has no effect without -save-traces")
	}

	// The -scan smoke path is self-contained: its family, grid and
	// output are fixed, so any other explicitly set flag would be
	// silently ignored — reject them instead.
	if *scan {
		var badFlag error
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "scan" {
				badFlag = fmt.Errorf("-%s has no effect with -scan: the scan demo fixes its family and grid", f.Name)
			}
		})
		if badFlag != nil {
			return badFlag
		}
		return runScan(stdout)
	}

	// Reject flag combinations that would otherwise be silently
	// ignored, before any pipeline stage runs.
	if *sweep {
		switch {
		case *saveTraces != "":
			return fmt.Errorf("-save-traces has no effect with -sweep: run the pipeline once to persist traces, then sweep with -load-traces")
		case *emitTraces != "":
			return fmt.Errorf("-emit-traces has no effect with -sweep: run the pipeline once to persist traces, then sweep with -load-traces")
		case *emitInstr:
			return fmt.Errorf("-emit-instrumented has no effect with -sweep")
		case *traceStats:
			return fmt.Errorf("-trace-stats has no effect with -sweep")
		}
	} else {
		// Mirror case: sweep flags without -sweep would silently run
		// the single-configuration pipeline instead.
		var badFlag error
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "sweep-") {
				badFlag = fmt.Errorf("-%s has no effect without -sweep", f.Name)
			}
		})
		if badFlag != nil {
			return badFlag
		}
	}
	// Parse the sweep flags before any stage runs: a typo must neither
	// cost a pipeline run nor touch -sweep-out.
	var plan *sweepPlan
	if *sweep {
		p, err := parseSweep(fs, *sweepPlats, *sweepRanks, *sweepSchms, *sweepFormat)
		if err != nil {
			return err
		}
		p.workers, p.outPath = *sweepWork, *sweepOut
		plan = p
	}

	// -json prints nothing but the serialized prediction, so it only
	// composes with the modes whose output IS one prediction.
	if *jsonOut {
		switch {
		case *sweep:
			return fmt.Errorf("-json has no effect with -sweep: use -sweep-format json")
		case *traceStats:
			return fmt.Errorf("-json has no effect with -trace-stats")
		case *loadTraces == "":
			return fmt.Errorf("-json requires -load-traces: it prints the bare serialized prediction replayed from a stored set")
		}
	}

	// FF_DEBUG streams the fast-forward controller's decisions to
	// stderr. The simulation packages never read the environment (the
	// determinism contract bans it); the CLI maps the variable to the
	// explicit WithFFDebug option here, at the process boundary.
	var ffDebug io.Writer
	if os.Getenv("FF_DEBUG") != "" {
		ffDebug = stderr
	}

	level, err := dperf.ParseLevel(*levelName)
	if err != nil {
		return err
	}
	mode, err := dperf.ParsePredictMode(*predictMode)
	if err != nil {
		return err
	}
	kind := dperf.Kind(*platformName)

	// Replay-only mode: a stored trace set is platform-independent, so
	// prediction needs neither the source nor the benchmark stage.
	// Everything except the replay target is baked into the set;
	// reject flags that would otherwise be silently ignored.
	if *loadTraces != "" {
		var badFlag error
		fs.Visit(func(f *flag.Flag) {
			switch {
			case f.Name == "load-traces" || f.Name == "platform" || f.Name == "trace-stats" || f.Name == "no-fastforward" || f.Name == "predict-mode" || f.Name == "json":
			case *sweep && strings.HasPrefix(f.Name, "sweep"):
			default:
				badFlag = fmt.Errorf("-%s has no effect with -load-traces: the trace set fixes the workload, peers and level", f.Name)
			}
		})
		if badFlag != nil {
			return badFlag
		}
		ts, err := dperf.LoadTraceSet(*loadTraces)
		if err != nil {
			return err
		}
		if *traceStats {
			return printTraceStats(stdout, ts)
		}
		if plan != nil {
			return runSweep(ts, plan, stdout, !*noFF, mode, ffDebug)
		}
		opts := []dperf.Option{dperf.WithPlatform(kind), dperf.WithFastForward(!*noFF),
			dperf.WithPredictMode(mode)}
		if ffDebug != nil {
			opts = append(opts, dperf.WithFFDebug(ffDebug))
		}
		pred, err := ts.Predict(opts...)
		if err != nil {
			return err
		}
		if *jsonOut {
			return pred.WriteJSON(stdout)
		}
		fmt.Fprintf(stdout, "replayed stored trace set %q (%d ranks, level %s) on %s:\n",
			ts.Workload, ts.Ranks, ts.Level, kind)
		printPrediction(stdout, pred)
		return nil
	}

	w := dperf.DefaultObstacleWorkload()
	if *n > 0 {
		w.N = *n
	}
	if *rounds > 0 {
		w.Rounds = *rounds
	}
	var workload dperf.Workload = w
	if *srcPath != "" {
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			return err
		}
		workload = dperf.ProgramWorkload{
			Label:          filepath.Base(*srcPath),
			Text:           string(data),
			Scale:          []string{"N"},
			Full:           w.Params(),
			Bench:          w.BenchParams(*peers),
			Serial:         w.SerialParams(),
			ScatterPerPeer: w.ScatterBytes,
			GatherPerPeer:  w.GatherBytes,
		}
	}

	pipe := dperf.New(workload,
		dperf.WithPlatform(kind), dperf.WithRanks(*peers), dperf.WithLevel(level))

	// Stage 1: static analysis.
	a, err := pipe.Analyze()
	if err != nil {
		return err
	}
	if *emitInstr {
		fmt.Fprint(stdout, a.Instrumented)
		return nil
	}

	if plan != nil {
		return runSweep(a, plan, stdout, !*noFF, mode, ffDebug)
	}

	fmt.Fprintf(stdout, "dPerf analysis: %d basic blocks, %d communication sites\n",
		len(a.An.Blocks), len(a.An.Comm))
	summary := a.An.CommSummary()
	for _, comm := range slices.Sorted(maps.Keys(summary)) {
		fmt.Fprintf(stdout, "  comm %-14s x%d\n", comm, summary[comm])
	}

	// Stage 2: block benchmarking at the reduced size.
	rep, err := a.Bench()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nblock benchmarking (N=%d, level %s): total %.3f ms, instrumentation overhead %.2f%%\n",
		rep.Params["N"], level, rep.TotalNS/1e6, rep.InstrumentationOverheadPct)
	fmt.Fprintf(stdout, "%-5s %-10s %-6s %-10s %-12s %-8s\n", "id", "pos", "depth", "count", "unit [ns]", "share")
	for _, b := range rep.Blocks {
		if b.SharePct < 1 {
			continue
		}
		fmt.Fprintf(stdout, "%-5d %-10s %-6d %-10d %-12.2f %6.2f%%\n",
			b.ID, b.Pos, b.Depth, b.Count, b.UnitNS, b.SharePct)
	}

	// Stage 3: platform-independent traces.
	ts, err := a.Traces()
	if err != nil {
		return err
	}
	if *saveTraces != "" {
		save := ts.SaveJSON
		if *traceFormat == "bin" {
			save = ts.SaveBinary
		}
		if err := save(*saveTraces); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nsaved trace set (%d ranks) to %s\n", ts.Ranks, *saveTraces)
	}

	// Inspection mode: report the set's size instead of predicting.
	if *traceStats {
		if *emitTraces != "" {
			if err := emitTraceFiles(stdout, ts, *emitTraces); err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout)
		return printTraceStats(stdout, ts)
	}

	// Stage 4: replay on the target platform.
	predOpts := []dperf.Option{dperf.WithFastForward(!*noFF), dperf.WithPredictMode(mode)}
	if ffDebug != nil {
		predOpts = append(predOpts, dperf.WithFFDebug(ffDebug))
	}
	pred, err := ts.Predict(predOpts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nprediction for %s, %d peers, level %s (N=%d, %d rounds x %d sweeps):\n",
		kind, *peers, level, w.N, w.Rounds, w.Sweeps)
	printPrediction(stdout, pred)

	if *emitTraces != "" {
		if err := emitTraceFiles(stdout, ts, *emitTraces); err != nil {
			return err
		}
	}
	return nil
}

// emitTraceFiles writes one text trace file per rank, streamed from
// the folded IR.
func emitTraceFiles(stdout io.Writer, ts *dperf.TraceSet, dir string) error {
	folded := ts.Folded()
	if err := trace.WriteAllFolded(dir, folded); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d trace files to %s\n", len(folded), dir)
	return nil
}

// printTraceStats renders the -trace-stats inspection report.
func printTraceStats(w io.Writer, ts *dperf.TraceSet) error {
	st, err := ts.Stats()
	if err != nil {
		return err
	}
	name := st.Workload
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "trace set %s: %d ranks\n", name, st.Ranks)
	fmt.Fprintf(w, "  records (flat)  %12d\n", st.Records)
	fmt.Fprintf(w, "  ops (folded)    %12d  (fold ratio %.1fx)\n", st.Ops, st.FoldRatio)
	fmt.Fprintf(w, "  template        %12d  ops in %d role(s), %d binding class(es)\n",
		st.TemplateOps, st.Roles, st.Classes)
	fmt.Fprintf(w, "  text bytes      %12d\n", st.TextBytes)
	fmt.Fprintf(w, "  json bytes      %12d\n", st.JSONBytes)
	fmt.Fprintf(w, "  binary bytes    %12d  (%.1fx smaller than json)\n",
		st.BinaryBytes, float64(st.JSONBytes)/float64(st.BinaryBytes))
	fmt.Fprintf(w, "  template bytes  %12d  (dedup ratio %.1fx vs per-rank binary)\n",
		st.TemplateBytes, st.DedupRatio)
	for _, cf := range st.ClassFits {
		fmt.Fprintf(w, "  class %-9s %d rank(s), role %d, %d param(s)\n",
			cf.Sel, cf.Ranks, cf.Role, cf.Params)
	}
	if st.AnalyticEligible {
		fmt.Fprintf(w, "  analytic tier   eligible\n")
	} else {
		fmt.Fprintf(w, "  analytic tier   ineligible: %s\n", st.AnalyticReason)
	}
	return nil
}

// sweepPlan is a parsed -sweep invocation.
type sweepPlan struct {
	space   dperf.Space
	workers int
	format  string
	outPath string
}

// parseSweep validates -sweep-format and expands the sweep flags into a
// dperf.Space.
func parseSweep(fs *flag.FlagSet, plats, ranks, schemes, format string) (*sweepPlan, error) {
	switch format {
	case "table", "json", "csv":
	default:
		return nil, fmt.Errorf("unknown -sweep-format %q (want table, json or csv)", format)
	}
	plan := &sweepPlan{format: format}
	space := &plan.space
	space.Platforms = []dperf.Kind{dperf.KindCluster, dperf.KindDaisy, dperf.KindLAN}
	if plats != "" {
		space.Platforms = nil
		for _, p := range strings.Split(plats, ",") {
			space.Platforms = append(space.Platforms, dperf.Kind(strings.TrimSpace(p)))
		}
	} else {
		// An explicit -platform narrows the default sweep to it.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "platform" {
				space.Platforms = []dperf.Kind{dperf.Kind(f.Value.String())}
			}
		})
	}
	if ranks != "" {
		for _, r := range strings.Split(ranks, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(r))
			if err != nil {
				return nil, fmt.Errorf("bad -sweep-ranks entry %q: %w", r, err)
			}
			space.Ranks = append(space.Ranks, v)
		}
	}
	if schemes != "" {
		for _, s := range strings.Split(schemes, ",") {
			scheme, err := dperf.ParseScheme(s)
			if err != nil {
				return nil, fmt.Errorf("-sweep-schemes: %w", err)
			}
			space.Schemes = append(space.Schemes, scheme)
		}
	}
	return plan, nil
}

// runSweep runs the planned sweep and writes the requested output
// format to stdout or -sweep-out.
func runSweep(src dperf.TraceSource, plan *sweepPlan, stdout io.Writer, fastForward bool,
	mode dperf.PredictMode, ffDebug io.Writer) error {
	baseOpts := []dperf.Option{dperf.WithFastForward(fastForward), dperf.WithPredictMode(mode)}
	if ffDebug != nil {
		baseOpts = append(baseOpts, dperf.WithFFDebug(ffDebug))
	}
	opts := []dperf.SweepOption{dperf.SweepOptions(baseOpts...)}
	if plan.workers > 0 {
		opts = append(opts, dperf.SweepWorkers(plan.workers))
	}
	var res *dperf.SweepResult
	sweep := func(out io.Writer) error {
		var err error
		if res, err = dperf.Sweep(src, plan.space, opts...); err != nil {
			return err
		}
		switch plan.format {
		case "table":
			return writeSweepTable(out, res)
		case "json":
			return res.WriteJSON(out)
		default: // "csv", validated by parseSweep
			return res.WriteCSV(out)
		}
	}
	var err error
	if plan.outPath == "" {
		err = sweep(stdout)
	} else {
		err = replaceFile(plan.outPath, sweep)
	}
	if err != nil {
		return err
	}
	// Partial failures are visible per row; a sweep with zero
	// successes (a platform typo, a broken source) must not exit 0.
	if res.Failed() == len(res.Results) {
		return fmt.Errorf("all %d sweep configurations failed; first error: %s",
			len(res.Results), res.Results[0].Error)
	}
	return nil
}

// replaceFile writes path through write: into a temporary file in the
// same directory, renamed over path only once write and Close succeed,
// so an unwritable directory fails before write runs and a failed
// write leaves any existing file as it was.
func replaceFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644) // os.Create's mode under the usual umask, not CreateTemp's 0600
	if err == nil {
		err = write(f)
	}
	// A failed close means a truncated output file; never swallow it.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func writeSweepTable(out io.Writer, res *dperf.SweepResult) error {
	fmt.Fprintf(out, "sweep: %d configurations, %d workers, %s (%d failed)\n",
		len(res.Results), res.Workers, res.Elapsed.Round(1e6), res.Failed())
	if err := res.WriteTable(out); err != nil {
		return err
	}
	if best := res.Best(dperf.MetricPredicted); best != nil {
		fmt.Fprintf(out, "best: %s at %d ranks (%s) — t_predicted %.3fs\n",
			best.Platform, best.Ranks, best.Scheme, best.Prediction.Predicted)
	}
	return nil
}

func printPrediction(w io.Writer, pred *dperf.Prediction) {
	fmt.Fprintf(w, "  scatter  %8.3f s\n", pred.Scatter)
	fmt.Fprintf(w, "  compute  %8.3f s\n", pred.Compute)
	fmt.Fprintf(w, "  gather   %8.3f s\n", pred.Gather)
	fmt.Fprintf(w, "  t_predicted = %.3f s\n", pred.Predicted)
	if pred.RoundsFastForwarded > 0 {
		fmt.Fprintf(w, "  fast-forward: %d rounds simulated, %d fast-forwarded\n",
			pred.RoundsSimulated, pred.RoundsFastForwarded)
	}
	if pred.Tier == dperf.TierAnalytic {
		fmt.Fprintf(w, "  tier: analytic (closed-form, no DES on the prediction path)\n")
	}
}
