package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dperf"
)

// runCLI invokes the command with discardable stderr and returns
// stdout plus the error.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// fast keeps CLI-test pipelines cheap: a tiny grid and few rounds.
var fast = []string{"-n", "64", "-rounds", "6"}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-level", "zz"},
		{"-platform", "betelgeuse"},
		{"-sweep", "-sweep-format", "yaml"},
		{"-sweep", "-sweep-ranks", "two"},
		{"-sweep", "-sweep-schemes", "mostly-sync"},
		{"-sweep", "-save-traces", "set.json"},
		{"-sweep", "-emit-instrumented"},
		{"-sweep-ranks", "2,4"}, // sweep flag without -sweep
		{"stray-arg"},
		{"-trace-format", "xml", "-save-traces", "set.bin"},
		{"-trace-format", "bin"}, // no -save-traces / -emit-traces
		{"-trace-format", "text", "-save-traces", "set.json"},
		{"-trace-format", "json", "-emit-traces", "dir"},
		{"-sweep", "-trace-stats"},
		{"-predict-mode", "quantum"},
		{"-scan", "-sweep"},
		{"-scan", "-load-traces", "set.json"},
		{"-scan", "-save-traces", "set.json"},
		{"-scan", "-emit-traces", "dir"},
		{"-scan", "-emit-instrumented"},
		{"-scan", "-trace-stats"},
		{"-scan", "-predict-mode", "analytic"},
	} {
		if _, err := runCLI(t, append(args, fast...)...); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

func TestRunPipelineAndSaveLoadTraces(t *testing.T) {
	set := filepath.Join(t.TempDir(), "set.json")
	out, err := runCLI(t, append(fast, "-save-traces", set, "-peers", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t_predicted") || !strings.Contains(out, "saved trace set") {
		t.Fatalf("pipeline output missing stages:\n%s", out)
	}

	// Benchmark once, predict anywhere: replay the stored set on
	// another platform without re-analyzing.
	out, err = runCLI(t, "-load-traces", set, "-platform", "lan")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replayed stored trace set") || !strings.Contains(out, "t_predicted") {
		t.Fatalf("replay output unexpected:\n%s", out)
	}

	// Flags baked into the set are rejected rather than ignored.
	if _, err := runCLI(t, "-load-traces", set, "-peers", "8"); err == nil {
		t.Fatal("-peers with -load-traces accepted")
	}
	if _, err := runCLI(t, "-load-traces", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing trace set accepted")
	}
}

// TestRunBinaryTraceFormat: -trace-format bin saves the compact set,
// -load-traces auto-detects it, and both formats predict identically.
func TestRunBinaryTraceFormat(t *testing.T) {
	dir := t.TempDir()
	jsonSet := filepath.Join(dir, "set.json")
	binSet := filepath.Join(dir, "set.bin")
	if _, err := runCLI(t, append(fast, "-save-traces", jsonSet, "-peers", "2")...); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, append(fast, "-save-traces", binSet, "-trace-format", "bin", "-peers", "2")...); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := runCLI(t, "-load-traces", jsonSet, "-platform", "lan")
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := runCLI(t, "-load-traces", binSet, "-platform", "lan")
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON != fromBin {
		t.Fatalf("predictions differ across formats:\n%s\nvs\n%s", fromJSON, fromBin)
	}
	// -trace-format bin writes the v2 template container: one factored
	// template instead of per-rank bodies, strictly smaller than the
	// JSON set and carrying the dperf trace-set magic.
	binData, err := os.ReadFile(binSet)
	if err != nil {
		t.Fatal(err)
	}
	if len(binData) < 6 || string(binData[:4]) != "dpts" || binData[4] != 2 {
		t.Fatalf("-trace-format bin did not write a v2 template container (header % x)", binData[:min(len(binData), 6)])
	}
}

// TestRunEmitTracesFormats: -emit-traces writes one text file per
// rank, loadable as a trace directory; -trace-format selects only the
// -save-traces format, so it is refused next to -emit-traces alone.
func TestRunEmitTracesFormats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	if _, err := runCLI(t, append(fast, "-emit-traces", dir, "-peers", "2")...); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank-%d.trace", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "# dperf trace rank=") {
			t.Fatalf("rank %d file is not a text trace: % x", i, data[:min(len(data), 8)])
		}
	}
	out, err := runCLI(t, "-load-traces", dir, "-platform", "lan")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t_predicted") {
		t.Fatalf("replay output unexpected:\n%s", out)
	}
	if _, err := runCLI(t, append(fast, "-emit-traces", dir, "-trace-format", "bin")...); err == nil {
		t.Fatal("-trace-format bin with -emit-traces alone accepted")
	}
}

// TestRunTraceStats: the inspection mode reports fold and size
// numbers for both pipeline-generated and loaded sets.
func TestRunTraceStats(t *testing.T) {
	out, err := runCLI(t, append(fast, "-trace-stats", "-peers", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"records (flat)", "ops (folded)", "binary bytes", "template bytes", "dedup ratio", "binding class"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "t_predicted") {
		t.Fatalf("-trace-stats still predicted:\n%s", out)
	}
	set := filepath.Join(t.TempDir(), "set.bin")
	if _, err := runCLI(t, append(fast, "-save-traces", set, "-trace-format", "bin", "-peers", "2")...); err != nil {
		t.Fatal(err)
	}
	out, err = runCLI(t, "-load-traces", set, "-trace-stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fold ratio") {
		t.Fatalf("loaded stats output unexpected:\n%s", out)
	}
}

func TestRunSweepTable(t *testing.T) {
	out, err := runCLI(t, append(fast,
		"-sweep", "-sweep-platforms", "grid5000,lan", "-sweep-ranks", "2,4")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep: 4 configurations") {
		t.Fatalf("sweep header missing:\n%s", out)
	}
	if !strings.Contains(out, "best: ") {
		t.Fatalf("best line missing:\n%s", out)
	}

	// A sweep in which every configuration fails must not exit 0.
	if _, err := runCLI(t, append(fast, "-sweep", "-sweep-platforms", "grd5000")...); err == nil {
		t.Fatal("all-failed sweep reported success")
	}
}

func TestRunSweepCSV(t *testing.T) {
	out, err := runCLI(t, append(fast,
		"-sweep", "-sweep-platforms", "grid5000", "-sweep-ranks", "2",
		"-sweep-schemes", "sync,async", "-sweep-format", "csv")...)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 schemes
		t.Fatalf("got %d CSV records, want 3:\n%s", len(recs), out)
	}
	if recs[1][4] != "synchronous" || recs[2][4] != "asynchronous" {
		t.Fatalf("scheme columns wrong: %v / %v", recs[1], recs[2])
	}
	for _, rec := range recs[1:] {
		if rec[11] != "" {
			t.Fatalf("sweep row failed: %v", rec)
		}
	}
}

func TestRunSweepFromLoadedTraces(t *testing.T) {
	set := filepath.Join(t.TempDir(), "set.json")
	if _, err := runCLI(t, append(fast, "-save-traces", set, "-peers", "2")...); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-load-traces", set,
		"-sweep", "-sweep-platforms", "grid5000,lan", "-sweep-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "\n"); got != 3 { // header + 2 platforms
		t.Fatalf("got %d CSV lines, want 3:\n%s", got, out)
	}
	// A single -platform narrows the default sweep instead of erroring.
	out, err = runCLI(t, "-load-traces", set, "-platform", "xdsl", "-sweep", "-sweep-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "xdsl") || strings.Contains(out, "grid5000") {
		t.Fatalf("-platform did not narrow the sweep:\n%s", out)
	}
}

// TestRunFastForwardFlag: replay fast-forwards by default at paper
// scale (the stats line appears), and -no-fastforward is the escape
// hatch that simulates every round — with the same printed prediction.
func TestRunFastForwardFlag(t *testing.T) {
	// The -no-fastforward leg replays the set the first leg saved, so
	// the paper-scale 8-peer set is interpreted once.
	set := filepath.Join(t.TempDir(), "set.bin")
	ff, err := runCLI(t, "-peers", "8", "-save-traces", set, "-trace-format", "bin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ff, "fast-forward:") {
		t.Fatalf("default run did not report fast-forward stats:\n%s", ff)
	}
	plain, err := runCLI(t, "-load-traces", set, "-no-fastforward")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "fast-forward:") {
		t.Fatalf("-no-fastforward still fast-forwarded:\n%s", plain)
	}
	pick := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "t_predicted") {
				return line
			}
		}
		t.Fatalf("no t_predicted line:\n%s", out)
		return ""
	}
	if pick(ff) != pick(plain) {
		t.Fatalf("fast-forward changed the printed prediction: %q vs %q", pick(ff), pick(plain))
	}
}

// TestRunBadPredictMode: an unknown -predict-mode must fail with a
// usage error before any pipeline stage runs, naming the valid modes.
func TestRunBadPredictMode(t *testing.T) {
	_, err := runCLI(t, "-predict-mode", "heuristic")
	if err == nil {
		t.Fatal("unknown -predict-mode accepted")
	}
	if !strings.Contains(err.Error(), `unknown predict mode "heuristic"`) ||
		!strings.Contains(err.Error(), "des, auto or analytic") {
		t.Fatalf("unhelpful predict-mode error: %v", err)
	}
}

// TestRunScanSmoke: the -scan demo runs the fixed guarded-tape scan,
// its region/fallback fingerprint is deterministic, and every point is
// cross-checked bit for bit in-process (a divergence fails the run).
func TestRunScanSmoke(t *testing.T) {
	out, err := runCLI(t, "-scan")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"symbolic scan: ghost-exchange family, 2 peers, N=256, 40 rounds",
		"grid: 3 bandwidths x 4 latencies x 2 speeds = 24 points",
		"tape replayed 15 points, 9 guard fallbacks, 9 tape regions",
		"bit-identity: 24/24 points match the full analytic evaluation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scan output missing %q:\n%s", want, out)
		}
	}
	// The fingerprint is a pure function of the fixed grid: a second
	// run must print byte-identical output.
	again, err := runCLI(t, "-scan")
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Fatalf("scan output is not deterministic:\n%s\nvs\n%s", out, again)
	}
}

// TestRunJSONOutput: -json prints exactly the serialized prediction —
// the same bytes the dperfd service returns — and composes only with
// the replay-only mode whose output is one prediction.
func TestRunJSONOutput(t *testing.T) {
	set := filepath.Join(t.TempDir(), "set.json")
	if _, err := runCLI(t, append(fast, "-save-traces", set, "-peers", "2")...); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-load-traces", set, "-platform", "lan", "-json")
	if err != nil {
		t.Fatal(err)
	}

	// The output is the library's serialized form, nothing else.
	ts, err := dperf.LoadTraceSet(set)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := ts.Predict(dperf.WithPlatform(dperf.KindLAN), dperf.WithFastForward(true))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pred.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if out != want.String() {
		t.Fatalf("-json output is not the serialized prediction:\n got: %s\nwant: %s", out, want.String())
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if decoded["dperf_prediction_version"] != float64(1) || decoded["engine"] != "replay" {
		t.Fatalf("-json output missing version/engine fields: %s", out)
	}

	// Modes whose output is not one prediction reject the flag.
	for _, args := range [][]string{
		{"-json"},
		{"-json", "-sweep"},
		{"-json", "-load-traces", set, "-trace-stats"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestRunFFDebugEnv: FF_DEBUG streams fast-forward diagnostics to
// stderr via the CLI's env→option mapping, and — being observational —
// never changes the prediction output.
func TestRunFFDebugEnv(t *testing.T) {
	// The binary container keeps the folded Repeat loops fast-forward
	// needs; the flat JSON set would replay every round.
	set := filepath.Join(t.TempDir(), "set.bin")
	if _, err := runCLI(t, "-n", "64", "-rounds", "40", "-peers", "4",
		"-save-traces", set, "-trace-format", "bin"); err != nil {
		t.Fatal(err)
	}

	var quiet, quietErr bytes.Buffer
	if err := run([]string{"-load-traces", set}, &quiet, &quietErr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quietErr.String(), "ff: ") {
		t.Fatalf("fast-forward diagnostics leaked without FF_DEBUG:\n%s", quietErr.String())
	}

	t.Setenv("FF_DEBUG", "1")
	var noisy, noisyErr bytes.Buffer
	if err := run([]string{"-load-traces", set}, &noisy, &noisyErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(noisy.String(), "fast-forward:") {
		t.Fatalf("replay did not fast-forward, diagnostics untestable:\n%s", noisy.String())
	}
	if !strings.Contains(noisyErr.String(), "ff: ") {
		t.Fatalf("FF_DEBUG produced no diagnostics on stderr:\n%s", noisyErr.String())
	}
	if quiet.String() != noisy.String() {
		t.Fatalf("FF_DEBUG changed the prediction output:\n%s\nvs\n%s", quiet.String(), noisy.String())
	}
}
