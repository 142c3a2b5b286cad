// Command dperfbench is dperfd's end-to-end benchmark.
//
// A timed invocation (-trace 0) builds one workload's seeded inputs,
// starts cmd/dperfd as a child process on a temporary store directory,
// and drives it over loopback from one connection in a closed loop:
// each request waits for the previous reply. It verifies every
// response against the library's rendering of the same request and
// prints the end-to-end metrics, scaled by a host-speed probe, beside
// their raw values.
//
// A traced invocation (-trace 1) replays the same seeded units of every
// workload in-process against the layers' public functions, records a
// span around each call, and prints per-layer metrics; it also drives a
// dperfd child to measure what the layers do not explain.
//
// Run it from the repository root through the wrapper, which builds
// this command and cmd/dperfd first:
//
//	bash dperfbench/run.sh --workload new-trace --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dperfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("dperfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: "+workloadList())
	seed := flags.Uint64("seed", 1, "seed for every generated input")
	seconds := flags.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := flags.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	root := flags.String("root", ".", "repository checkout to build inputs in")
	dperfd := flags.String("dperfd", "", "dperfd binary built from the checkout")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *dperfd == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -dperfd, -seconds > 0 and -trace 0 or 1")
	}
	// The client uses at most two cores, whatever the host offers.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	fx, err := loadFixtures(filepath.Join(*root, ".bench_build", "fixtures"))
	if err != nil {
		return fmt.Errorf("base trace sets: %w", err)
	}
	w, err := newWorkload(*name, *seed, fx)
	if err != nil {
		return err
	}
	tmp, err := tempDir(*root, *name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	meta := runMeta(*root, *name, *seed)
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	var res *result
	if *traced == 1 {
		res, err = runTracedAll(out, fx, *dperfd, *root, tmp, *seed, meta)
	} else {
		var t *timedRun
		p := phase{seconds: *seconds, setups: setupRepeats, verify: true}
		if t, err = runTimed(w, *dperfd, tmp, p); err == nil {
			res = reportTimed(out, t, meta)
		}
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// reportTimed prints a timed run's table and metadata and returns its
// result line. The result carries the host-scaled values.
func reportTimed(out io.Writer, t *timedRun, meta map[string]any) *result {
	ms := t.metrics()
	res := &result{Correct: t.failed == 0, Attempted: len(t.units), Failed: t.failed, Metrics: map[string]metric{}}
	samples := map[string]int{}
	fmt.Fprintf(out, "%-24s %14s %14s %-6s %8s  %s\n", "metric", "scaled", "raw", "unit", "samples", "scaled by")
	for _, m := range ms {
		fmt.Fprintf(out, "%-24s %14.6g %14.6g %-6s %8d  %s\n", m.name, m.scaled, m.raw, m.unit, m.samples, m.scaledNote)
		samples[m.name] = m.samples
		// error_rate is carried by attempted/failed: it is 0 on every
		// correct run, and a metric compared as a share of its median must
		// never be 0.
		if m.name != "error_rate" {
			res.Metrics[m.name] = metric{Value: m.scaled, Unit: m.unit}
		}
	}
	rates := make([]float64, len(t.readings))
	for i, r := range t.readings {
		rates[i] = r.rate
	}
	sort.Float64s(rates)
	fmt.Fprintf(out, "host probe: %d readings, mean %.4g/s (min %.4g, max %.4g), nominal %.4g/s\n",
		len(rates), t.readings.mean(), rates[0], rates[len(rates)-1], nominalProbeRate)
	if t.rssEarly {
		fmt.Fprintln(out, "note: rss_peak_mb was read at the end: fewer units ran than it is defined over")
	}
	if t.exhausted {
		fmt.Fprintln(out, "note: the seed's distinct units ran out before the measured phase ended")
	}
	for _, p := range t.problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	meta["units"] = len(t.units)
	meta["samples"] = samples
	meta["probe_rate"] = t.readings.mean()
	line, _ := json.Marshal(meta)
	fmt.Fprintf(out, "meta %s\n", line)
	return res
}

// runMeta describes where and on what a reading was taken.
func runMeta(root, name string, seed uint64) map[string]any {
	return map[string]any{
		"workload": name,
		"seed":     seed,
		"commit":   commit(root),
		"go":       runtime.Version(),
		"cpu":      cpuModel(),
		"nproc":    runtime.NumCPU(),
	}
}

// commit names the checkout: the git commit when there is one, else a
// digest of its Go sources.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
