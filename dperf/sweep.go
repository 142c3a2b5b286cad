package dperf

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"
)

// TraceSource supplies the platform-independent trace sets a sweep
// replays. A *TraceSet is a source fixed at its own rank count; an
// *Analysis can generate traces for any rank count the workload
// supports. Sweep calls SweepTraces serially (once per distinct rank
// count, before fanning out), so implementations need no locking.
type TraceSource interface {
	// SweepTraces returns the trace set for the given rank count;
	// ranks == 0 means the source's default.
	SweepTraces(ranks int) (*TraceSet, error)
}

// SweepTraces implements TraceSource: a trace set can serve only its
// own rank count.
func (ts *TraceSet) SweepTraces(ranks int) (*TraceSet, error) {
	if ranks != 0 && ranks != ts.Ranks {
		return nil, fmt.Errorf("dperf: trace set has %d ranks, cannot sweep %d (sweep from an *Analysis to vary ranks)", ts.Ranks, ranks)
	}
	return ts, nil
}

// SweepTraces implements TraceSource by generating (or regenerating)
// traces at the requested rank count.
func (a *Analysis) SweepTraces(ranks int) (*TraceSet, error) {
	if ranks == 0 {
		return a.Traces()
	}
	return a.Traces(WithRanks(ranks))
}

// Config is one point of a sweep space: which platform to replay on,
// at how many ranks, under which communication scheme. Zero fields
// mean "the sweep's default".
type Config struct {
	// Platform selects a built-in platform kind ("" = default).
	Platform Kind `json:"platform,omitempty"`
	// Ranks is the peer count; 0 uses the sweep default (SweepOptions
	// WithRanks, else the trace source's own default).
	Ranks int `json:"ranks,omitempty"`
	// Scheme is the P2PSAP computation scheme the configuration's
	// prediction is labelled with (see WithScheme); no predicted time
	// depends on it. It applies only when the space has a Schemes
	// dimension; otherwise it is Synchronous and the sweep's base
	// scheme labels the prediction.
	Scheme Scheme `json:"scheme"`
}

// Space spans a sweep as the cross product of its dimensions, in
// deterministic order: platforms × ranks × schemes. Empty dimensions
// collapse to a single default element (the sweep's base platform,
// ranks and scheme). A Schemes dimension overrides the base scheme.
type Space struct {
	Platforms []Kind
	Ranks     []int
	Schemes   []Scheme
}

// Expand enumerates the space's configurations in deterministic order.
func (s Space) Expand() []Config {
	plats := s.Platforms
	if len(plats) == 0 {
		plats = []Kind{""}
	}
	ranks := s.Ranks
	if len(ranks) == 0 {
		ranks = []int{0}
	}
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{Synchronous} // placeholder; resolution uses the sweep default
	}
	var out []Config
	for _, p := range plats {
		for _, r := range ranks {
			for _, sch := range schemes {
				out = append(out, Config{Platform: p, Ranks: r, Scheme: sch})
			}
		}
	}
	return out
}

// ConfigResult is one row of a sweep: the configuration (resolved to
// report labels), its prediction or error, and the wall-clock cost of
// producing it. Cost is deliberately excluded from serialization so
// that sweep output is byte-identical across runs and worker counts.
type ConfigResult struct {
	Index      int         `json:"index"`
	Platform   string      `json:"platform"`
	Ranks      int         `json:"ranks"`
	Scheme     string      `json:"scheme"`
	Engine     string      `json:"engine"`
	Prediction *Prediction `json:"prediction,omitempty"`
	Error      string      `json:"error,omitempty"`
	// Config is the original sweep-space point.
	Config Config `json:"-"`
	// Cost is real time spent resolving and replaying this entry.
	Cost time.Duration `json:"-"`
}

// SweepResult is the outcome table of a sweep, ordered by
// configuration index regardless of how many workers ran it.
type SweepResult struct {
	Workload string         `json:"workload,omitempty"`
	Results  []ConfigResult `json:"results"`
	// Workers and Elapsed describe the execution, not the predictions,
	// and stay out of the serialized forms.
	Workers int           `json:"-"`
	Elapsed time.Duration `json:"-"`
}

// Metric projects a prediction onto the scalar used by Best, Worst
// and RankBy.
type Metric struct {
	Name string
	Of   func(*Prediction) float64
}

// MetricPredicted ranks by t_predicted.
var MetricPredicted = Metric{"predicted", func(p *Prediction) float64 { return p.Predicted }}

// RankBy returns the successful results ordered by the metric,
// ascending, ties broken by configuration index.
func (r *SweepResult) RankBy(m Metric) []*ConfigResult {
	var ranked []*ConfigResult
	for i := range r.Results {
		if r.Results[i].Prediction != nil {
			ranked = append(ranked, &r.Results[i])
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return m.Of(ranked[i].Prediction) < m.Of(ranked[j].Prediction)
	})
	return ranked
}

// Best returns the successful result with the lowest metric value, or
// nil if every configuration failed.
func (r *SweepResult) Best(m Metric) *ConfigResult {
	ranked := r.RankBy(m)
	if len(ranked) == 0 {
		return nil
	}
	return ranked[0]
}

// Worst returns the successful result with the highest metric value,
// or nil if every configuration failed.
func (r *SweepResult) Worst(m Metric) *ConfigResult {
	ranked := r.RankBy(m)
	if len(ranked) == 0 {
		return nil
	}
	return ranked[len(ranked)-1]
}

// Failed counts configurations that produced an error.
func (r *SweepResult) Failed() int {
	n := 0
	for i := range r.Results {
		if r.Results[i].Error != "" {
			n++
		}
	}
	return n
}

// sweepVersion guards the on-disk JSON format.
const sweepVersion = 1

type sweepJSON struct {
	Version int `json:"dperf_sweep_version"`
	*SweepResult
}

// WriteJSON serializes the sweep result, indented, with a format
// version header. Output is deterministic: identical sweeps produce
// byte-identical JSON regardless of worker count.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweepJSON{Version: sweepVersion, SweepResult: r})
}

// fmtFloat renders a float in its shortest round-trip form, so
// serialized sweeps are deterministic and lossless.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV serializes the sweep result as one CSV row per
// configuration. Like WriteJSON, the output is deterministic.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "workload", "platform", "ranks", "scheme", "engine", "level", "predicted_s", "scatter_s", "compute_s", "gather_s", "error"}); err != nil {
		return err
	}
	for i := range r.Results {
		cr := &r.Results[i]
		row := []string{
			strconv.Itoa(cr.Index), r.Workload, cr.Platform, strconv.Itoa(cr.Ranks),
			cr.Scheme, cr.Engine, "", "", "", "", "", cr.Error,
		}
		if p := cr.Prediction; p != nil {
			row[6] = p.Level.String()
			row[7] = fmtFloat(p.Predicted)
			row[8] = fmtFloat(p.Scatter)
			row[9] = fmtFloat(p.Compute)
			row[10] = fmtFloat(p.Gather)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable renders a human-readable table, including per-entry
// wall-clock cost (the one non-deterministic column, which is why the
// machine formats omit it).
func (r *SweepResult) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "idx\tplatform\tranks\tscheme\tengine\tt_predicted\tscatter\tcompute\tgather\tcost\terror")
	for i := range r.Results {
		cr := &r.Results[i]
		if p := cr.Prediction; p != nil {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%s\t%s\t%.3fs\t%.3fs\t%.3fs\t%.3fs\t%s\t\n",
				cr.Index, cr.Platform, cr.Ranks, cr.Scheme, cr.Engine,
				p.Predicted, p.Scatter, p.Compute, p.Gather, cr.Cost.Round(time.Millisecond))
		} else {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%s\t%s\t\t\t\t\t%s\t%s\n",
				cr.Index, cr.Platform, cr.Ranks, cr.Scheme, cr.Engine,
				cr.Cost.Round(time.Millisecond), cr.Error)
		}
	}
	return tw.Flush()
}

// SweepOption adjusts sweep execution.
type SweepOption func(*sweepSettings)

type sweepSettings struct {
	workers int
	base    []Option
}

// SweepWorkers bounds the worker pool (default: GOMAXPROCS). Worker
// count affects wall-clock time only, never results.
func SweepWorkers(n int) SweepOption {
	return func(s *sweepSettings) { s.workers = n }
}

// SweepOptions applies replay-side pipeline options (WithPlatform,
// WithScheme, WithEngine, WithRanks, ...) as the defaults every
// configuration starts from; the space's dimensions override them.
// Trace generation itself always uses the trace source's own
// configuration — the workload and level are properties of an
// *Analysis or a stored *TraceSet, not of the sweep.
func SweepOptions(opts ...Option) SweepOption {
	return func(s *sweepSettings) { s.base = append(s.base, opts...) }
}

// sweepJob is one resolved configuration awaiting prediction; ts is
// nil when resolution failed.
type sweepJob struct {
	cfg   config
	ts    *TraceSet
	spec  engineSpec
	label string
}

// Sweep explores a design space: it expands the space into
// configurations, resolves trace sets and platforms once per distinct
// value (sharing them across configurations), fans the replays out
// over a bounded worker pool, and returns the per-configuration
// predictions as a table ordered by configuration index.
//
// Results are deterministic: the same source and space produce the
// same predictions — and byte-identical WriteJSON/WriteCSV output —
// regardless of the worker count. Failures are per-configuration: one
// bad point never aborts the rest of the sweep.
func Sweep(src TraceSource, space Space, opts ...SweepOption) (*SweepResult, error) {
	if src == nil {
		return nil, fmt.Errorf("dperf: sweep needs a trace source")
	}
	settings := sweepSettings{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&settings)
	}
	configs := space.Expand() // always >= 1: empty dimensions collapse to defaults

	start := time.Now()
	// Every configuration shares the base's Predictor: it builds each
	// distinct platform once, and configurations sharing a platform
	// and source certify once.
	base := config{}.apply(settings.base)
	result := &SweepResult{Results: make([]ConfigResult, len(configs))}

	// Serial resolution phase: trace sets once per distinct rank
	// count, platforms once per distinct (kind, size), shared across
	// configurations and workers.
	tsCache := make(map[int]*TraceSet)
	tsErr := make(map[int]error)
	// Resolve the 0 (source-default) sentinel first when any
	// configuration uses it, so a space mixing 0 with the same
	// explicit count shares one generation in either order.
	if !base.ranksSet {
		for _, c := range configs {
			if c.Ranks != 0 {
				continue
			}
			if ts, err := src.SweepTraces(0); err != nil {
				tsErr[0] = err
			} else {
				tsCache[0] = ts
				tsCache[ts.Ranks] = ts
			}
			break
		}
	}
	jobs := make([]sweepJob, len(configs))
	for i, c := range configs {
		cfg := base
		if c.Platform != "" {
			cfg.kind = c.Platform
		}
		if len(space.Schemes) > 0 {
			cfg.scheme = c.Scheme
		}
		jobs[i].cfg = cfg

		// 0 ranks falls back to the sweep default (SweepOptions
		// WithRanks), and failing that to the source's own default.
		ranks := c.Ranks
		if ranks == 0 && cfg.ranksSet {
			ranks = cfg.ranks
		}

		cr := &result.Results[i]
		cr.Index = i
		cr.Config = c
		cr.Scheme = cfg.scheme.String()
		cr.Engine = engineName
		cr.Ranks = ranks

		entryStart := time.Now()
		fail := func(err error) {
			cr.Error = err.Error()
			cr.Cost = time.Since(entryStart)
		}

		ts, seen := tsCache[ranks]
		if !seen {
			if _, failed := tsErr[ranks]; !failed {
				var err error
				ts, err = src.SweepTraces(ranks)
				if err != nil {
					tsErr[ranks] = err
				} else {
					tsCache[ranks] = ts
					// The 0 sentinel resolves to a concrete count; cache
					// under it too so "default" and the same explicit
					// count share one generation.
					tsCache[ts.Ranks] = ts
				}
			}
		}
		if err := tsErr[ranks]; err != nil {
			fail(err)
			continue
		}
		if len(ts.folded) == 0 {
			fail(fmt.Errorf("dperf: empty trace set"))
			continue
		}
		cr.Ranks = ts.Ranks
		if result.Workload == "" {
			result.Workload = ts.Workload
		}

		spec, label, err := cfg.resolve(ts)
		cr.Platform = label
		if err != nil {
			fail(err)
			continue
		}
		jobs[i].ts = ts
		jobs[i].spec = spec
		jobs[i].label = label
		cr.Cost = time.Since(entryStart)
	}

	// Parallel phase: stride-partition the runnable jobs over the
	// worker pool; each job is one pass through the tier policy, as in
	// TraceSet.Predict.
	workers := settings.workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(configs) {
		workers = len(configs)
	}
	result.Workers = workers
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(configs); i += workers {
				job := &jobs[i]
				if job.ts == nil {
					continue
				}
				cr := &result.Results[i]
				jobStart := time.Now()
				pred, err := job.cfg.predict(job.ts, &job.spec, job.label)
				cr.Cost += time.Since(jobStart)
				if err != nil {
					cr.Error = err.Error()
					continue
				}
				cr.Prediction = pred
			}
		}(k)
	}
	wg.Wait()
	result.Elapsed = time.Since(start)
	return result, nil
}
