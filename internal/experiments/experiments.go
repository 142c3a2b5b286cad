// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV): Fig. 9 (Stage-1 reference times across
// optimization levels), Fig. 10 (reference vs. dPerf prediction at
// O3), Fig. 11 (reference vs. predictions for Grid5000, xDSL and LAN
// at O0) and Table I (equivalent computing power), plus a comparison
// of the synchronous and asynchronous schemes (SchemeComparison); the
// ablations are benchmarks in the module's root bench_test.go. Output
// is ASCII tables and gnuplot-style series, deterministic across runs.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/dperf"
	"repro/internal/costmodel"
	"repro/internal/obstacle"
	"repro/internal/p2pdc"
	"repro/internal/p2psap"
	"repro/internal/platform"
)

// PeerCounts are the paper's 2^1..2^5 working-peer counts.
var PeerCounts = []int{2, 4, 8, 16, 32}

// Workload returns the calibrated obstacle configuration for a level.
func Workload(level costmodel.Level) obstacle.Config {
	return obstacle.DefaultConfig(level)
}

// Reference runs the obstacle problem natively under P2PDC on the
// cluster (or any platform kind) and returns t_normal_execution —
// the paper's reference measurement.
func Reference(kind platform.Kind, peers int, level costmodel.Level) (*p2pdc.RunResult, error) {
	cfg := Workload(level)
	plat, err := platform.ForKind(kind, peers)
	if err != nil {
		return nil, err
	}
	hosts, err := p2pdc.HostsOf(plat, peers)
	if err != nil {
		return nil, err
	}
	spec := p2pdc.RunSpec{
		Submitter:    plat.Frontend,
		Hosts:        hosts,
		Scheme:       p2psap.Synchronous,
		ScatterBytes: cfg.ScatterBytesPerPeer(peers),
		GatherBytes:  cfg.GatherBytesPerPeer(peers),
	}
	env, err := p2pdc.NewEnvironment(plat)
	if err != nil {
		return nil, err
	}
	res, err := env.Run(spec, obstacle.App(cfg, nil))
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	return res, nil
}

// Predict runs the dPerf pipeline for the obstacle workload through
// the public façade.
func Predict(kind platform.Kind, peers int, level costmodel.Level) (*dperf.Prediction, error) {
	return dperf.New(dperf.DefaultObstacleWorkload(),
		dperf.WithPlatform(kind), dperf.WithRanks(peers), dperf.WithLevel(level)).Predict()
}

// Series is one labelled curve of (peers, seconds) points.
type Series struct {
	Label  string
	Points map[int]float64
}

// NewSeries creates an empty labelled series.
func NewSeries(label string) *Series {
	return &Series{Label: label, Points: make(map[int]float64)}
}

// Sorted returns the points ordered by peer count.
func (s *Series) Sorted() []struct {
	Peers   int
	Seconds float64
} {
	keys := make([]int, 0, len(s.Points))
	for k := range s.Points {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]struct {
		Peers   int
		Seconds float64
	}, len(keys))
	for i, k := range keys {
		out[i].Peers = k
		out[i].Seconds = s.Points[k]
	}
	return out
}

// PrintTable renders series side by side.
func PrintTable(w io.Writer, title string, series []*Series) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%-8s", "peers")
	for _, s := range series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	for _, p := range PeerCounts {
		any := false
		for _, s := range series {
			if _, ok := s.Points[p]; ok {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "%-8d", p)
		for _, s := range series {
			if v, ok := s.Points[p]; ok {
				fmt.Fprintf(w, " %22.3f", v)
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig9 reproduces "Stage-1 reference execution time for all
// optimization levels": reference runs on the cluster for every level
// and peer count.
func Fig9(w io.Writer, peerCounts []int) ([]*Series, error) {
	if peerCounts == nil {
		peerCounts = PeerCounts
	}
	var out []*Series
	for _, lvl := range costmodel.Levels {
		s := NewSeries("level-" + lvl.String())
		for _, p := range peerCounts {
			res, err := Reference(platform.KindCluster, p, lvl)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s p=%d: %w", lvl, p, err)
			}
			s.Points[p] = res.Total
		}
		out = append(out, s)
	}
	PrintTable(w, "Fig. 9 — Stage-1 reference execution time [s], obstacle problem under P2PDC (Bordeplage-like cluster)", out)
	return out, nil
}

// Fig10 reproduces "Stage-1 reference time compared to predicted
// time, GCC optimization level 3".
func Fig10(w io.Writer, peerCounts []int) ([]*Series, error) {
	if peerCounts == nil {
		peerCounts = PeerCounts
	}
	ref := NewSeries("reference")
	pred := NewSeries("dPerf-prediction")
	errPct := NewSeries("error-%")
	for _, p := range peerCounts {
		r, err := Reference(platform.KindCluster, p, costmodel.O3)
		if err != nil {
			return nil, fmt.Errorf("fig10 ref p=%d: %w", p, err)
		}
		ref.Points[p] = r.Total
		pr, err := Predict(platform.KindCluster, p, costmodel.O3)
		if err != nil {
			return nil, fmt.Errorf("fig10 pred p=%d: %w", p, err)
		}
		pred.Points[p] = pr.Predicted
		errPct.Points[p] = 100 * (pr.Predicted - r.Total) / r.Total
	}
	out := []*Series{ref, pred, errPct}
	PrintTable(w, "Fig. 10 — reference vs dPerf prediction [s], GCC level 3 (cluster)", out)
	return out, nil
}

// Fig11 reproduces "Reference time compared to predicted time for
// Grid5000 cluster, xDSL and LAN, for optimization level 0".
func Fig11(w io.Writer, peerCounts []int) ([]*Series, error) {
	if peerCounts == nil {
		peerCounts = PeerCounts
	}
	ref := NewSeries("reference")
	g5k := NewSeries("pred-grid5000")
	xdsl := NewSeries("pred-xdsl")
	lan := NewSeries("pred-lan")
	a, err := dperf.New(dperf.DefaultObstacleWorkload(), dperf.WithLevel(costmodel.O0)).Analyze()
	if err != nil {
		return nil, err
	}
	for _, p := range peerCounts {
		r, err := Reference(platform.KindCluster, p, costmodel.O0)
		if err != nil {
			return nil, fmt.Errorf("fig11 ref p=%d: %w", p, err)
		}
		ref.Points[p] = r.Total
		// Trace sets are platform-independent: generate once, replay on
		// all three platforms.
		ts, err := a.Traces(dperf.WithRanks(p))
		if err != nil {
			return nil, fmt.Errorf("fig11 traces p=%d: %w", p, err)
		}
		for _, kv := range []struct {
			kind platform.Kind
			s    *Series
		}{{platform.KindCluster, g5k}, {platform.KindDaisy, xdsl}, {platform.KindLAN, lan}} {
			pr, err := ts.Predict(dperf.WithPlatform(kv.kind))
			if err != nil {
				return nil, fmt.Errorf("fig11 %s p=%d: %w", kv.kind, p, err)
			}
			kv.s.Points[p] = pr.Predicted
		}
	}
	out := []*Series{ref, g5k, xdsl, lan}
	PrintTable(w, "Fig. 11 — reference vs predictions [s], Grid5000 / xDSL / LAN, GCC level 0", out)
	return out, nil
}

// TableIRow is one equivalence statement of Table I.
type TableIRow struct {
	P2PPeers    int
	P2PKind     platform.Kind
	P2PTime     float64
	GridPeers   int
	GridTime    float64
	Relation    string // "slightly lower (than)" or "same as"
	PaperClaims string
	Holds       bool
}

// TableI reproduces "Comparing equivalent predictions and the
// corresponding computing power in Grid5000" at level 0.
//
// A row "holds" when the P2P configuration's predicted time is within
// [1.0, tol] × the Grid5000 time for "slightly lower", or within
// ±tolSame for "same as".
func TableI(w io.Writer, fig11 []*Series) ([]TableIRow, error) {
	if fig11 == nil {
		var err error
		fig11, err = Fig11(io.Discard, nil)
		if err != nil {
			return nil, err
		}
	}
	g5k := fig11[1]
	xdsl := fig11[2]
	lan := fig11[3]
	rows := []TableIRow{
		{P2PPeers: 4, P2PKind: platform.KindDaisy, GridPeers: 2, Relation: "slightly lower", PaperClaims: "4 xDSL slightly lower than 2 Grid5000"},
		{P2PPeers: 2, P2PKind: platform.KindLAN, GridPeers: 2, Relation: "slightly lower", PaperClaims: "2 LAN slightly lower than 2 Grid5000"},
		{P2PPeers: 4, P2PKind: platform.KindLAN, GridPeers: 4, Relation: "slightly lower", PaperClaims: "4 LAN slightly lower than 4 Grid5000"},
		{P2PPeers: 8, P2PKind: platform.KindLAN, GridPeers: 4, Relation: "same as", PaperClaims: "8 LAN same as 4 Grid5000"},
		{P2PPeers: 32, P2PKind: platform.KindLAN, GridPeers: 8, Relation: "slightly lower", PaperClaims: "32 LAN slightly lower than 8 Grid5000"},
	}
	for i := range rows {
		r := &rows[i]
		switch r.P2PKind {
		case platform.KindDaisy:
			r.P2PTime = xdsl.Points[r.P2PPeers]
		case platform.KindLAN:
			r.P2PTime = lan.Points[r.P2PPeers]
		}
		r.GridTime = g5k.Points[r.GridPeers]
		ratio := r.P2PTime / r.GridTime
		switch r.Relation {
		case "slightly lower":
			// Lower performance = somewhat higher time, within 2x.
			r.Holds = ratio >= 1.0 && ratio <= 2.0
		case "same as":
			r.Holds = ratio >= 0.65 && ratio <= 1.35
		}
	}
	fmt.Fprintln(w, "# Table I — equivalent computing power (predictions, GCC level 0)")
	fmt.Fprintf(w, "%-6s %-9s %-12s %-6s %-12s %-16s %-6s\n",
		"peers", "topology", "t_pred [s]", "peers", "t_g5k [s]", "relation", "holds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-9s %-12.3f %-6d %-12.3f %-16s %-6v\n",
			r.P2PPeers, r.P2PKind, r.P2PTime, r.GridPeers, r.GridTime, r.Relation, r.Holds)
	}
	return rows, nil
}
