package dperf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"

	"repro/internal/analytic"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/trace"
)

func errNoWorkload(stage string) error {
	return fmt.Errorf("dperf: %s needs a workload; use Pipeline.Analyze or Analysis.WithWorkload", stage)
}

// traceBackend records communication events into a folding trace
// builder, cutting compute segments at each event using the
// interpreter's cycle snapshots. The interpreter's loop callbacks
// mark iteration boundaries, so the builder folds each loop's
// repeating record pattern as it completes — the flat per-iteration
// record slice is never materialized.
type traceBackend struct {
	rank, size int
	lastCycles float64
	b          *trace.Builder
	// bytesPerDouble converts size arguments to wire bytes.
	bytesPerDouble float64
}

func newTraceBackend(rank, size int, bytesPerDouble float64) *traceBackend {
	return &traceBackend{
		rank:           rank,
		size:           size,
		b:              trace.NewBuilder(rank, size),
		bytesPerDouble: bytesPerDouble,
	}
}

func (tb *traceBackend) Rank() int { return tb.rank }
func (tb *traceBackend) Size() int { return tb.size }

func (tb *traceBackend) flush(cycles float64) {
	d := cycles - tb.lastCycles
	tb.lastCycles = cycles
	if d > 0 {
		tb.b.Append(trace.Record{Kind: trace.KindCompute, NS: d / costmodel.CPUHz * 1e9})
	}
}

func (tb *traceBackend) Send(peer int, doubles, cycles float64) {
	tb.flush(cycles)
	tb.b.Append(trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: doubles * tb.bytesPerDouble})
}

func (tb *traceBackend) Recv(peer int, doubles, cycles float64) {
	tb.flush(cycles)
	tb.b.Append(trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: doubles * tb.bytesPerDouble})
}

func (tb *traceBackend) AllreduceMax(x, cycles float64) float64 {
	tb.flush(cycles)
	tb.b.Append(trace.Record{Kind: trace.KindConv})
	return x
}

func (tb *traceBackend) Barrier(cycles float64) {
	tb.flush(cycles)
	tb.b.Append(trace.Record{Kind: trace.KindBarrier})
}

// LoopEnter implements interp.LoopObserver.
func (tb *traceBackend) LoopEnter(int) { tb.b.LoopEnter() }

// LoopIter implements interp.LoopObserver.
func (tb *traceBackend) LoopIter(int) { tb.b.LoopIter() }

// LoopExit implements interp.LoopObserver.
func (tb *traceBackend) LoopExit(int) { tb.b.LoopExit() }

// TraceSpec configures low-level trace generation.
type TraceSpec struct {
	Level Level
	// FullParams are the production parameter values (e.g. N=1200).
	FullParams map[string]int64
	// BenchParams are the reduced values actually interpreted; scale
	// parameters are scaled up by FullParams[k]/BenchParams[k].
	BenchParams map[string]int64
	// Ranks is the number of peer processes.
	Ranks int
}

// GenerateFoldedTraces interprets the program once per rank at the
// bench size, scaling block costs by ratio^depth and communication
// sizes linearly — dPerf's scale-up of block-benchmarking results.
// Traces are emitted directly in the loop-folded IR: memory is
// O(distinct iteration patterns), not O(iterations).
func GenerateFoldedTraces(a *Analysis, spec TraceSpec) ([]*trace.Folded, error) {
	if spec.Ranks < 1 {
		return nil, fmt.Errorf("dperf: need at least one rank")
	}
	// Determine the scale ratio from the designated scale parameters.
	// The product runs over sorted names: float multiplication is not
	// associative, so map iteration order would otherwise wiggle the
	// ratio — and every scaled cost — in the last ulps between runs.
	ratio := 1.0
	for _, name := range slices.Sorted(maps.Keys(a.An.ScaleParams)) {
		full, ok1 := spec.FullParams[name]
		bench, ok2 := spec.BenchParams[name]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("dperf: scale parameter %q missing from params", name)
		}
		if bench <= 0 || full <= 0 {
			return nil, fmt.Errorf("dperf: scale parameter %q must be positive", name)
		}
		ratio *= float64(full) / float64(bench)
	}
	// Per-block scale = ratio^depth.
	blockScale := make(map[int]float64, len(a.An.Blocks))
	for _, b := range a.An.Blocks {
		s := 1.0
		for d := 0; d < b.Depth; d++ {
			s *= ratio
		}
		blockScale[b.ID] = s
	}
	folded := make([]*trace.Folded, spec.Ranks)
	for r := 0; r < spec.Ranks; r++ {
		tb := newTraceBackend(r, spec.Ranks, 8)
		res, err := interp.Run(a.Prog, a.An, interp.Config{
			Params:     spec.BenchParams,
			Level:      spec.Level,
			Backend:    tb,
			BlockScale: blockScale,
			SizeScale:  ratio,
		})
		if err != nil {
			return nil, fmt.Errorf("dperf: rank %d: %w", r, err)
		}
		tb.flush(res.Cycles) // trailing compute segment
		folded[r] = tb.b.Finish()
	}
	if err := trace.ValidateFolded(folded); err != nil {
		return nil, err
	}
	return folded, nil
}

// GenerateTraces is GenerateFoldedTraces materialized flat, for
// callers that want the plain record sequences.
func GenerateTraces(a *Analysis, spec TraceSpec) ([]*trace.Trace, error) {
	folded, err := GenerateFoldedTraces(a, spec)
	if err != nil {
		return nil, err
	}
	return unfoldAll(folded)
}

func unfoldAll(folded []*trace.Folded) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, len(folded))
	for i, f := range folded {
		t, err := f.Unfold()
		if err != nil {
			return nil, fmt.Errorf("dperf: rank %d: %w", i, err)
		}
		traces[i] = t
	}
	return traces, nil
}

// TraceSet is the platform-independent pipeline artifact: one trace
// per rank plus the deployment byte shape, everything replay needs.
// Generate it once, then Predict on as many platforms as desired —
// in this process or, via SaveJSON/SaveBinary and LoadTraceSet, in
// another one.
//
// The set holds each rank's trace in the loop-folded IR, the flat
// record slice, a rank-parameterized template (Template), or any
// combination: generation emits folded traces, JSON files load flat,
// binary files load folded (v1) or templated (v2). Source picks the
// best available form for replay; Flat, Folded and Template convert
// (and cache) on demand. The conversions are exact, so predictions
// are bit-identical regardless of representation.
//
// A TraceSet's lazy conversions are not synchronized: share a set
// across goroutines only after the representation you need exists
// (Sweep resolves sources serially before fanning out).
type TraceSet struct {
	Workload string `json:"workload,omitempty"`
	Ranks    int    `json:"ranks"`
	Level    Level  `json:"level"`
	// ScatterBytes/GatherBytes are the per-peer deployment payloads
	// captured from the workload at generation time.
	ScatterBytes float64 `json:"scatter_bytes"`
	GatherBytes  float64 `json:"gather_bytes"`
	// Traces is the flat per-rank view. It is nil for sets generated
	// or loaded in folded form until Flat materializes it.
	Traces []*trace.Trace `json:"traces"`

	folded []*trace.Folded
	tpl    *trace.Template
	tplSrc *trace.TemplateSource
	cfg    config
}

// Traces generates the platform-independent trace set for the bound
// workload at the configured rank count and level.
func (a *Analysis) Traces(opts ...Option) (*TraceSet, error) {
	cfg := a.cfg.apply(opts)
	if a.workload == nil {
		return nil, errNoWorkload("Traces")
	}
	folded, err := GenerateFoldedTraces(a, TraceSpec{
		Level:       cfg.level,
		FullParams:  a.workload.Params(),
		BenchParams: a.workload.BenchParams(cfg.ranks),
		Ranks:       cfg.ranks,
	})
	if err != nil {
		return nil, err
	}
	return &TraceSet{
		Workload:     a.workload.Name(),
		Ranks:        cfg.ranks,
		Level:        cfg.level,
		ScatterBytes: a.workload.ScatterBytes(cfg.ranks),
		GatherBytes:  a.workload.GatherBytes(cfg.ranks),
		folded:       folded,
		cfg:          cfg,
	}, nil
}

// Source returns the replay view of the set: the folded traces when
// present (shared, O(compressed) memory), the template source for
// template-only sets (per-rank streams instantiated lazily from role
// bodies), the flat slice otherwise.
func (ts *TraceSet) Source() trace.Source {
	if ts.folded != nil {
		return trace.FoldedSource(ts.folded)
	}
	if ts.tplSrc != nil {
		return ts.tplSrc
	}
	return trace.SliceSource(ts.Traces)
}

// Prepare finalizes the set for concurrent sharing: it resolves the
// replay representation Source will hand out, so later Source calls
// are read-only. It never unfolds records. A TraceSet's lazy
// conversions (Flat, Folded, Template) are unsynchronized, and Stats
// folds a flat or templated set on first use; a server admitting a set
// must call Prepare — and perform any inspection such as Stats — once,
// before the set is shared across concurrent Predict/Sweep calls.
// After that the set is effectively immutable and replays freely:
// source cursors are independent. It also rejects empty sets at
// admission rather than at first prediction.
func (ts *TraceSet) Prepare() error {
	if ts.folded != nil || ts.tplSrc != nil || ts.Traces != nil {
		return nil
	}
	_, err := ts.foldedOrErr()
	return err
}

// Flat returns the per-rank flat record traces, materializing (and
// caching) them from the folded IR if needed.
func (ts *TraceSet) Flat() ([]*trace.Trace, error) {
	if ts.Traces == nil {
		folded, err := ts.foldedOrErr()
		if err != nil {
			return nil, err
		}
		traces, err := unfoldAll(folded)
		if err != nil {
			return nil, err
		}
		ts.Traces = traces
	}
	return ts.Traces, nil
}

// Folded returns the per-rank folded traces, folding the flat records
// or instantiating the template (and caching either) if needed. It
// returns nil only for an empty set.
func (ts *TraceSet) Folded() []*trace.Folded {
	fs, _ := ts.foldedOrErr()
	return fs
}

func (ts *TraceSet) foldedOrErr() ([]*trace.Folded, error) {
	if ts.folded != nil {
		return ts.folded, nil
	}
	switch {
	case ts.Traces != nil:
		folded := make([]*trace.Folded, len(ts.Traces))
		for i, t := range ts.Traces {
			folded[i] = trace.Fold(t)
		}
		ts.folded = folded
	case ts.tpl != nil:
		folded, err := ts.tpl.Instantiate()
		if err != nil {
			return nil, err
		}
		ts.folded = folded
	default:
		return nil, fmt.Errorf("dperf: empty trace set")
	}
	return ts.folded, nil
}

// Template returns the rank-parameterized template of the set,
// factoring the folded traces (and caching the result) on first use.
// Factoring is exact: replaying the template source is bit-identical
// to replaying the folded traces it was factored from.
//
// Calling Template is the opt-in that makes SaveBinary/WriteBinary
// emit the v2 template container instead of the v1 per-rank one;
// read-only inspection (Stats) measures the template without
// installing it, so it never changes what a later save writes.
func (ts *TraceSet) Template() (*trace.Template, error) {
	if ts.tpl != nil {
		return ts.tpl, nil
	}
	tpl, err := ts.templateNoCache()
	if err != nil {
		return nil, err
	}
	return tpl, ts.setTemplate(tpl)
}

// templateNoCache returns the cached template or factors one without
// installing it.
func (ts *TraceSet) templateNoCache() (*trace.Template, error) {
	if ts.tpl != nil {
		return ts.tpl, nil
	}
	folded, err := ts.foldedOrErr()
	if err != nil {
		return nil, err
	}
	return trace.Factor(folded)
}

// setTemplate installs a template (and its validated replay source).
func (ts *TraceSet) setTemplate(tpl *trace.Template) error {
	src, err := tpl.Source()
	if err != nil {
		return err
	}
	ts.tpl, ts.tplSrc = tpl, src
	return nil
}

// traceSetVersion guards the on-disk JSON format.
const traceSetVersion = 1

type traceSetJSON struct {
	Version int `json:"dperf_traceset_version"`
	TraceSet
}

// WriteJSON serializes the trace set as indented JSON with a format
// version header. The JSON form is flat — one object per record — so
// folded sets are materialized first; use WriteBinary for the compact
// format.
func (ts *TraceSet) WriteJSON(w io.Writer) error {
	if _, err := ts.Flat(); err != nil {
		return err
	}
	return ts.encodeJSON(w)
}

// encodeJSON writes the set's JSON document as it stands, its flat
// view included.
func (ts *TraceSet) encodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", jsonIndent)
	return enc.Encode(traceSetJSON{Version: traceSetVersion, TraceSet: *ts})
}

// ReadTraceSetJSON loads a trace set written by WriteJSON and
// validates cross-rank consistency, so a corrupted file fails here
// rather than deadlocking replay.
func ReadTraceSetJSON(r io.Reader) (*TraceSet, error) {
	var tj traceSetJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tj); err != nil {
		// The stock error strings drop the decoder's position; surface
		// it so a corrupt upload names the offending byte.
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return nil, fmt.Errorf("dperf: decoding trace set at byte offset %d: %w", syn.Offset, err)
		case errors.As(err, &typ):
			return nil, fmt.Errorf("dperf: decoding trace set at byte offset %d: %w", typ.Offset, err)
		}
		return nil, fmt.Errorf("dperf: decoding trace set: %w", err)
	}
	if tj.Version != traceSetVersion {
		return nil, fmt.Errorf("dperf: trace set version %d, want %d", tj.Version, traceSetVersion)
	}
	ts := tj.TraceSet
	if err := validateSetShape(ts.Ranks, len(ts.Traces)); err != nil {
		return nil, err
	}
	for i, t := range ts.Traces {
		if t == nil {
			return nil, fmt.Errorf("dperf: trace set entry %d is null", i)
		}
	}
	if err := trace.Validate(ts.Traces); err != nil {
		return nil, err
	}
	return &ts, nil
}

// validateSetShape checks the header rank count against the actual
// trace count.
func validateSetShape(ranks, traces int) error {
	if ranks < 1 {
		return fmt.Errorf("dperf: trace set claims %d ranks", ranks)
	}
	if traces != ranks {
		return fmt.Errorf("dperf: trace set claims %d ranks but has %d traces", ranks, traces)
	}
	return nil
}

// SaveJSON writes the trace set to a file in the JSON format.
func (ts *TraceSet) SaveJSON(path string) error {
	return ts.saveTo(path, ts.WriteJSON)
}

// SaveBinary writes the trace set to a file in the compact binary
// format, preserving folds.
func (ts *TraceSet) SaveBinary(path string) error {
	return ts.saveTo(path, ts.WriteBinary)
}

func (ts *TraceSet) saveTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Binary trace-set container format:
//
//	file  := magic version workload uvarint(ranks) uvarint(level)
//	         f64(scatter) f64(gather) payload
//	magic := "dpts" (4 bytes)
//	workload := uvarint(len) bytes
//	payload := version 1: blob^ranks, one per-rank binary trace
//	         | version 2: blob, one rank-parameterized template
//	           (trace.Magic version-2 stream)
//	blob  := uvarint(len) bytes
//	f64   := 8 bytes IEEE-754 little endian
//
// Version 2 stores the whole set as one template — O(roles) instead
// of O(ranks) bodies. The reader accepts both versions; writers emit
// version 2 when the set has been factored (Template) and version 1
// otherwise, so files stay readable by older tooling unless the
// caller opted into templates.
const traceSetMagic = "dpts"

const (
	traceSetBinaryVersion   = 1
	traceSetTemplateVersion = 2
)

// maxTraceSetBlob bounds one blob (64 MiB); a hostile length prefix
// must not drive allocation.
const maxTraceSetBlob = 64 << 20

// WriteBinary serializes the trace set in the compact binary format:
// the v2 template container when the set has been factored (see
// Template), the v1 per-rank container otherwise.
func (ts *TraceSet) WriteBinary(w io.Writer) error {
	return ts.writeBinary(w, ts.tpl)
}

// writeBinary emits the v2 container for the given template, or the
// v1 per-rank container when tpl is nil.
func (ts *TraceSet) writeBinary(w io.Writer, tpl *trace.Template) error {
	version := uint64(traceSetBinaryVersion)
	if tpl != nil {
		version = traceSetTemplateVersion
	}
	bw := bufio.NewWriter(w)
	var hdr []byte
	hdr = append(hdr, traceSetMagic...)
	hdr = binary.AppendUvarint(hdr, version)
	hdr = binary.AppendUvarint(hdr, uint64(len(ts.Workload)))
	hdr = append(hdr, ts.Workload...)
	hdr = binary.AppendUvarint(hdr, uint64(ts.Ranks))
	hdr = binary.AppendUvarint(hdr, uint64(ts.Level))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(ts.ScatterBytes))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(ts.GatherBytes))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var blob bytes.Buffer
	writeBlob := func() error {
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(blob.Len()))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return err
		}
		_, err := bw.Write(blob.Bytes())
		return err
	}
	if tpl != nil {
		if tpl.World != ts.Ranks {
			return fmt.Errorf("dperf: template binds %d ranks, set has %d", tpl.World, ts.Ranks)
		}
		if err := tpl.WriteTemplate(&blob); err != nil {
			return err
		}
		if err := writeBlob(); err != nil {
			return err
		}
		return bw.Flush()
	}
	folded, err := ts.foldedOrErr()
	if err != nil {
		return err
	}
	if err := validateSetShape(ts.Ranks, len(folded)); err != nil {
		return err
	}
	for _, f := range folded {
		blob.Reset()
		if err := f.WriteBinary(&blob); err != nil {
			return err
		}
		if err := writeBlob(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// offsetReader counts the bytes consumed from the underlying stream so
// binary-format errors can name the offending offset — a server store
// surfacing a bare "unexpected EOF" with no position is undebuggable.
type offsetReader struct {
	br  *bufio.Reader
	off int64
}

func (o *offsetReader) Read(p []byte) (int, error) {
	n, err := o.br.Read(p)
	o.off += int64(n)
	return n, err
}

func (o *offsetReader) ReadByte() (byte, error) {
	b, err := o.br.ReadByte()
	if err == nil {
		o.off++
	}
	return b, err
}

// ReadTraceSetBinary loads a trace set written by WriteBinary and
// validates it like ReadTraceSetJSON. The traces stay folded. Errors
// carry the byte offset at which decoding failed.
func ReadTraceSetBinary(r io.Reader) (*TraceSet, error) {
	br := &offsetReader{br: bufio.NewReader(r)}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dperf: reading trace set magic at byte offset %d: %w", br.off, err)
	}
	if string(magic[:]) != traceSetMagic {
		return nil, fmt.Errorf("dperf: bad trace set magic %q (want %q)", magic[:], traceSetMagic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dperf: reading trace set version at byte offset %d: %w", br.off, err)
	}
	if version != traceSetBinaryVersion && version != traceSetTemplateVersion {
		return nil, fmt.Errorf("dperf: trace set binary version %d, want %d or %d",
			version, traceSetBinaryVersion, traceSetTemplateVersion)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dperf: reading workload name at byte offset %d: %w", br.off, err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("dperf: workload name length %d out of range at byte offset %d", nameLen, br.off)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("dperf: reading workload name at byte offset %d: %w", br.off, err)
	}
	ranks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dperf: reading rank count at byte offset %d: %w", br.off, err)
	}
	if ranks < 1 || ranks > 1<<20 {
		return nil, fmt.Errorf("dperf: trace set claims %d ranks", ranks)
	}
	levelRaw, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dperf: reading level at byte offset %d: %w", br.off, err)
	}
	level, err := levelFromOrdinal(levelRaw)
	if err != nil {
		return nil, err
	}
	var f64 [8]byte
	if _, err := io.ReadFull(br, f64[:]); err != nil {
		return nil, fmt.Errorf("dperf: reading scatter bytes at byte offset %d: %w", br.off, err)
	}
	scatter := math.Float64frombits(binary.LittleEndian.Uint64(f64[:]))
	if _, err := io.ReadFull(br, f64[:]); err != nil {
		return nil, fmt.Errorf("dperf: reading gather bytes at byte offset %d: %w", br.off, err)
	}
	gather := math.Float64frombits(binary.LittleEndian.Uint64(f64[:]))
	if !(scatter >= 0) || !(gather >= 0) || math.IsInf(scatter, 1) || math.IsInf(gather, 1) {
		return nil, fmt.Errorf("dperf: invalid deployment bytes (scatter %v, gather %v)", scatter, gather)
	}
	ts := &TraceSet{
		Workload:     string(name),
		Ranks:        int(ranks),
		Level:        level,
		ScatterBytes: scatter,
		GatherBytes:  gather,
	}
	readBlob := func(what string) ([]byte, int64, error) {
		blobLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("dperf: reading %s length at byte offset %d: %w", what, br.off, err)
		}
		if blobLen > maxTraceSetBlob {
			return nil, 0, fmt.Errorf("dperf: %s blob of %d bytes at byte offset %d exceeds %d", what, blobLen, br.off, maxTraceSetBlob)
		}
		start := br.off
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(br, blob); err != nil {
			return nil, 0, fmt.Errorf("dperf: reading %s at byte offset %d: %w", what, br.off, err)
		}
		return blob, start, nil
	}
	if version == traceSetTemplateVersion {
		blob, start, err := readBlob("template")
		if err != nil {
			return nil, err
		}
		tpl, err := trace.ReadTemplate(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("dperf: template blob at byte offset %d: %w", start, err)
		}
		if tpl.World != int(ranks) {
			return nil, fmt.Errorf("dperf: trace set claims %d ranks but template binds %d", ranks, tpl.World)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("dperf: trailing data after trace set at byte offset %d", br.off)
		}
		if err := ts.setTemplate(tpl); err != nil {
			return nil, err
		}
		// Cross-rank consistency, streamed off the template — a
		// corrupted file fails here rather than deadlocking replay.
		if err := trace.ValidateSource(ts.tplSrc); err != nil {
			return nil, err
		}
		return ts, nil
	}
	folded := make([]*trace.Folded, ranks)
	for i := range folded {
		blob, start, err := readBlob(fmt.Sprintf("rank %d trace", i))
		if err != nil {
			return nil, err
		}
		f, err := trace.ReadBinary(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("dperf: rank %d trace blob at byte offset %d: %w", i, start, err)
		}
		folded[i] = f
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("dperf: trailing data after trace set at byte offset %d", br.off)
	}
	if err := trace.ValidateFolded(folded); err != nil {
		return nil, err
	}
	ts.folded = folded
	return ts, nil
}

// LoadTraceSet reads a trace set from disk, auto-detecting the
// format: a JSON file (SaveJSON), a compact binary file (SaveBinary,
// v1 per-rank or v2 template container), a single per-rank binary
// trace or template stream (trace.Magic), or a directory of per-rank
// rank-<i>.trace files (text or binary, as written by -emit-traces).
// Directory, bare-trace and bare-template sets carry no workload or
// deployment metadata: workload name empty, level O0, zero
// scatter/gather bytes.
func LoadTraceSet(path string) (*TraceSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		folded, err := trace.LoadAllFolded(path)
		if err != nil {
			return nil, err
		}
		return &TraceSet{Ranks: len(folded), folded: folded}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadTraceSetData(path, data)
}

// ReadTraceSetData parses a trace set from an in-memory artifact,
// auto-detecting the same single-file formats LoadTraceSet accepts
// (JSON, binary container, bare binary trace or template). name labels
// errors — a path, an upload digest, a request id — so a failure names
// both its artifact and, for the binary formats, the offending byte
// offset. It is the admission path of a trace-set store: the CLI's
// file loads go through the same parser, so store and CLI accept
// byte-identical inputs.
func ReadTraceSetData(name string, data []byte) (*TraceSet, error) {
	switch {
	case len(data) >= 4 && string(data[:4]) == traceSetMagic:
		ts, err := ReadTraceSetBinary(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return ts, nil
	case len(data) >= 4 && string(data[:4]) == trace.Magic:
		return readBareTraceData(name, data)
	case len(data) > 0 && (data[0] == '{' || data[0] == ' ' || data[0] == '\n' || data[0] == '\t' || data[0] == '\r'):
		ts, err := ReadTraceSetJSON(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return ts, nil
	}
	return nil, fmt.Errorf("dperf: %s is neither a JSON trace set, a binary trace set, nor a binary trace or template", name)
}

// readBareTraceData loads a single trace.Magic stream as a complete
// set: a v2 stream is a whole templated set; a v1 stream is a
// single-rank set and must label itself as one — the same rank/world
// rule the directory loader enforces (the rank-3-of-8 file that a
// directory load would reject cannot sneak in through the single-file
// path).
func readBareTraceData(name string, data []byte) (*TraceSet, error) {
	version, err := trace.SniffBinaryVersion(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if version == 1 {
		fd, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := trace.ValidateLabel(0, 1, fd.Rank, fd.Of); err != nil {
			return nil, fmt.Errorf("%s: not a complete trace set: %w", name, err)
		}
		folded := []*trace.Folded{fd}
		if err := trace.ValidateFolded(folded); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return &TraceSet{Ranks: 1, folded: folded}, nil
	}
	tpl, err := trace.ReadTemplate(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ts := &TraceSet{Ranks: tpl.World}
	if err := ts.setTemplate(tpl); err != nil {
		return nil, err
	}
	if err := trace.ValidateSource(ts.tplSrc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return ts, nil
}

// TraceStats describes a trace set's size in every representation:
// the raw record count against the folded op count, the cross-rank
// template factoring, and the on-disk byte sizes of each format. It
// is the -trace-stats inspection payload.
type TraceStats struct {
	Workload string `json:"workload,omitempty"`
	Ranks    int    `json:"ranks"`
	// Records is the unfolded record count across ranks; Ops is the
	// folded IR's op count (FoldRatio = Records/Ops).
	Records   int64   `json:"records"`
	Ops       int     `json:"ops"`
	FoldRatio float64 `json:"fold_ratio"`
	// Roles/Classes describe the rank-parameterized template:
	// TemplateOps is its op count across role bodies, and DedupRatio
	// is per-rank binary bytes over template binary bytes — how much
	// smaller the artifact gets by storing role bodies instead of one
	// body per rank.
	Roles       int     `json:"roles"`
	Classes     int     `json:"classes"`
	TemplateOps int     `json:"template_ops"`
	DedupRatio  float64 `json:"dedup_ratio"`
	// ScaleUnits echoes the template's problem scale S (0 when no
	// class carries an affine binding arm), and ClassFits summarizes
	// each binding class's parameter columns — for affine arms, the
	// a/b column magnitudes and the fit residual.
	ScaleUnits int64      `json:"scale_units,omitempty"`
	ClassFits  []ClassFit `json:"class_fits,omitempty"`
	// AnalyticEligible reports whether the set qualifies for the
	// analytic prediction tier (see PredictMode); AnalyticReason holds
	// the rejection reason when it does not.
	AnalyticEligible bool   `json:"analytic_eligible"`
	AnalyticReason   string `json:"analytic_reason,omitempty"`
	// Byte sizes of the set serialized in each format (text is the
	// sum of the per-rank files), measured from the folded IR without
	// unfolding, so every size is reported at any record count; text
	// and JSON sizes saturate at math.MaxInt64. BinaryBytes is the v1
	// per-rank container; TemplateBytes the v2 template container.
	TextBytes     int64 `json:"text_bytes"`
	JSONBytes     int64 `json:"json_bytes"`
	BinaryBytes   int64 `json:"binary_bytes"`
	TemplateBytes int64 `json:"template_bytes"`
}

// ClassFit is one binding class's -trace-stats row: the rank selector,
// the parameter-column width, and — when the class carries an affine
// arm a + b*h — the mean |a| and |b| with the fit's worst relative
// deviation.
type ClassFit struct {
	Sel    string `json:"sel"`
	Ranks  int    `json:"ranks"`
	Role   int    `json:"role"`
	Params int    `json:"params"`
	Affine bool   `json:"affine"`
	// MeanParam / MeanSlope are the mean magnitudes of the a and b
	// columns (MeanSlope is 0 for plain classes).
	MeanParam float64 `json:"mean_param,omitempty"`
	MeanSlope float64 `json:"mean_slope,omitempty"`
	// Residual is the affine fit's largest relative deviation across
	// the probe samples (0 for plain or exactly-fitted classes).
	Residual float64 `json:"residual,omitempty"`
}

// levelFromOrdinal decodes a serialized optimization level, rejecting
// values outside the known set.
func levelFromOrdinal(v uint64) (Level, error) {
	l := Level(v)
	for _, known := range costmodel.Levels {
		if l == known {
			return l, nil
		}
	}
	return 0, fmt.Errorf("dperf: unknown optimization level ordinal %d", v)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// Stats measures the set: raw vs folded record counts, the template
// factoring and its dedup ratio, and the serialized byte size of each
// format. It folds the set and factors a template as needed, and sizes
// every format in O(folded ops): it never unfolds the records, so
// neither its time nor its memory grows with repeat counts.
func (ts *TraceSet) Stats() (*TraceStats, error) {
	st := &TraceStats{Workload: ts.Workload, Ranks: ts.Ranks}
	folded, err := ts.foldedOrErr()
	if err != nil {
		return nil, err
	}
	for _, f := range folded {
		st.Records += f.NumRecords()
		st.Ops += f.NumOps()
	}
	if st.Ops > 0 {
		st.FoldRatio = float64(st.Records) / float64(st.Ops)
	}
	// Measure the template without installing it: inspecting a set
	// must not flip a later SaveBinary from the v1 container to v2.
	tpl, err := ts.templateNoCache()
	if err != nil {
		return nil, err
	}
	st.Roles = len(tpl.Roles)
	st.Classes = len(tpl.Classes)
	st.TemplateOps = tpl.NumOps()
	st.ScaleUnits = tpl.ScaleUnits
	st.ClassFits = classFits(tpl)
	if err := analytic.Eligible(ts.Source()); err != nil {
		st.AnalyticReason = err.Error()
	} else {
		st.AnalyticEligible = true
	}
	if st.TextBytes, st.JSONBytes, err = ts.formatSizes(folded); err != nil {
		return nil, err
	}
	var cw countingWriter
	if err := ts.writeBinary(&cw, nil); err != nil {
		return nil, err
	}
	st.BinaryBytes = cw.n
	cw.n = 0
	if err := ts.writeBinary(&cw, tpl); err != nil {
		return nil, err
	}
	st.TemplateBytes = cw.n
	if st.TemplateBytes > 0 {
		st.DedupRatio = float64(st.BinaryBytes) / float64(st.TemplateBytes)
	}
	return st, nil
}

// WriteJSON indents its document by jsonIndent per level. A record
// object sits four levels deep (set, "traces", trace, "records"), and
// its records array closes one level out.
const (
	jsonIndent       = "  "
	jsonRecordIndent = jsonIndent + jsonIndent + jsonIndent + jsonIndent
	jsonArrayClose   = jsonIndent + jsonIndent + jsonIndent
)

// formatSizes returns the bytes WriteText (summed over the per-rank
// files) and WriteJSON write for the set, in one walk of each rank's
// folded ops. Each distinct record is rendered once, by the writers'
// own formatters — the text line formatter and encoding/json at the
// record's depth — and counted with its saturating multiplicity; the
// JSON document around the records is encoded for real with every
// records array empty.
func (ts *TraceSet) formatSizes(folded []*trace.Folded) (text, js int64, err error) {
	// The skeleton: the document WriteJSON would write with each rank's
	// records elided. A flat set keeps its own arrays' nil-ness (a nil
	// array encodes as null); the flat view of a folded set has none.
	doc := *ts
	doc.Traces = make([]*trace.Trace, len(folded))
	for i, f := range folded {
		recs := []trace.Record{}
		if ts.Traces != nil && ts.Traces[i].Records == nil {
			recs = nil
		}
		doc.Traces[i] = &trace.Trace{Rank: f.Rank, Of: f.Of, Records: recs}
	}
	var cw countingWriter
	if err := doc.encodeJSON(&cw); err != nil {
		return 0, 0, err
	}
	js = cw.n

	// Records are keyed by their bits: 0 and -0 compare equal but
	// format differently.
	type recordKey struct {
		kind      trace.Kind
		peer      int
		ns, bytes uint64
	}
	type recordSize struct{ text, js int64 }
	sizes := make(map[recordKey]recordSize)
	var buf []byte
	for _, f := range folded {
		text = trace.SatAdd(text, int64(len(trace.AppendTextHeader(buf[:0], f.Rank, f.Of))))
		var recs int64
		err := trace.WalkOps(f.Ops, 1, func(r trace.Record, mult int64) error {
			key := recordKey{r.Kind, r.Peer, math.Float64bits(r.NS), math.Float64bits(r.Bytes)}
			sz, ok := sizes[key]
			if !ok {
				line, err := trace.AppendTextRecord(buf[:0], r)
				if err != nil {
					return err
				}
				obj, err := json.MarshalIndent(r, jsonRecordIndent, jsonIndent)
				if err != nil {
					return err
				}
				buf = line
				// Each element sits on its own indented line, followed
				// by a comma (dropped after the last, below).
				sz = recordSize{int64(len(line)), int64(len(obj) + len("\n"+jsonRecordIndent+","))}
				sizes[key] = sz
			}
			text = trace.SatAdd(text, trace.SatMul(sz.text, mult))
			recs = trace.SatAdd(recs, trace.SatMul(sz.js, mult))
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		if recs > 0 {
			// The skeleton's "[]" takes the elements, less the last
			// comma, and the closing bracket's own indented line.
			js = trace.SatAdd(js, trace.SatAdd(recs, int64(len("\n"+jsonArrayClose)-len(","))))
		}
	}
	return text, js, nil
}

// classFits summarizes the template's binding classes for TraceStats.
func classFits(tpl *trace.Template) []ClassFit {
	fits := make([]ClassFit, len(tpl.Classes))
	for i := range tpl.Classes {
		c := &tpl.Classes[i]
		cf := ClassFit{
			Sel:      c.Sel.String(),
			Role:     c.Role,
			Params:   len(c.Params),
			Affine:   c.Slopes != nil,
			Residual: c.Residual,
		}
		switch c.Sel {
		case trace.SelFirst:
			cf.Ranks = 1
		case trace.SelLast:
			if tpl.World > 1 {
				cf.Ranks = 1
			}
		case trace.SelInterior:
			if tpl.World > 2 {
				cf.Ranks = tpl.World - 2
			}
		default:
			cf.Ranks = len(c.Ranks)
		}
		if n := len(c.Params); n > 0 {
			var sumA, sumB float64
			for j, p := range c.Params {
				sumA += math.Abs(p)
				if cf.Affine {
					sumB += math.Abs(c.Slopes[j])
				}
			}
			cf.MeanParam = sumA / float64(n)
			if cf.Affine {
				cf.MeanSlope = sumB / float64(n)
			}
		}
		fits[i] = cf
	}
	return fits
}
