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
// A set is a value. Its only in-memory form is its per-rank folded ops
// (Source), fixed when the set is built: generation and the v1
// container carry them, the v2 container instantiates its template,
// and JSON documents and text directories fold their records at load.
// No method writes to the set afterwards, so any number of goroutines
// may predict, sweep, measure and write one set at once, and every
// writer's bytes depend on the set alone. Flat, WriteJSON, WriteBinary
// and Stats derive what they need on each call.
// Instantiation is exact, so a template set predicts the bits of the
// set it was factored from. A JSON or text set replays trace.Fold's
// view of its records, whose loops need not be the ones the generator
// recorded: with fast-forward off that never changes a prediction's
// bits, with it on it can change the round accounting and the last
// ulps.
type TraceSet struct {
	Workload string
	Ranks    int
	Level    Level
	// ScatterBytes/GatherBytes are the per-peer deployment payloads
	// captured from the workload at generation time.
	ScatterBytes float64
	GatherBytes  float64

	folded []*trace.Folded
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

// Source returns the replay view of the set: each rank's folded ops,
// shared, in O(compressed) memory. It is empty only for an empty set.
func (ts *TraceSet) Source() trace.Source { return trace.FoldedSource(ts.folded) }

// errEmptySet is the error of every operation on a set with no ranks,
// which only the zero TraceSet is.
var errEmptySet = errors.New("dperf: empty trace set")

// Prepare rejects an empty set, so a server admitting a set refuses it
// at upload rather than at its first prediction.
func (ts *TraceSet) Prepare() error {
	if len(ts.folded) == 0 {
		return errEmptySet
	}
	return nil
}

// Flat returns the per-rank flat record traces, unfolded from the
// folded ops on each call.
func (ts *TraceSet) Flat() ([]*trace.Trace, error) {
	if err := ts.Prepare(); err != nil {
		return nil, err
	}
	return unfoldAll(ts.folded)
}

// Folded returns the per-rank folded traces the set replays. They are
// the set's own: callers must not modify them. It returns nil only for
// an empty set.
func (ts *TraceSet) Folded() []*trace.Folded { return ts.folded }

func foldAll(traces []*trace.Trace) []*trace.Folded {
	folded := make([]*trace.Folded, len(traces))
	for i, t := range traces {
		folded[i] = trace.Fold(t)
	}
	return folded
}

// traceSetVersion guards the on-disk JSON format.
const traceSetVersion = 1

// traceSetDoc is the JSON document WriteJSON writes and
// ReadTraceSetJSON reads: the set's header fields and its flat
// per-rank records.
type traceSetDoc struct {
	Version      int            `json:"dperf_traceset_version"`
	Workload     string         `json:"workload,omitempty"`
	Ranks        int            `json:"ranks"`
	Level        Level          `json:"level"`
	ScatterBytes float64        `json:"scatter_bytes"`
	GatherBytes  float64        `json:"gather_bytes"`
	Traces       []*trace.Trace `json:"traces"`
}

// doc returns the set's JSON document holding the given traces.
func (ts *TraceSet) doc(traces []*trace.Trace) traceSetDoc {
	return traceSetDoc{
		Version:      traceSetVersion,
		Workload:     ts.Workload,
		Ranks:        ts.Ranks,
		Level:        ts.Level,
		ScatterBytes: ts.ScatterBytes,
		GatherBytes:  ts.GatherBytes,
		Traces:       traces,
	}
}

// WriteJSON serializes the trace set as indented JSON with a format
// version header. The JSON form is flat — one object per record — so
// the records are unfolded first; use WriteBinary for the compact
// format.
func (ts *TraceSet) WriteJSON(w io.Writer) error {
	traces, err := ts.Flat()
	if err != nil {
		return err
	}
	return encodeJSON(w, ts.doc(traces))
}

// encodeJSON writes a JSON document as WriteJSON formats it.
func encodeJSON(w io.Writer, doc traceSetDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", jsonIndent)
	return enc.Encode(doc)
}

// ReadTraceSetJSON loads a trace set written by WriteJSON, folds each
// rank's records (as trace.LoadFile does for text files) and validates
// cross-rank consistency, so a corrupted file fails here rather than
// deadlocking replay.
func ReadTraceSetJSON(r io.Reader) (*TraceSet, error) {
	var doc traceSetDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
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
	if doc.Version != traceSetVersion {
		return nil, fmt.Errorf("dperf: trace set version %d, want %d", doc.Version, traceSetVersion)
	}
	if err := validateSetShape(doc.Ranks, len(doc.Traces)); err != nil {
		return nil, err
	}
	if err := validateDeployment(doc.ScatterBytes, doc.GatherBytes); err != nil {
		return nil, err
	}
	for i, t := range doc.Traces {
		if t == nil {
			return nil, fmt.Errorf("dperf: trace set entry %d is null", i)
		}
	}
	folded := foldAll(doc.Traces)
	if err := trace.ValidateFolded(folded); err != nil {
		return nil, err
	}
	return &TraceSet{
		Workload:     doc.Workload,
		Ranks:        doc.Ranks,
		Level:        doc.Level,
		ScatterBytes: doc.ScatterBytes,
		GatherBytes:  doc.GatherBytes,
		folded:       folded,
		cfg:          readConfig(),
	}, nil
}

// validateDeployment holds a set's deployment bytes to the rule both
// prediction tiers apply (trace.ValidQuantity), naming the offending
// field: a set every tier would reject must not be admitted.
func validateDeployment(scatter, gather float64) error {
	if !trace.ValidQuantity(scatter) {
		return fmt.Errorf("dperf: invalid scatter_bytes %v (want finite and non-negative)", scatter)
	}
	if !trace.ValidQuantity(gather) {
		return fmt.Errorf("dperf: invalid gather_bytes %v (want finite and non-negative)", gather)
	}
	return nil
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

// readConfig is the config of a set a reader builds: the defaults,
// with the SessionPool and Predictor made once, when the set is read.
// Every Predict on the set then shares them, as a Pipeline's sets
// share the pipeline's, instead of realizing the platform again per
// call.
func readConfig() config { return config{}.normalized() }

// SaveJSON writes the trace set to a file in the JSON format.
func (ts *TraceSet) SaveJSON(path string) error {
	return ts.saveTo(path, ts.WriteJSON)
}

// SaveBinary writes the trace set to a file as the v2 template
// container (see WriteBinary).
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
// of O(ranks) bodies. WriteBinary writes version 2; the reader accepts
// both, because earlier writers and other encoders produce version 1.
const traceSetMagic = "dpts"

const (
	traceSetBinaryVersion   = 1
	traceSetTemplateVersion = 2
)

// maxTraceSetBlob bounds one blob (64 MiB); a hostile length prefix
// must not drive allocation.
const maxTraceSetBlob = 64 << 20

// WriteBinary serializes the trace set as the v2 template container:
// it factors the folded ranks into a rank-parameterized template, which
// instantiates back to exactly these ops, and writes the header and
// the template blob.
func (ts *TraceSet) WriteBinary(w io.Writer) error {
	tpl, err := ts.template()
	if err != nil {
		return err
	}
	var blob bytes.Buffer
	if err := tpl.WriteTemplate(&blob); err != nil {
		return err
	}
	b := binary.AppendUvarint(ts.header(traceSetTemplateVersion), uint64(blob.Len()))
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = w.Write(blob.Bytes())
	return err
}

// template factors the set's folded ranks.
func (ts *TraceSet) template() (*trace.Template, error) {
	if err := ts.Prepare(); err != nil {
		return nil, err
	}
	tpl, err := trace.Factor(ts.folded)
	if err != nil {
		return nil, err
	}
	if tpl.World != ts.Ranks {
		return nil, fmt.Errorf("dperf: template binds %d ranks, set has %d", tpl.World, ts.Ranks)
	}
	return tpl, nil
}

// header returns the binary container's header for the given format
// version, everything before the payload.
func (ts *TraceSet) header(version uint64) []byte {
	var hdr []byte
	hdr = append(hdr, traceSetMagic...)
	hdr = binary.AppendUvarint(hdr, version)
	hdr = binary.AppendUvarint(hdr, uint64(len(ts.Workload)))
	hdr = append(hdr, ts.Workload...)
	hdr = binary.AppendUvarint(hdr, uint64(ts.Ranks))
	hdr = binary.AppendUvarint(hdr, uint64(ts.Level))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(ts.ScatterBytes))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(ts.GatherBytes))
	return hdr
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

// ReadTraceSetBinary loads a trace set from a v1 or v2 binary
// container and validates it like ReadTraceSetJSON. The traces stay
// folded. Errors carry the byte offset at which decoding failed.
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
	if err := validateDeployment(scatter, gather); err != nil {
		return nil, err
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
	var folded []*trace.Folded
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
		if folded, err = tpl.Instantiate(); err != nil {
			return nil, err
		}
	} else {
		folded = make([]*trace.Folded, ranks)
		for i := range folded {
			blob, start, err := readBlob(fmt.Sprintf("rank %d trace", i))
			if err != nil {
				return nil, err
			}
			if folded[i], err = trace.ReadBinary(bytes.NewReader(blob)); err != nil {
				return nil, fmt.Errorf("dperf: rank %d trace blob at byte offset %d: %w", i, start, err)
			}
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("dperf: trailing data after trace set at byte offset %d", br.off)
	}
	// Cross-rank consistency — a corrupted file fails here rather than
	// deadlocking replay.
	if err := trace.ValidateFolded(folded); err != nil {
		return nil, err
	}
	return &TraceSet{
		Workload:     string(name),
		Ranks:        int(ranks),
		Level:        level,
		ScatterBytes: scatter,
		GatherBytes:  gather,
		folded:       folded,
		cfg:          readConfig(),
	}, nil
}

// LoadTraceSet reads a trace set from disk: a single file in one of
// the formats ReadTraceSetData accepts, or a directory of per-rank
// rank-<i>.trace text files (as -emit-traces writes them). A directory
// carries no workload or deployment metadata: its set has an empty
// workload name, level O0 and zero scatter/gather bytes.
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
		return &TraceSet{Ranks: len(folded), folded: folded, cfg: readConfig()}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadTraceSetData(path, data)
}

// traceSetFormats names the single-file trace-set formats, for the
// errors that refuse anything else.
const traceSetFormats = "a JSON trace set (WriteJSON) or a binary trace-set container (WriteBinary, version 1 or 2)"

// ReadTraceSetData parses a trace set from an in-memory artifact,
// auto-detecting a JSON document or a binary container. A bare
// per-rank trace or template stream (trace.Magic) is not a set and is
// refused, as is anything else, by an error naming the accepted
// formats. name labels errors — a path, an upload digest, a request id
// — so a failure names both its artifact and, for the binary format,
// the offending byte offset. It is the admission path of a trace-set
// store: the CLI's file loads go through the same parser, so store and
// CLI accept byte-identical inputs.
func ReadTraceSetData(name string, data []byte) (*TraceSet, error) {
	var (
		ts  *TraceSet
		err error
	)
	switch {
	case len(data) >= 4 && string(data[:4]) == traceSetMagic:
		ts, err = ReadTraceSetBinary(bytes.NewReader(data))
	case len(data) >= 4 && string(data[:4]) == trace.Magic:
		return nil, fmt.Errorf("dperf: %s is a bare per-rank trace or template stream, not a trace set; want %s", name, traceSetFormats)
	case len(data) > 0 && (data[0] == '{' || data[0] == ' ' || data[0] == '\n' || data[0] == '\t' || data[0] == '\r'):
		ts, err = ReadTraceSetJSON(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("dperf: %s is not a trace set; want %s", name, traceSetFormats)
	}
	if err != nil {
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
	// ClassFits summarizes each binding class's parameter column.
	ClassFits []ClassFit `json:"class_fits,omitempty"`
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
// the ranks it binds, its role and the width and mean magnitude of its
// parameter column.
type ClassFit struct {
	Sel       string  `json:"sel"`
	Ranks     int     `json:"ranks"`
	Role      int     `json:"role"`
	Params    int     `json:"params"`
	MeanParam float64 `json:"mean_param,omitempty"`
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
// format. It sizes every format in O(folded ops): it never unfolds the
// records, so neither its time nor its memory grows with repeat counts.
func (ts *TraceSet) Stats() (*TraceStats, error) {
	tpl, err := ts.template()
	if err != nil {
		return nil, err
	}
	st := &TraceStats{Workload: ts.Workload, Ranks: ts.Ranks}
	for _, f := range ts.folded {
		st.Records += f.NumRecords()
		st.Ops += f.NumOps()
	}
	if st.Ops > 0 {
		st.FoldRatio = float64(st.Records) / float64(st.Ops)
	}
	st.Roles = len(tpl.Roles)
	st.Classes = len(tpl.Classes)
	st.TemplateOps = tpl.NumOps()
	st.ClassFits = classFits(tpl)
	if err := analytic.Eligible(ts.Source()); err != nil {
		st.AnalyticReason = err.Error()
	} else {
		st.AnalyticEligible = true
	}
	if st.TextBytes, st.JSONBytes, err = ts.formatSizes(); err != nil {
		return nil, err
	}
	// BinaryBytes sizes the v1 per-rank container, which readers still
	// accept; TemplateBytes the v2 container WriteBinary writes.
	st.BinaryBytes = int64(len(ts.header(traceSetBinaryVersion)))
	for _, f := range ts.folded {
		n, err := blobSize(f.WriteBinary)
		if err != nil {
			return nil, err
		}
		st.BinaryBytes += n
	}
	n, err := blobSize(tpl.WriteTemplate)
	if err != nil {
		return nil, err
	}
	st.TemplateBytes = int64(len(ts.header(traceSetTemplateVersion))) + n
	if st.TemplateBytes > 0 {
		st.DedupRatio = float64(st.BinaryBytes) / float64(st.TemplateBytes)
	}
	return st, nil
}

// blobSize is the container size of the blob write produces: its
// bytes plus their uvarint length prefix.
func blobSize(write func(io.Writer) error) (int64, error) {
	var cw countingWriter
	if err := write(&cw); err != nil {
		return 0, err
	}
	return int64(len(binary.AppendUvarint(nil, uint64(cw.n)))) + cw.n, nil
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
func (ts *TraceSet) formatSizes() (text, js int64, err error) {
	skeleton := make([]*trace.Trace, len(ts.folded))
	for i, f := range ts.folded {
		skeleton[i] = &trace.Trace{Rank: f.Rank, Of: f.Of, Records: []trace.Record{}}
	}
	var cw countingWriter
	if err := encodeJSON(&cw, ts.doc(skeleton)); err != nil {
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
	for _, f := range ts.folded {
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
			Sel:    c.Sel.String(),
			Role:   c.Role,
			Params: len(c.Params),
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
			var sum float64
			for _, p := range c.Params {
				sum += math.Abs(p)
			}
			cf.MeanParam = sum / float64(n)
		}
		fits[i] = cf
	}
	return fits
}
