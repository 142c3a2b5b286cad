// Compact binary trace format. One trace is a magic+version header,
// the rank labels, and a stream of folded ops, varint-encoded:
//
//	file    := magic version uvarint(rank) uvarint(of) op* end
//	magic   := "dptb" (4 bytes)
//	version := uvarint (currently 1)
//	op      := lit | rep
//	lit     := tag(kind+1 in 1..5) uvarint(count) payload
//	payload := compute: f64(ns)
//	         | send/recv: uvarint(peer) f64(bytes)
//	         | conv/barrier: ε
//	rep     := tag(6) uvarint(count) uvarint(len(body)) op^len(body)
//	end     := tag(0)
//
// Floats use a hybrid encoding: a non-negative integral value v
// (the common case — byte counts, whole-nanosecond durations) is one
// uvarint 2v; anything else is the odd marker uvarint 1 followed by
// the 8 IEEE-754 bytes, little endian. The encoding is exact in both
// arms, so binary round trips are bit-stable.
//
// The Writer and Reader stream one op at a time and never hold the
// whole trace; a repeat op holds only its (small) body.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic identifies a binary trace file.
const Magic = "dptb"

// binaryVersion is the current format version.
const binaryVersion = 1

// Decoder sanity limits: a malformed or hostile file must not make
// the reader allocate or recurse without bound.
const (
	maxBinaryCount = int64(1) << 40 // per-op repetition count
	maxBinaryBody  = 1 << 20        // ops per repeat body
	maxBinaryDepth = 64             // repeat nesting
	maxBinaryPeer  = 1 << 30
	maxBinaryRank  = 1 << 30
)

func appendFloat(b []byte, v float64) []byte {
	// Negative zero satisfies v >= 0 but is not bit-identical to the
	// +0 the integer arm would decode to; it takes the raw arm.
	if v >= 0 && v < (1<<62) && v == math.Trunc(v) && !math.Signbit(v) {
		return binary.AppendUvarint(b, uint64(v)<<1)
	}
	b = binary.AppendUvarint(b, 1)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Writer streams a folded trace to an io.Writer. Ops are encoded as
// they are written; identical consecutive literals (and equal-bodied
// repeats) are merged on the fly, so writing a flat trace record by
// record still produces run-length-folded output.
type Writer struct {
	bw      *bufio.Writer
	buf     []byte
	pending Op
	hasPend bool
	closed  bool
}

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer, rank, of int) (*Writer, error) {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 32)
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, binaryVersion)
	buf = binary.AppendUvarint(buf, uint64(rank))
	buf = binary.AppendUvarint(buf, uint64(of))
	if _, err := bw.Write(buf); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, buf: buf[:0]}, nil
}

// WriteOp appends one op to the stream.
func (w *Writer) WriteOp(op Op) error {
	if w.closed {
		return fmt.Errorf("trace: WriteOp on closed writer")
	}
	if op.Count <= 0 {
		return nil
	}
	op = normalizeOp(op)
	if w.hasPend {
		if mergeOp(&w.pending, op) {
			return nil
		}
		if err := w.emit(w.pending); err != nil {
			return err
		}
	}
	w.pending, w.hasPend = op, true
	return nil
}

// WriteRecord appends one flat record.
func (w *Writer) WriteRecord(r Record) error { return w.WriteOp(Lit(r)) }

func (w *Writer) emit(op Op) error {
	w.buf = appendOpBytes(w.buf[:0], op)
	_, err := w.bw.Write(w.buf)
	return err
}

// Close flushes pending ops, writes the end marker and flushes the
// buffer. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.hasPend {
		if err := w.emit(w.pending); err != nil {
			return err
		}
		w.hasPend = false
	}
	if err := w.bw.WriteByte(0); err != nil {
		return err
	}
	return w.bw.Flush()
}

func appendOpBytes(b []byte, op Op) []byte {
	if len(op.Body) > 0 {
		b = binary.AppendUvarint(b, 6)
		b = binary.AppendUvarint(b, uint64(op.Count))
		b = binary.AppendUvarint(b, uint64(len(op.Body)))
		for _, sub := range op.Body {
			b = appendOpBytes(b, sub)
		}
		return b
	}
	b = binary.AppendUvarint(b, uint64(op.Rec.Kind)+1)
	b = binary.AppendUvarint(b, uint64(op.Count))
	switch op.Rec.Kind {
	case KindCompute:
		b = appendFloat(b, op.Rec.NS)
	case KindSend, KindRecv:
		b = binary.AppendUvarint(b, uint64(op.Rec.Peer))
		b = appendFloat(b, op.Rec.Bytes)
	}
	return b
}

// WriteBinary serializes a folded trace in one call.
func (f *Folded) WriteBinary(w io.Writer) error {
	bw, err := NewWriter(w, f.Rank, f.Of)
	if err != nil {
		return err
	}
	for _, op := range f.Ops {
		if err := bw.WriteOp(op); err != nil {
			return err
		}
	}
	return bw.Close()
}

// Reader streams a binary trace. ReadOp returns one top-level op at a
// time (a repeat op carries its body, which is bounded), so arbitrarily
// long traces are consumed in O(compressed op) memory.
type Reader struct {
	br   *bufio.Reader
	rank int
	of   int
	done bool
}

// NewReader checks the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading binary magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic[:], Magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version == templateVersion {
		return nil, fmt.Errorf("trace: binary version %d holds a template, not one rank's trace; use ReadTemplate", version)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("trace: binary version %d, want %d", version, binaryVersion)
	}
	rank, err := readBoundedUvarint(br, maxBinaryRank, "rank")
	if err != nil {
		return nil, err
	}
	of, err := readBoundedUvarint(br, maxBinaryRank, "of")
	if err != nil {
		return nil, err
	}
	// The same header rule every loader applies: a declared rank
	// outside the declared world is invalid in any context, so it
	// fails here rather than depending on which path loads the file.
	if err := CheckHeader(int(rank), int(of)); err != nil {
		return nil, err
	}
	return &Reader{br: br, rank: int(rank), of: int(of)}, nil
}

// Rank returns the rank label from the header.
func (r *Reader) Rank() int { return r.rank }

// Of returns the total-rank label from the header.
func (r *Reader) Of() int { return r.of }

// ReadOp returns the next top-level op, or io.EOF after the end
// marker.
func (r *Reader) ReadOp() (Op, error) {
	if r.done {
		return Op{}, io.EOF
	}
	op, end, err := readOp(r.br, 0)
	if err != nil {
		return Op{}, err
	}
	if end {
		r.done = true
		// The end marker must terminate the stream.
		if _, err := r.br.ReadByte(); err != io.EOF {
			return Op{}, fmt.Errorf("trace: trailing data after end marker")
		}
		return Op{}, io.EOF
	}
	return op, nil
}

func readBoundedUvarint(br *bufio.Reader, max int64, what string) (int64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	// The int conversion must be lossless on 32-bit platforms too: a
	// truncated count would silently drop or shrink ops.
	if int64(v) < 0 || int64(v) > max || v > uint64(math.MaxInt) {
		return 0, fmt.Errorf("trace: %s %d out of range (max %d)", what, v, max)
	}
	return int64(v), nil
}

func readFloat(br *bufio.Reader, what string) (float64, error) {
	u, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	if u&1 == 0 {
		return float64(u >> 1), nil
	}
	if u != 1 {
		return 0, fmt.Errorf("trace: bad float marker %d in %s", u, what)
	}
	var raw [8]byte
	if _, err := io.ReadFull(br, raw[:]); err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:])), nil
}

// readOp decodes one op; end reports the end marker instead.
func readOp(br *bufio.Reader, depth int) (op Op, end bool, err error) {
	if depth > maxBinaryDepth {
		return Op{}, false, fmt.Errorf("trace: repeat nesting deeper than %d", maxBinaryDepth)
	}
	tag, err := binary.ReadUvarint(br)
	if err != nil {
		return Op{}, false, fmt.Errorf("trace: reading op tag: %w", err)
	}
	if tag == 0 {
		return Op{}, true, nil
	}
	if tag == 6 {
		count, err := readBoundedUvarint(br, maxBinaryCount, "repeat count")
		if err != nil {
			return Op{}, false, err
		}
		if count < 1 {
			return Op{}, false, fmt.Errorf("trace: repeat count must be >= 1")
		}
		nops, err := readBoundedUvarint(br, maxBinaryBody, "repeat body length")
		if err != nil {
			return Op{}, false, err
		}
		if nops < 1 {
			return Op{}, false, fmt.Errorf("trace: empty repeat body")
		}
		body := make([]Op, 0, min(int(nops), 1024))
		for i := int64(0); i < nops; i++ {
			sub, subEnd, err := readOp(br, depth+1)
			if err != nil {
				return Op{}, false, err
			}
			if subEnd {
				return Op{}, false, fmt.Errorf("trace: end marker inside repeat body")
			}
			// Normalize while decoding, so decode∘encode is the
			// identity on the writer's (merged) output.
			body = appendOp(body, sub)
		}
		if len(body) == 0 {
			return Op{}, false, fmt.Errorf("trace: empty repeat body")
		}
		return normalizeOp(Op{Count: int(count), Body: body}), false, nil
	}
	if tag > 5 {
		return Op{}, false, fmt.Errorf("trace: unknown op tag %d", tag)
	}
	kind := Kind(tag - 1)
	count, err := readBoundedUvarint(br, maxBinaryCount, "record count")
	if err != nil {
		return Op{}, false, err
	}
	if count < 1 {
		return Op{}, false, fmt.Errorf("trace: record count must be >= 1")
	}
	rec := Record{Kind: kind}
	switch kind {
	case KindCompute:
		ns, err := readFloat(br, "compute ns")
		if err != nil {
			return Op{}, false, err
		}
		if !ValidQuantity(ns) {
			return Op{}, false, fmt.Errorf("trace: bad compute duration %v", ns)
		}
		rec.NS = ns
	case KindSend, KindRecv:
		peer, err := readBoundedUvarint(br, maxBinaryPeer, "peer")
		if err != nil {
			return Op{}, false, err
		}
		bytes, err := readFloat(br, "payload bytes")
		if err != nil {
			return Op{}, false, err
		}
		if !ValidQuantity(bytes) {
			return Op{}, false, fmt.Errorf("trace: bad payload size %v", bytes)
		}
		rec.Peer = int(peer)
		rec.Bytes = bytes
	}
	return Op{Count: int(count), Rec: rec}, false, nil
}

// ReadBinary reads a whole binary trace into a Folded. Memory is
// O(compressed): the folded form, never the unfolded records.
func ReadBinary(r io.Reader) (*Folded, error) {
	br, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	f := &Folded{Rank: br.Rank(), Of: br.Of()}
	for {
		op, err := br.ReadOp()
		if err == io.EOF {
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		f.Ops = appendOp(f.Ops, op)
	}
}
