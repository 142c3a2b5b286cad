// Package trace defines dPerf's trace file format: the per-process
// event sequences that static analysis + block benchmarking produce
// and that trace-based simulation replays (paper §III-D: "traces
// contain computation time measured using hardware counters and
// expressed in nanoseconds, followed by relevant parameters for
// communication calls").
//
// The on-disk format is line oriented, one file per rank:
//
//	# dperf trace rank=0 of=4
//	compute 1250000
//	send 1 9600
//	recv 1 9600
//	conv
//	barrier
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind tags a record.
type Kind int

// Record kinds.
const (
	KindCompute Kind = iota
	KindSend
	KindRecv
	KindConv // global max-reduction + broadcast (convergence test)
	KindBarrier
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindConv:
		return "conv"
	case KindBarrier:
		return "barrier"
	}
	return "?"
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "compute":
		return KindCompute, nil
	case "send":
		return KindSend, nil
	case "recv":
		return KindRecv, nil
	case "conv":
		return KindConv, nil
	case "barrier":
		return KindBarrier, nil
	}
	return 0, fmt.Errorf("trace: unknown record kind %q", s)
}

// MarshalJSON encodes the kind by name, keeping serialized traces
// readable and independent of the constant ordering.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Record is one trace event.
type Record struct {
	Kind Kind `json:"kind"`
	// NS is computation time in nanoseconds (KindCompute).
	NS float64 `json:"ns,omitempty"`
	// Peer is the partner rank (send/recv).
	Peer int `json:"peer,omitempty"`
	// Bytes is the payload size on the wire (send/recv).
	Bytes float64 `json:"bytes,omitempty"`
}

// Trace is one rank's event sequence.
type Trace struct {
	Rank    int      `json:"rank"`
	Of      int      `json:"of"` // total ranks
	Records []Record `json:"records"`
}

// TotalComputeNS sums the compute records.
func (t *Trace) TotalComputeNS() float64 {
	var ns float64
	for _, r := range t.Records {
		if r.Kind == KindCompute {
			ns += r.NS
		}
	}
	return ns
}

// CountKind returns the number of records of a kind.
func (t *Trace) CountKind(k Kind) int {
	n := 0
	for _, r := range t.Records {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// Write serializes the trace in the text format.
func (t *Trace) Write(w io.Writer) error {
	tw := newTextWriter(w, t.Rank, t.Of)
	for _, r := range t.Records {
		if err := tw.record(r, 1); err != nil {
			return err
		}
	}
	return tw.bw.Flush()
}

// WriteText writes a rank's folded ops to w in the text format, one
// line per record they unfold to, walking the ops in order — the way
// to render a folded trace as text without materializing it.
func WriteText(w io.Writer, rank, of int, ops []Op) error {
	tw := newTextWriter(w, rank, of)
	if err := tw.ops(ops); err != nil {
		return err
	}
	return tw.bw.Flush()
}

// textWriter renders records in the text format, formatting each run's
// line once.
type textWriter struct {
	bw   *bufio.Writer
	line []byte
}

func newTextWriter(w io.Writer, rank, of int) *textWriter {
	tw := &textWriter{bw: bufio.NewWriter(w)}
	tw.bw.Write(AppendTextHeader(nil, rank, of))
	return tw
}

func (tw *textWriter) ops(ops []Op) error {
	for _, op := range ops {
		if len(op.Body) == 0 {
			if err := tw.record(op.Rec, op.Count); err != nil {
				return err
			}
			continue
		}
		for k := 0; k < op.Count; k++ {
			if err := tw.ops(op.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// record writes n copies of r's line.
func (tw *textWriter) record(r Record, n int) error {
	if n <= 0 {
		return nil
	}
	var err error
	if tw.line, err = AppendTextRecord(tw.line[:0], r); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := tw.bw.Write(tw.line); err != nil {
			return err
		}
	}
	return nil
}

// AppendTextHeader appends the header line that opens a rank's file
// in the text format.
func AppendTextHeader(b []byte, rank, of int) []byte {
	return fmt.Appendf(b, "# dperf trace rank=%d of=%d\n", rank, of)
}

// AppendTextRecord appends one record's line in the text format. It is
// the formatter WriteText uses, shared so a caller can size a text
// rendering without writing it.
func AppendTextRecord(b []byte, r Record) ([]byte, error) {
	switch r.Kind {
	case KindCompute:
		return fmt.Appendf(b, "compute %g\n", r.NS), nil
	case KindSend:
		return fmt.Appendf(b, "send %d %g\n", r.Peer, r.Bytes), nil
	case KindRecv:
		return fmt.Appendf(b, "recv %d %g\n", r.Peer, r.Bytes), nil
	case KindConv:
		return append(b, "conv\n"...), nil
	case KindBarrier:
		return append(b, "barrier\n"...), nil
	}
	return b, fmt.Errorf("trace: unknown record kind %d", r.Kind)
}

// Parse reads one trace file.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{Rank: -1}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Header comment: extract rank=X of=Y when present.
			for _, f := range strings.Fields(line) {
				if strings.HasPrefix(f, "rank=") {
					v, err := strconv.Atoi(strings.TrimPrefix(f, "rank="))
					if err == nil {
						t.Rank = v
					}
				}
				if strings.HasPrefix(f, "of=") {
					v, err := strconv.Atoi(strings.TrimPrefix(f, "of="))
					if err == nil {
						t.Of = v
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "compute":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'compute <ns>'", lineNo)
			}
			ns, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || !ValidQuantity(ns) {
				return nil, fmt.Errorf("trace: line %d: bad duration %q", lineNo, fields[1])
			}
			t.Records = append(t.Records, Record{Kind: KindCompute, NS: ns})
		case "send", "recv":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want '%s <peer> <bytes>'", lineNo, fields[0])
			}
			peer, err := strconv.Atoi(fields[1])
			if err != nil || peer < 0 {
				return nil, fmt.Errorf("trace: line %d: bad peer %q", lineNo, fields[1])
			}
			bytes, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || !ValidQuantity(bytes) {
				return nil, fmt.Errorf("trace: line %d: bad size %q", lineNo, fields[2])
			}
			k := KindSend
			if fields[0] == "recv" {
				k = KindRecv
			}
			t.Records = append(t.Records, Record{Kind: k, Peer: peer, Bytes: bytes})
		case "conv":
			t.Records = append(t.Records, Record{Kind: KindConv})
		case "barrier":
			t.Records = append(t.Records, Record{Kind: KindBarrier})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := CheckHeader(t.Rank, t.Of); err != nil {
		return nil, err
	}
	return t, nil
}

// CheckHeader validates a single trace file's own rank labels,
// independent of any surrounding set: a negative world size, or a
// declared rank outside the declared world (rank >= of when both are
// present), is inconsistent in every context. It is the shared header
// rule applied by the binary reader, the text parser, the directory
// loader and the single-file set loader, so no path accepts a file
// another would reject.
func CheckHeader(rank, of int) error {
	if of < 0 {
		return fmt.Errorf("trace: header claims %d total ranks", of)
	}
	if of > 0 && rank >= of {
		return fmt.Errorf("trace: header claims rank %d of %d total ranks", rank, of)
	}
	return nil
}

// ValidateLabel checks that slot i of an n-rank set carries its own
// rank label and agrees on the set's total (Of == 0, a headerless
// file, is tolerated). It is the single labeling rule shared by the
// set loaders.
func ValidateLabel(i, n, rank, of int) error {
	if err := CheckHeader(rank, of); err != nil {
		return err
	}
	if rank != i {
		return fmt.Errorf("trace: rank %d file claims rank %d", i, rank)
	}
	if of != 0 && of != n {
		return fmt.Errorf("trace: rank %d claims %d total ranks, set has %d", i, of, n)
	}
	return nil
}
