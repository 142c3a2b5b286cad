// Binary template format: version 2 of the "dptb" stream. Where a v1
// file carries one rank's folded ops, a v2 file carries a whole
// factored set — role bodies with affine peers/counts/guards and
// parameter references, plus the binding classes:
//
//	file    := magic uvarint(2) uvarint(world)
//	           uvarint(nroles) role*
//	           uvarint(nclasses) class*
//	role    := uvarint(nops) top*
//	top     := uvarint(tag) uvarint(flags) count guard? payload
//	tag     := kind+1 in 1..5 (leaf) | 6 (repeat) | 7 (role ref)
//	flags   := bit0 count is affine, bit1 guards present,
//	           bit2 peer is affine (send/recv), bit3 float is a
//	           parameter reference (NS for compute, bytes for
//	           send/recv)
//	count   := affine | uvarint
//	guard   := uvarint(n in 1..4) affine^n
//	payload := compute: uvarint(param) | f2(ns)
//	         | send/recv: (affine | uvarint)(peer)
//	                      (uvarint(param) | f2)(bytes)
//	         | conv/barrier: ε
//	         | repeat: uvarint(len(body)) top^len(body)
//	         | ref: uvarint(role+1), strictly lower-numbered role
//	class   := uvarint(sel in 0..3) [sel=list: uvarint(n)
//	           uvarint(rank)^n, strictly increasing] uvarint(role)
//	           uvarint(nparams) fd^nparams
//	affine  := varint(C0) varint(CR) varint(CW)  (zigzag, signed)
//	f2      := uvarint u: u even -> u/2
//	         | u=1 -> 8 IEEE-754 bytes, little endian
//	         | u=3 -> uvarint k, value k/6
//	fd      := f2
//	         | u=5 -> varint(d), value = previous integral value in
//	           the same parameter vector + d (delta arm)
//
// The f2 sixths arm exists because compute durations are integral or
// half-integral cycle counts at a 3 GHz virtual clock — k/6
// nanosecond values that the v1 hybrid float encoding always spills
// to 9 raw bytes. The encoder uses it only when float64(k)/6
// reproduces the value bit for bit, so f2 round trips exactly like v1
// floats. v1 streams are untouched; the arm is a v2-only addition.
//
// Class parameter vectors use fd: f2 plus a delta-from-previous arm.
// When a parameter and the last integral parameter before it in the
// same vector are both non-negative integers, the signed difference
// is written instead of the value whenever its varint is strictly
// shorter. Heterogeneous (non-foldable) compute payloads — many
// distinct whole-nanosecond durations of similar magnitude in one
// binding vector — are the target: each 4–5 byte duration shrinks to
// a 1–3 byte delta. Both arms reproduce the value bit for bit, and
// the encoder falls back to the plain arm whenever the delta does not
// win, so vectors the arm cannot shrink encode byte-identically to
// the original v2 stream. Readers predating the arm reject marker 5
// cleanly as a bad float marker.
//
// Decoding enforces the same sanity limits as the v1 reader plus the
// template-specific ones (role references must point at
// lower-numbered roles — a self or forward reference, the encoding's
// only way to spell a cycle, is rejected; affine coefficients are
// bounded; bindings are validated for exactly-one coverage), so
// hostile files error instead of panicking or over-allocating.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// templateVersion is the "dptb" stream version carrying a template.
const templateVersion = 2

func appendAffine(b []byte, a Affine) []byte {
	b = binary.AppendVarint(b, a.C0)
	b = binary.AppendVarint(b, a.CR)
	return binary.AppendVarint(b, a.CW)
}

func readAffine(br *bufio.Reader, what string) (Affine, error) {
	var a Affine
	for i, dst := range [3]*int64{&a.C0, &a.CR, &a.CW} {
		v, err := binary.ReadVarint(br)
		if err != nil {
			return Affine{}, fmt.Errorf("trace: reading %s coefficient %d: %w", what, i, err)
		}
		*dst = v
	}
	if err := a.CheckCoeffs(); err != nil {
		return Affine{}, fmt.Errorf("trace: %s: %w", what, err)
	}
	return a, nil
}

// appendFloat2 is the v2 float encoding: the v1 hybrid plus the
// sixths arm for cycle-derived durations (integral or half-integral
// cycle counts at the 3 GHz virtual clock are k/6 nanosecond values).
func appendFloat2(b []byte, v float64) []byte {
	if v >= 0 && v < (1<<62) && v == math.Trunc(v) && !math.Signbit(v) {
		return binary.AppendUvarint(b, uint64(v)<<1)
	}
	if t := v * 6; v > 0 && t == math.Trunc(t) && t < (1<<53) {
		if k := uint64(t); float64(k)/6 == v {
			b = binary.AppendUvarint(b, 3)
			return binary.AppendUvarint(b, k)
		}
	}
	b = binary.AppendUvarint(b, 1)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func readFloat2(br *bufio.Reader, what string) (float64, error) {
	u, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	if u&1 == 0 {
		return float64(u >> 1), nil
	}
	return readFloat2Arm(br, u, what)
}

// readFloat2Arm decodes the odd-marker f2 arms with the marker
// already consumed.
func readFloat2Arm(br *bufio.Reader, u uint64, what string) (float64, error) {
	switch u {
	case 1:
		var raw [8]byte
		if _, err := io.ReadFull(br, raw[:]); err != nil {
			return 0, fmt.Errorf("trace: reading %s: %w", what, err)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:])), nil
	case 3:
		k, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("trace: reading %s: %w", what, err)
		}
		if k >= 1<<53 {
			return 0, fmt.Errorf("trace: %s sixths numerator %d out of range", what, k)
		}
		return float64(k) / 6, nil
	}
	return 0, fmt.Errorf("trace: bad float marker %d in %s", u, what)
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func varintLen(d int64) int {
	ux := uint64(d) << 1
	if d < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// floatChain threads the fd delta arm's state — the last integral
// value — through one class parameter vector. Writer and reader walk
// a vector with matching chains: a value carried by the plain
// integral arm or the delta arm advances the state on both sides,
// while the raw and sixths arms (which the writer never uses for
// integral values) leave it untouched.
type floatChain struct {
	prev  uint64
	valid bool
}

// append encodes v with the f2 arms plus the delta arm, taking the
// delta only when its encoding is strictly shorter than the plain
// integral arm — ties keep the original v2 bytes.
func (c *floatChain) append(b []byte, v float64) []byte {
	if v >= 0 && v < (1<<62) && v == math.Trunc(v) && !math.Signbit(v) {
		u := uint64(v)
		if c.valid {
			if d := int64(u - c.prev); 1+varintLen(d) < uvarintLen(u<<1) {
				c.prev = u
				b = binary.AppendUvarint(b, 5)
				return binary.AppendVarint(b, d)
			}
		}
		c.prev, c.valid = u, true
		return binary.AppendUvarint(b, u<<1)
	}
	return appendFloat2(b, v)
}

func (c *floatChain) read(br *bufio.Reader, what string) (float64, error) {
	u, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	if u&1 == 0 {
		v := u >> 1
		if v < 1<<62 {
			c.prev, c.valid = v, true
		}
		return float64(v), nil
	}
	if u == 5 {
		if !c.valid {
			return 0, fmt.Errorf("trace: %s delta with no previous integral value", what)
		}
		d, err := binary.ReadVarint(br)
		if err != nil {
			return 0, fmt.Errorf("trace: reading %s delta: %w", what, err)
		}
		// Unsigned wraparound sends both overflow and underflow far
		// above the integral arm's 2^62 ceiling.
		v := c.prev + uint64(d)
		if v >= 1<<62 {
			return 0, fmt.Errorf("trace: %s delta %d leaves the integral range", what, d)
		}
		c.prev = v
		return float64(v), nil
	}
	return readFloat2Arm(br, u, what)
}

// top flag bits.
const (
	tflagCountAffine = 1 << 0
	tflagGuards      = 1 << 1
	tflagPeerAffine  = 1 << 2
	tflagFloatParam  = 1 << 3
)

func appendTOp(b []byte, op *TOp) []byte {
	tag := uint64(6)
	switch {
	case op.Ref != 0:
		tag = 7
	case len(op.Body) > 0:
		tag = 6
	default:
		tag = uint64(op.Kind) + 1
	}
	b = binary.AppendUvarint(b, tag)
	var flags uint64
	if !op.Count.IsConst() {
		flags |= tflagCountAffine
	}
	if len(op.Guard) > 0 {
		flags |= tflagGuards
	}
	if tag >= 2 && tag <= 3 && !op.Peer.IsConst() { // send/recv
		flags |= tflagPeerAffine
	}
	if (tag == 1 && op.NS.Param != 0) || (tag >= 2 && tag <= 3 && op.Bytes.Param != 0) {
		flags |= tflagFloatParam
	}
	b = binary.AppendUvarint(b, flags)
	if flags&tflagCountAffine != 0 {
		b = appendAffine(b, op.Count)
	} else {
		b = binary.AppendUvarint(b, uint64(op.Count.C0))
	}
	if flags&tflagGuards != 0 {
		b = binary.AppendUvarint(b, uint64(len(op.Guard)))
		for _, g := range op.Guard {
			b = appendAffine(b, g)
		}
	}
	switch tag {
	case 1: // compute
		if flags&tflagFloatParam != 0 {
			b = binary.AppendUvarint(b, uint64(op.NS.Param))
		} else {
			b = appendFloat2(b, op.NS.Const)
		}
	case 2, 3: // send/recv
		if flags&tflagPeerAffine != 0 {
			b = appendAffine(b, op.Peer)
		} else {
			b = binary.AppendUvarint(b, uint64(op.Peer.C0))
		}
		if flags&tflagFloatParam != 0 {
			b = binary.AppendUvarint(b, uint64(op.Bytes.Param))
		} else {
			b = appendFloat2(b, op.Bytes.Const)
		}
	case 6:
		b = binary.AppendUvarint(b, uint64(len(op.Body)))
		for i := range op.Body {
			b = appendTOp(b, &op.Body[i])
		}
	case 7:
		b = binary.AppendUvarint(b, uint64(op.Ref))
	}
	return b
}

// WriteTemplate serializes the template as a version-2 "dptb" stream.
// The template must validate; Factor output always does.
func (t *Template) WriteTemplate(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	b := make([]byte, 0, 256)
	b = append(b, Magic...)
	b = binary.AppendUvarint(b, templateVersion)
	b = binary.AppendUvarint(b, uint64(t.World))
	b = binary.AppendUvarint(b, uint64(len(t.Roles)))
	for _, role := range t.Roles {
		b = binary.AppendUvarint(b, uint64(len(role)))
		for i := range role {
			b = appendTOp(b, &role[i])
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.Classes)))
	for ci := range t.Classes {
		c := &t.Classes[ci]
		b = binary.AppendUvarint(b, uint64(c.Sel))
		if c.Sel == SelList {
			b = binary.AppendUvarint(b, uint64(len(c.Ranks)))
			for _, r := range c.Ranks {
				b = binary.AppendUvarint(b, uint64(r))
			}
		}
		b = binary.AppendUvarint(b, uint64(c.Role))
		b = binary.AppendUvarint(b, uint64(len(c.Params)))
		var pc floatChain
		for _, p := range c.Params {
			b = pc.append(b, p)
		}
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
}

// maxTemplateParams bounds one class's parameter vector.
const maxTemplateParams = 1 << 16

func readTOp(br *bufio.Reader, role, depth int) (TOp, error) {
	if depth > maxBinaryDepth {
		return TOp{}, fmt.Errorf("trace: template nesting deeper than %d", maxBinaryDepth)
	}
	tag, err := binary.ReadUvarint(br)
	if err != nil {
		return TOp{}, fmt.Errorf("trace: reading template op tag: %w", err)
	}
	if tag < 1 || tag > 7 {
		return TOp{}, fmt.Errorf("trace: unknown template op tag %d", tag)
	}
	flags, err := binary.ReadUvarint(br)
	if err != nil {
		return TOp{}, fmt.Errorf("trace: reading template op flags: %w", err)
	}
	if flags > tflagCountAffine|tflagGuards|tflagPeerAffine|tflagFloatParam {
		return TOp{}, fmt.Errorf("trace: unknown template op flags %#x", flags)
	}
	var op TOp
	if flags&tflagCountAffine != 0 {
		if op.Count, err = readAffine(br, "count"); err != nil {
			return TOp{}, err
		}
	} else {
		c, err := readBoundedUvarint(br, maxBinaryCount, "template count")
		if err != nil {
			return TOp{}, err
		}
		op.Count = AffineConst(c)
	}
	if flags&tflagGuards != 0 {
		ng, err := readBoundedUvarint(br, maxTemplateGuards, "guard count")
		if err != nil {
			return TOp{}, err
		}
		if ng < 1 {
			return TOp{}, fmt.Errorf("trace: empty guard list")
		}
		for i := int64(0); i < ng; i++ {
			g, err := readAffine(br, "guard")
			if err != nil {
				return TOp{}, err
			}
			op.Guard = append(op.Guard, g)
		}
	}
	switch tag {
	case 6: // repeat
		nops, err := readBoundedUvarint(br, maxBinaryBody, "template body length")
		if err != nil {
			return TOp{}, err
		}
		if nops < 1 {
			return TOp{}, fmt.Errorf("trace: empty template repeat body")
		}
		op.Body = make([]TOp, 0, min(int(nops), 1024))
		for i := int64(0); i < nops; i++ {
			sub, err := readTOp(br, role, depth+1)
			if err != nil {
				return TOp{}, err
			}
			op.Body = append(op.Body, sub)
		}
	case 7: // role reference
		ref, err := readBoundedUvarint(br, maxTemplateRoles, "role reference")
		if err != nil {
			return TOp{}, err
		}
		// References must point strictly at lower-numbered roles; a
		// self or forward reference is the only way the encoding could
		// spell a cycle and is rejected here.
		if ref < 1 || int(ref-1) >= role {
			return TOp{}, fmt.Errorf("trace: role %d references role %d (cyclic or forward role reference)", role, ref-1)
		}
		op.Ref = int(ref)
	default: // leaf
		op.Kind = Kind(tag - 1)
		switch op.Kind {
		case KindCompute:
			if flags&tflagFloatParam != 0 {
				p, err := readBoundedUvarint(br, maxTemplateParams, "ns parameter")
				if err != nil {
					return TOp{}, err
				}
				if p < 1 {
					return TOp{}, fmt.Errorf("trace: zero ns parameter reference")
				}
				op.NS = FloatRef{Param: int(p)}
			} else {
				ns, err := readFloat2(br, "compute ns")
				if err != nil {
					return TOp{}, err
				}
				if !ValidQuantity(ns) {
					return TOp{}, fmt.Errorf("trace: bad template compute duration %v", ns)
				}
				op.NS = FConst(ns)
			}
		case KindSend, KindRecv:
			if flags&tflagPeerAffine != 0 {
				if op.Peer, err = readAffine(br, "peer"); err != nil {
					return TOp{}, err
				}
			} else {
				p, err := readBoundedUvarint(br, maxBinaryPeer, "template peer")
				if err != nil {
					return TOp{}, err
				}
				op.Peer = AffineConst(p)
			}
			if flags&tflagFloatParam != 0 {
				p, err := readBoundedUvarint(br, maxTemplateParams, "bytes parameter")
				if err != nil {
					return TOp{}, err
				}
				if p < 1 {
					return TOp{}, fmt.Errorf("trace: zero bytes parameter reference")
				}
				op.Bytes = FloatRef{Param: int(p)}
			} else {
				bs, err := readFloat2(br, "payload bytes")
				if err != nil {
					return TOp{}, err
				}
				if !ValidQuantity(bs) {
					return TOp{}, fmt.Errorf("trace: bad template payload size %v", bs)
				}
				op.Bytes = FConst(bs)
			}
		}
	}
	return op, nil
}

// ReadTemplate decodes a version-2 "dptb" stream (header included)
// and validates the template. Hostile inputs — truncated bindings,
// cyclic role references, out-of-range affine coefficients — error;
// the decoder never panics and never allocates beyond the input size.
func ReadTemplate(r io.Reader) (*Template, error) {
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
	if version != templateVersion {
		return nil, fmt.Errorf("trace: binary version %d, want %d (template)", version, templateVersion)
	}
	return readTemplateBody(br)
}

// readTemplateBody decodes everything after the magic+version prefix.
func readTemplateBody(br *bufio.Reader) (*Template, error) {
	world, err := readBoundedUvarint(br, maxTemplateWorld, "template world")
	if err != nil {
		return nil, err
	}
	if world < 1 {
		return nil, fmt.Errorf("trace: template world size %d", world)
	}
	nroles, err := readBoundedUvarint(br, maxTemplateRoles, "role count")
	if err != nil {
		return nil, err
	}
	t := &Template{World: int(world)}
	for ri := int64(0); ri < nroles; ri++ {
		nops, err := readBoundedUvarint(br, maxBinaryBody, "role length")
		if err != nil {
			return nil, err
		}
		role := make([]TOp, 0, min(int(nops), 1024))
		for i := int64(0); i < nops; i++ {
			op, err := readTOp(br, int(ri), 0)
			if err != nil {
				return nil, err
			}
			role = append(role, op)
		}
		t.Roles = append(t.Roles, role)
	}
	nclasses, err := readBoundedUvarint(br, maxTemplateWorld+2, "class count")
	if err != nil {
		return nil, err
	}
	for ci := int64(0); ci < nclasses; ci++ {
		var c Class
		sel, err := readBoundedUvarint(br, int64(SelInterior), "class selector")
		if err != nil {
			return nil, err
		}
		c.Sel = RankSel(sel)
		if c.Sel == SelList {
			n, err := readBoundedUvarint(br, world, "class rank count")
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("trace: class %d has an empty rank list", ci)
			}
			prev := int64(-1)
			for i := int64(0); i < n; i++ {
				r, err := readBoundedUvarint(br, world-1, "class rank")
				if err != nil {
					return nil, err
				}
				if r <= prev {
					return nil, fmt.Errorf("trace: class %d rank list not strictly increasing", ci)
				}
				prev = r
				c.Ranks = append(c.Ranks, int(r))
			}
		}
		role, err := readBoundedUvarint(br, maxTemplateRoles, "class role")
		if err != nil {
			return nil, err
		}
		c.Role = int(role)
		nparams, err := readBoundedUvarint(br, maxTemplateParams, "class parameter count")
		if err != nil {
			return nil, err
		}
		var pc floatChain
		for i := int64(0); i < nparams; i++ {
			v, err := pc.read(br, "class parameter")
			if err != nil {
				// A short read here is the classic truncated-bindings
				// hostile input; surface it as such.
				return nil, fmt.Errorf("trace: truncated template bindings: %w", err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("trace: template parameter %v out of range", v)
			}
			c.Params = append(c.Params, v)
		}
		t.Classes = append(t.Classes, c)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing data after template")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
