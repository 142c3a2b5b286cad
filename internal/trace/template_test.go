package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTestReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// makeStripTrace builds one rank's flat trace of a synthetic strip
// decomposition: a warm-up compute, then rounds of
// [compute, ghost exchange with line neighbours, conv]. Per-role
// compute durations come from ns (first, interior, last).
func makeStripTrace(rank, n, rounds int, ns [3]float64, bytes float64) *Trace {
	role := 1
	if rank == 0 {
		role = 0
	} else if rank == n-1 {
		role = 2
	}
	t := &Trace{Rank: rank, Of: n}
	add := func(r Record) { t.Records = append(t.Records, r) }
	add(Record{Kind: KindCompute, NS: ns[role] * 2}) // warm-up
	for i := 0; i < rounds; i++ {
		add(Record{Kind: KindCompute, NS: ns[role]})
		if rank > 0 {
			add(Record{Kind: KindSend, Peer: rank - 1, Bytes: bytes})
		}
		if rank < n-1 {
			add(Record{Kind: KindSend, Peer: rank + 1, Bytes: bytes})
		}
		if rank > 0 {
			add(Record{Kind: KindRecv, Peer: rank - 1, Bytes: bytes})
		}
		if rank < n-1 {
			add(Record{Kind: KindRecv, Peer: rank + 1, Bytes: bytes})
		}
		add(Record{Kind: KindConv})
	}
	add(Record{Kind: KindCompute, NS: 1250})
	return t
}

func makeStripSet(n, rounds int, ns [3]float64, bytes float64) []*Folded {
	fs := make([]*Folded, n)
	for r := 0; r < n; r++ {
		fs[r] = Fold(makeStripTrace(r, n, rounds, ns, bytes))
	}
	return fs
}

// 7.65e7/3-style values exercise the thirds float arm.
var stripNS = [3]float64{1.0e6 / 3, 1.3e6 / 3, 1.1e6 / 3}

func instantiateEqual(t *testing.T, tpl *Template, fs []*Folded) {
	t.Helper()
	got, err := tpl.Instantiate()
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	if len(got) != len(fs) {
		t.Fatalf("Instantiate returned %d ranks, want %d", len(got), len(fs))
	}
	for r := range fs {
		if !opsEqual(got[r].Ops, fs[r].Ops) {
			t.Fatalf("rank %d: instantiated ops differ from source", r)
		}
		a, err := got[r].Unfold()
		if err != nil {
			t.Fatalf("rank %d unfold: %v", r, err)
		}
		b, err := fs[r].Unfold()
		if err != nil {
			t.Fatalf("rank %d unfold: %v", r, err)
		}
		if len(a.Records) != len(b.Records) {
			t.Fatalf("rank %d: %d records != %d", r, len(a.Records), len(b.Records))
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("rank %d record %d: %+v != %+v", r, i, a.Records[i], b.Records[i])
			}
		}
	}
}

// TestTemplateFactorStripUnifies asserts the strip pattern factors
// into a single guarded role: the cross-rank dedup the template layer
// exists for.
func TestTemplateFactorStripUnifies(t *testing.T) {
	fs := makeStripSet(8, 20, stripNS, 9600)
	tpl, err := Factor(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tpl.Roles) != 1 {
		t.Fatalf("strip set factored into %d roles, want 1", len(tpl.Roles))
	}
	sels := map[RankSel]int{}
	for _, c := range tpl.Classes {
		sels[c.Sel]++
	}
	if sels[SelFirst] != 1 || sels[SelLast] != 1 || sels[SelInterior] != 1 || sels[SelList] != 0 {
		t.Fatalf("unexpected class selectors %v", sels)
	}
	instantiateEqual(t, tpl, fs)
	// The factored artifact must be strictly smaller than the
	// per-rank ops it replaces.
	perRank := 0
	for _, f := range fs {
		perRank += f.NumOps()
	}
	if tpl.NumOps()*2 >= perRank {
		t.Fatalf("template has %d ops vs %d per-rank ops: expected >2x dedup", tpl.NumOps(), perRank)
	}
}

// TestTemplateFactorHeterogeneous asserts exactness when nothing can
// be shared: every rank structurally different.
func TestTemplateFactorHeterogeneous(t *testing.T) {
	n := 5
	fs := make([]*Folded, n)
	for r := 0; r < n; r++ {
		tr := &Trace{Rank: r, Of: n}
		for i := 0; i <= r; i++ {
			tr.Records = append(tr.Records, Record{Kind: KindCompute, NS: float64(100*r + i)})
			tr.Records = append(tr.Records, Record{Kind: KindBarrier})
		}
		fs[r] = Fold(tr)
	}
	tpl, err := Factor(fs)
	if err != nil {
		t.Fatal(err)
	}
	instantiateEqual(t, tpl, fs)
}

// TestTemplateFactorRoundTripRandom is the property test: randomized
// synthetic workloads across rank counts 2..16 must factor and
// re-instantiate record for record, bit for bit.
func TestTemplateFactorRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(15)
		rounds := 1 + rng.Intn(12)
		fs := make([]*Folded, n)
		mode := rng.Intn(3)
		ns := [3]float64{
			float64(rng.Intn(1_000_000)) / 3,
			float64(rng.Intn(1_000_000)) + 0.5,
			float64(rng.Intn(1_000_000)),
		}
		byteSz := float64(1 + rng.Intn(100_000))
		for r := 0; r < n; r++ {
			var tr *Trace
			switch mode {
			case 0: // strip pattern with shared values
				tr = makeStripTrace(r, n, rounds, ns, byteSz)
			case 1: // strip pattern with per-rank compute values
				perRank := ns
				perRank[1] += float64(r)
				tr = makeStripTrace(r, n, rounds, perRank, byteSz)
			default: // unstructured per-rank noise, still a valid shape
				tr = &Trace{Rank: r, Of: n}
				for i := 0; i < rounds; i++ {
					tr.Records = append(tr.Records, Record{Kind: KindCompute, NS: rng.Float64() * 1e6})
					if rng.Intn(2) == 0 {
						tr.Records = append(tr.Records, Record{Kind: KindBarrier})
					}
					tr.Records = append(tr.Records, Record{Kind: KindConv})
				}
			}
			fs[r] = Fold(tr)
		}
		tpl, err := Factor(fs)
		if err != nil {
			t.Fatalf("trial %d (mode %d, n=%d): %v", trial, mode, n, err)
		}
		instantiateEqual(t, tpl, fs)
		// The binary form must round trip the template exactly.
		var buf bytes.Buffer
		if err := tpl.WriteTemplate(&buf); err != nil {
			t.Fatalf("trial %d: WriteTemplate: %v", trial, err)
		}
		back, err := ReadTemplate(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: ReadTemplate: %v", trial, err)
		}
		instantiateEqual(t, back, fs)
	}
}

// TestTemplateRoleRefs exercises hand-built role references: shared
// sub-bodies inlined by reference, with affine counts and guards.
func TestTemplateRoleRefs(t *testing.T) {
	spine := []TOp{
		{Count: AffineConst(1), Kind: KindCompute, NS: FParam(0)},
		{Count: AffineConst(1), Kind: KindConv},
	}
	tpl := &Template{
		World: 6,
		Roles: [][]TOp{
			spine,
			{
				{Count: Affine{C0: 2, CR: 1}, Ref: 1}, // rank+2 inlined spines
				{Count: AffineConst(1), Guard: []Affine{GuardNotFirst}, Kind: KindSend, Peer: Affine{C0: -1, CR: 1}, Bytes: FConst(64)},
				{Count: AffineConst(1), Guard: []Affine{GuardNotFirst}, Kind: KindRecv, Peer: Affine{C0: -1, CR: 1}, Bytes: FConst(64)},
				{Count: AffineConst(1), Guard: []Affine{GuardNotLast}, Kind: KindSend, Peer: Affine{C0: 1, CR: 1}, Bytes: FConst(64)},
				{Count: AffineConst(1), Guard: []Affine{GuardNotLast}, Kind: KindRecv, Peer: Affine{C0: 1, CR: 1}, Bytes: FConst(64)},
			},
		},
		Classes: []Class{
			{Sel: SelFirst, Role: 1, Params: []float64{100.5}},
			{Sel: SelInterior, Role: 1, Params: []float64{200.25}},
			{Sel: SelLast, Role: 1, Params: []float64{300}},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	ops, err := tpl.InstantiateRank(2)
	if err != nil {
		t.Fatal(err)
	}
	// rank 2: 4 spine repetitions then the four exchanges.
	want := []Op{
		{Count: 4, Body: []Op{
			{Count: 1, Rec: Record{Kind: KindCompute, NS: 200.25}},
			{Count: 1, Rec: Record{Kind: KindConv}},
		}},
		{Count: 1, Rec: Record{Kind: KindSend, Peer: 1, Bytes: 64}},
		{Count: 1, Rec: Record{Kind: KindRecv, Peer: 1, Bytes: 64}},
		{Count: 1, Rec: Record{Kind: KindSend, Peer: 3, Bytes: 64}},
		{Count: 1, Rec: Record{Kind: KindRecv, Peer: 3, Bytes: 64}},
	}
	if !opsEqual(ops, want) {
		t.Fatalf("rank 2 ops = %+v, want %+v", ops, want)
	}
	// Binary round trip preserves refs, guards and affine counts.
	var buf bytes.Buffer
	if err := tpl.WriteTemplate(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTemplate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tpl, back) {
		t.Fatalf("template round trip diverged:\n%+v\n%+v", tpl, back)
	}
	// The decoded template instantiates the same 12 records.
	ops, err = back.InstantiateRank(2)
	if err != nil {
		t.Fatal(err)
	}
	if n := (&Folded{Ops: ops}).NumRecords(); n != 12 {
		t.Fatalf("decoded template instantiated %d records, want 12", n)
	}
}

// TestTemplateRefChainBounded: a valid, acyclic chain of roles each
// referencing the previous one twice expands exponentially if walked
// per occurrence; validation must reject it in linear time instead of
// hanging (the decoder's hostile-input guarantee).
func TestTemplateRefChainBounded(t *testing.T) {
	const depth = 64
	tpl := &Template{World: 2, Roles: [][]TOp{
		{{Count: AffineConst(1), Kind: KindConv}},
	}}
	for i := 1; i < depth; i++ {
		tpl.Roles = append(tpl.Roles, []TOp{
			{Count: AffineConst(1), Ref: i},
			{Count: AffineConst(1), Ref: i},
		})
	}
	tpl.Classes = []Class{
		{Sel: SelFirst, Role: depth - 1},
		{Sel: SelLast, Role: depth - 1},
	}
	done := make(chan error, 1)
	go func() { done <- tpl.Validate() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("exponentially expanding role chain validated")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Validate hung on a role-reference chain")
	}
	// A modest chain stays usable: parameters and sizes resolve
	// through references in linear time.
	small := &Template{World: 2, Roles: [][]TOp{
		{{Count: AffineConst(1), Kind: KindCompute, NS: FParam(0)}},
	}}
	for i := 1; i < 12; i++ {
		small.Roles = append(small.Roles, []TOp{
			{Count: AffineConst(1), Ref: i},
			{Count: AffineConst(1), Ref: i},
		})
	}
	small.Classes = []Class{
		{Sel: SelFirst, Role: 11, Params: []float64{7}},
		{Sel: SelLast, Role: 11, Params: []float64{9}},
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("modest ref chain rejected: %v", err)
	}
	// Missing the parameter the chain bottoms out in must be caught
	// through the references.
	small.Classes[0].Params = nil
	if err := small.Validate(); err == nil {
		t.Fatal("missing parameter behind a ref chain validated")
	}
}

// TestTemplateValidateSourceBounded: cross-rank validation of an
// instantiated template must be structural (multiplicities), not
// iterated — a tiny template whose nested repeats imply ~2^80 records
// has to be rejected in O(ops).
func TestTemplateValidateSourceBounded(t *testing.T) {
	tpl := &Template{
		World: 2,
		Roles: [][]TOp{{
			{Count: AffineConst(maxBinaryCount), Body: []TOp{
				{Count: AffineConst(maxBinaryCount), Body: []TOp{
					{Count: AffineConst(1), Kind: KindConv},
				}},
			}},
		}},
		Classes: []Class{
			{Sel: SelFirst, Role: 0},
			{Sel: SelLast, Role: 0},
		},
	}
	fs, err := tpl.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ValidateSource(FoldedSource(fs)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("astronomical repeat counts validated")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ValidateSource iterated a hostile template instead of walking its ops")
	}
}

// hand-rolled template stream builder for hostile-input tests.
type tb struct{ b []byte }

func newTB(world, nroles uint64) *tb {
	t := &tb{}
	t.b = append(t.b, Magic...)
	t.u(templateVersion)
	t.u(world)
	t.u(nroles)
	return t
}
func (t *tb) u(v uint64) *tb { t.b = binary.AppendUvarint(t.b, v); return t }
func (t *tb) v(v int64) *tb  { t.b = binary.AppendVarint(t.b, v); return t }
func (t *tb) bytes() []byte  { return t.b }

// TestTemplateHostileInputs: corrupted or adversarial v2 streams must
// error — never panic, never over-allocate.
func TestTemplateHostileInputs(t *testing.T) {
	valid := func() []byte {
		tpl, err := Factor(makeStripSet(6, 4, stripNS, 64))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tpl.WriteTemplate(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty":               {},
		"magic only":          []byte(Magic),
		"truncated header":    valid[:6],
		"truncated roles":     valid[:len(valid)/2],
		"truncated bindings":  valid[:len(valid)-3],
		"trailing data":       append(append([]byte{}, valid...), 0),
		"self role ref":       newTB(4, 1).u(1).u(7).u(0).u(1).u(1).bytes(),            // role 0 op: tag=7 flags=0 count=1 ref=1 -> role 0
		"forward role ref":    newTB(4, 2).u(1).u(7).u(0).u(1).u(2).bytes(),            // role 0 references role 1
		"affine overflow":     newTB(4, 1).u(1).u(1).u(1).v(1 << 50).v(0).v(0).bytes(), // count affine C0=2^50
		"guard overflow":      newTB(4, 1).u(1).u(1).u(2).u(1).u(1).v(0).v(-(1 << 41)).v(0).bytes(),
		"too many guards":     newTB(4, 1).u(1).u(1).u(2).u(1).u(9).bytes(),
		"bad op tag":          newTB(4, 1).u(1).u(9).bytes(),
		"bad flags":           newTB(4, 1).u(1).u(1).u(1 << 6).bytes(),
		"huge world":          newTB(1<<30, 0).u(0).bytes(),
		"zero param ref":      newTB(4, 1).u(1).u(1).u(8).u(1).u(0).bytes(), // compute with param index 0
		"bad selector":        newTB(2, 0).u(1).u(7).bytes(),
		"class rank overflow": newTB(4, 0).u(1).u(0).u(2).u(0).u(9).bytes(),
		"no coverage":         newTB(4, 1).u(0).u(0).bytes(), // no classes at all
		"double coverage":     newTB(4, 0).u(2).u(1).u(0).u(0).u(1).u(0).u(0).bytes(),
		"param underflow":     newTB(4, 1).u(1).u(1).u(8).u(1).u(3).u(3).u(1).u(0).u(0).u(2).u(0).u(0).u(3).u(0).u(0).bytes(),
		"delta first param":   newTB(4, 0).u(1).u(1).u(0).u(1).u(5).v(3).bytes(),       // fd delta with no previous value
		"delta out of range":  newTB(4, 0).u(1).u(1).u(0).u(2).u(2).u(5).v(-5).bytes(), // 1 + (-5) leaves the integral range
	}
	for name, data := range cases {
		if _, err := ReadTemplate(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
	// Selector bit 3 once introduced per-class slopes and a scale-units
	// trailer. No writer emits it, so a stream carrying that arm is
	// rejected at its selector, however well formed the rest is.
	affineArm := newTB(2, 1).u(1).u(1).u(8).u(1).u(1) // role 0: compute, NS = param 0
	affineArm.u(2)
	for _, sel := range []RankSel{SelFirst, SelLast} {
		// selector|bit 3, role 0, params {100}, slopes {1}, residual 0
		affineArm.u(uint64(sel) | 8).u(0).u(1).u(200).u(2).u(0)
	}
	affineArm.u(16) // scale units
	if _, err := ReadTemplate(bytes.NewReader(affineArm.bytes())); err == nil || !strings.Contains(err.Error(), "class selector") {
		t.Errorf("selector bit 3: got error %v, want one naming the class selector", err)
	}
	// The valid stream itself decodes.
	if _, err := ReadTemplate(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
}

// TestFloat2RoundTrip checks the v2 float arms, the thirds arm in
// particular, are exact.
func TestFloat2RoundTrip(t *testing.T) {
	vals := []float64{0, 1, 0.5, 1e6 / 3, 7.65e7 / 3, 1.0 / 3, 2.0 / 3, 1e300, 1e-300, 4503599627370495.0 / 3, math.Pi}
	for _, v := range vals {
		b := appendFloat2(nil, v)
		br := newTestReader(b)
		got, err := readFloat2(br, "test")
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("float2 round trip %v -> %v", v, got)
		}
	}
	// Thirds values must be strictly smaller than the raw arm.
	if n := len(appendFloat2(nil, 1e6/3)); n >= 9 {
		t.Fatalf("thirds arm not engaged: %d bytes", n)
	}
}

// TestReaderHeaderValidation covers the unified header rule on every
// load path (satellite fix): a file whose declared rank lies outside
// its declared world must be rejected by the binary reader, the text
// parser and the directory loader alike.
func TestReaderHeaderValidation(t *testing.T) {
	// Binary path: rank 3 of 2 is nonsense.
	var buf bytes.Buffer
	bad := &Folded{Rank: 3, Of: 2, Ops: []Op{{Count: 1, Rec: Record{Kind: KindBarrier}}}}
	if err := bad.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("binary reader accepted rank 3 of 2")
	}
	// Text path: same header rule.
	if _, err := Parse(bytes.NewReader([]byte("# dperf trace rank=4 of=4\nconv\n"))); err == nil {
		t.Fatal("text parser accepted rank 4 of 4")
	}
	// Consistent headers still load everywhere.
	buf.Reset()
	good := &Folded{Rank: 1, Of: 4, Ops: []Op{{Count: 1, Rec: Record{Kind: KindBarrier}}}}
	if err := good.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}
