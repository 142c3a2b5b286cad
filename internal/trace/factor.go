// Factoring: from a concrete folded set to a rank-parameterized
// template. The discovery pipeline tries progressively less shared
// layouts and verifies each candidate by full re-instantiation, so
// Factor is exact by construction:
//
//  1. guarded unification — the strip-decomposition pattern: one role
//     body serves every rank, boundary-only ops carry rank guards,
//     peers are affine in rank, differing floats become binding
//     parameters;
//  2. grouped roles — one role per maximal run of structurally equal
//     ranks, still with affine peers and float parameters;
//  3. per-rank roles — the trivial lossless fallback.
package trace

import (
	"fmt"
	"math"
)

// Factor compresses a folded trace set into a template. It never
// loses information: every candidate layout is verified by
// re-instantiating all ranks and comparing op for op, and the
// per-rank fallback always succeeds. The only errors are malformed
// inputs (empty set, nil or mislabeled entries).
func Factor(fs []*Folded) (*Template, error) {
	n := len(fs)
	if n == 0 {
		return nil, fmt.Errorf("trace: cannot factor an empty set")
	}
	for i, f := range fs {
		if f == nil {
			return nil, fmt.Errorf("trace: folded slot %d is nil", i)
		}
		if err := ValidateLabel(i, n, f.Rank, f.Of); err != nil {
			return nil, err
		}
	}
	groups := groupByShape(fs)
	if tpl := unifyGuarded(fs, groups); tpl != nil && verifyTemplate(tpl, fs) {
		return tpl, nil
	}
	if tpl := buildGrouped(fs, groups); tpl != nil && verifyTemplate(tpl, fs) {
		return tpl, nil
	}
	tpl := buildPerRank(fs)
	if !verifyTemplate(tpl, fs) {
		// The per-rank lift is a direct transliteration; failing to
		// round-trip would mean the set itself is not canonical.
		return nil, fmt.Errorf("trace: per-rank template failed verification (non-canonical folded set)")
	}
	return tpl, nil
}

// verifyTemplate re-instantiates every rank and compares exactly.
func verifyTemplate(t *Template, fs []*Folded) bool {
	if t.Validate() != nil {
		return false
	}
	for r := range fs {
		got, err := t.InstantiateRank(r)
		if err != nil || !opsEqual(got, fs[r].Ops) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Shape grouping.

// opsShapeEqual compares op trees structurally — kinds, counts and
// nesting — ignoring peers and float payloads (which the template
// parameterizes).
func opsShapeEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || len(a[i].Body) != len(b[i].Body) {
			return false
		}
		if len(a[i].Body) == 0 {
			if a[i].Rec.Kind != b[i].Rec.Kind {
				return false
			}
		} else if !opsShapeEqual(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

// groupByShape partitions the ranks into maximal contiguous runs of
// structurally equal traces.
func groupByShape(fs []*Folded) [][]int {
	var groups [][]int
	for r := range fs {
		if len(groups) > 0 {
			g := groups[len(groups)-1]
			if opsShapeEqual(fs[g[0]].Ops, fs[r].Ops) {
				groups[len(groups)-1] = append(g, r)
				continue
			}
		}
		groups = append(groups, []int{r})
	}
	return groups
}

// leafPtrs flattens the leaf ops of a tree in DFS order. Trees of
// equal shape flatten to aligned lists.
func leafPtrs(dst []*Op, ops []Op) []*Op {
	for i := range ops {
		if len(ops[i].Body) == 0 {
			dst = append(dst, &ops[i])
		} else {
			dst = leafPtrs(dst, ops[i].Body)
		}
	}
	return dst
}

// fitPeer fits peer = C0 + CR*rank over samples (parallel slices),
// preferring a constant. It returns ok=false when no affine form
// matches every sample.
func fitPeer(ranks []int, peers []int) (Affine, bool) {
	allEqual := true
	for _, p := range peers[1:] {
		if p != peers[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return AffineConst(int64(peers[0])), true
	}
	// Two samples pin the line; contiguity is not assumed.
	dr := ranks[1] - ranks[0]
	dp := peers[1] - peers[0]
	if dr == 0 || dp%dr != 0 {
		return Affine{}, false
	}
	cr := int64(dp / dr)
	c0 := int64(peers[0]) - cr*int64(ranks[0])
	a := Affine{C0: c0, CR: cr}
	for i, r := range ranks {
		if c0+cr*int64(r) != int64(peers[i]) {
			return Affine{}, false
		}
	}
	return a, true
}

// floatsEqual reports bit equality across samples.
func floatsEqual(vals []float64) bool {
	b := math.Float64bits(vals[0])
	for _, v := range vals[1:] {
		if math.Float64bits(v) != b {
			return false
		}
	}
	return true
}

// paramTable accumulates the binding parameter vectors of a role
// under construction: one vector per covered rank, grown in lockstep
// as leaves that differ across ranks are parameterized.
type paramTable struct {
	ranks []int
	vals  [][]float64 // indexed like ranks
}

func newParamTable(ranks []int) *paramTable {
	return &paramTable{ranks: ranks, vals: make([][]float64, len(ranks))}
}

// add appends one parameter with the given per-rank values (aligned
// with pt.ranks) and returns its FloatRef. Identical columns share
// one parameter: the warm-up round of a loop usually repeats the
// steady rounds' inter-event gaps, and storing each distinct column
// once keeps the binding vectors as small as the data allows.
func (pt *paramTable) add(vals []float64) FloatRef {
	ncols := 0
	if len(pt.vals) > 0 {
		ncols = len(pt.vals[0])
	}
column:
	for c := 0; c < ncols; c++ {
		for i := range pt.vals {
			if math.Float64bits(pt.vals[i][c]) != math.Float64bits(vals[i]) {
				continue column
			}
		}
		return FParam(c)
	}
	for i := range pt.vals {
		pt.vals[i] = append(pt.vals[i], vals[i])
	}
	return FParam(ncols)
}

// ---------------------------------------------------------------------------
// Grouped roles (no guards): one role per shape group.

func buildGrouped(fs []*Folded, groups [][]int) *Template {
	n := len(fs)
	t := &Template{World: n}
	for _, members := range groups {
		pt := newParamTable(members)
		leaves := make([][]*Op, len(members))
		for i, m := range members {
			leaves[i] = leafPtrs(nil, fs[m].Ops)
		}
		li := 0
		role, ok := liftGroupOps(fs[members[0]].Ops, members, leaves, &li, pt)
		if !ok {
			return nil
		}
		t.addClasses(members, pt, len(t.Roles))
		t.Roles = append(t.Roles, role)
	}
	return t
}

// liftGroupOps lifts the skeleton tree into TOps, fitting peers
// affinely and parameterizing differing floats across the group.
func liftGroupOps(skel []Op, members []int, leaves [][]*Op, li *int, pt *paramTable) ([]TOp, bool) {
	out := make([]TOp, 0, len(skel))
	for i := range skel {
		op := &skel[i]
		if len(op.Body) > 0 {
			body, ok := liftGroupOps(op.Body, members, leaves, li, pt)
			if !ok {
				return nil, false
			}
			out = append(out, TOp{Count: AffineConst(int64(op.Count)), Body: body})
			continue
		}
		top, ok := liftLeaf(op, members, leafColumn(leaves, *li), pt)
		if !ok {
			return nil, false
		}
		*li++
		out = append(out, top)
	}
	return out, true
}

func leafColumn(leaves [][]*Op, idx int) []*Op {
	col := make([]*Op, len(leaves))
	for i := range leaves {
		col[i] = leaves[i][idx]
	}
	return col
}

// liftLeaf builds the template op for one aligned leaf column.
func liftLeaf(skel *Op, members []int, col []*Op, pt *paramTable) (TOp, bool) {
	top := TOp{Count: AffineConst(int64(skel.Count)), Kind: skel.Rec.Kind}
	switch skel.Rec.Kind {
	case KindCompute:
		vals := make([]float64, len(col))
		for i, o := range col {
			vals[i] = o.Rec.NS
		}
		if floatsEqual(vals) {
			top.NS = FConst(vals[0])
		} else {
			top.NS = pt.add(vals)
		}
	case KindSend, KindRecv:
		peers := make([]int, len(col))
		for i, o := range col {
			peers[i] = o.Rec.Peer
		}
		a, ok := fitPeer(members, peers)
		if !ok {
			return TOp{}, false
		}
		top.Peer = a
		vals := make([]float64, len(col))
		for i, o := range col {
			vals[i] = o.Rec.Bytes
		}
		if floatsEqual(vals) {
			top.Bytes = FConst(vals[0])
		} else {
			top.Bytes = pt.add(vals)
		}
	}
	return top, true
}

// addClasses partitions a role's member ranks by parameter vector and
// appends the binding classes, choosing structural selectors when a
// part is exactly the first rank, the last rank, the interior run or
// the whole world.
func (t *Template) addClasses(members []int, pt *paramTable, role int) {
	// Partition members by bit-equal vectors, preserving rank order.
	var parts [][]int
	var vecs [][]float64
	for i, m := range members {
		v := pt.vals[i]
		placed := false
		for pi := range parts {
			if vecEqual(vecs[pi], v) {
				parts[pi] = append(parts[pi], m)
				placed = true
				break
			}
		}
		if !placed {
			parts = append(parts, []int{m})
			vecs = append(vecs, v)
		}
	}
	for pi, part := range parts {
		t.Classes = append(t.Classes, classesFor(part, t.World, role, vecs[pi])...)
	}
}

func vecEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// classesFor maps a rank set onto selector classes: the whole world
// splits into first/interior/last, the canonical boundary and
// interior sets get their structural selector, and anything else
// stays an explicit list.
func classesFor(ranks []int, world, role int, params []float64) []Class {
	isRun := func(lo, hi int) bool {
		if len(ranks) != hi-lo+1 {
			return false
		}
		for i, r := range ranks {
			if r != lo+i {
				return false
			}
		}
		return true
	}
	switch {
	case isRun(0, world-1):
		cs := []Class{{Sel: SelFirst, Role: role, Params: params}}
		if world >= 3 {
			cs = append(cs, Class{Sel: SelInterior, Role: role, Params: params})
		}
		if world >= 2 {
			cs = append(cs, Class{Sel: SelLast, Role: role, Params: params})
		}
		return cs
	case len(ranks) == 1 && ranks[0] == 0:
		return []Class{{Sel: SelFirst, Role: role, Params: params}}
	case len(ranks) == 1 && ranks[0] == world-1 && world > 1:
		return []Class{{Sel: SelLast, Role: role, Params: params}}
	case world >= 3 && isRun(1, world-2):
		return []Class{{Sel: SelInterior, Role: role, Params: params}}
	default:
		return []Class{{Sel: SelList, Ranks: ranks, Role: role, Params: params}}
	}
}

// ---------------------------------------------------------------------------
// Guarded unification: the strip pattern.

// unifyGuarded attempts the maximally shared layout: one role body
// for every rank, with boundary-only ops guarded by rank > 0 /
// rank < world-1. It applies to the first/interior/last shape
// pattern a strip decomposition produces (with at least two interior
// ranks, so peer rank-coefficients are pinned by interior samples
// alone) and returns nil when the pattern or the alignment does not
// hold — the caller then falls back to grouped roles.
func unifyGuarded(fs []*Folded, groups [][]int) *Template {
	n := len(fs)
	if n < 4 || len(groups) != 3 {
		return nil
	}
	first, interior, last := groups[0], groups[1], groups[2]
	if len(first) != 1 || first[0] != 0 || len(last) != 1 || last[0] != n-1 {
		return nil
	}
	if len(interior) < 2 || interior[0] != 1 || interior[len(interior)-1] != n-2 {
		return nil
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	pt := newParamTable(all)
	leaves := make([][]*Op, len(interior))
	for i, m := range interior {
		leaves[i] = leafPtrs(nil, fs[m].Ops)
	}
	u := &unifier{
		world:    n,
		interior: interior,
		leaves:   leaves,
		pt:       pt,
	}
	role, fUsed, lUsed, ok := u.merge(fs[interior[0]].Ops, fs[0].Ops, fs[n-1].Ops, true, true)
	if !ok || fUsed != countLeafAndReps(fs[0].Ops) || lUsed != countLeafAndReps(fs[n-1].Ops) {
		return nil
	}
	t := &Template{World: n, Roles: [][]TOp{role}}
	t.addClasses(all, pt, 0)
	return t
}

// countLeafAndReps counts the top-level ops of a tree (consumption
// accounting for the merge).
func countLeafAndReps(ops []Op) int { return len(ops) }

type unifier struct {
	world    int
	interior []int
	leaves   [][]*Op // per interior member, DFS leaf order
	li       int     // next leaf index
	pt       *paramTable
	steps    int
}

// unifyMaxSteps bounds the merge work; pathological inputs fall back
// to grouped roles rather than burn time here.
const unifyMaxSteps = 1 << 20

// merge aligns the interior skeleton against the first and last
// ranks' op lists, guarding skeleton ops the boundaries lack. It
// returns the merged TOps and how many ops of each boundary list it
// consumed; ok=false aborts the whole unification.
func (u *unifier) merge(skel, f, l []Op, hasF, hasL bool) (out []TOp, fUsed, lUsed int, ok bool) {
	fi, li := 0, 0
	for i := range skel {
		if u.steps++; u.steps > unifyMaxSteps {
			return nil, 0, 0, false
		}
		op := &skel[i]
		var fOp, lOp *Op
		if hasF && fi < len(f) {
			fOp = &f[fi]
		}
		if hasL && li < len(l) {
			lOp = &l[li]
		}
		top, fm, lm, okOp := u.mergeOp(op, fOp, lOp)
		if !okOp {
			return nil, 0, 0, false
		}
		var guards []Affine
		if hasF && !fm {
			guards = append(guards, GuardNotFirst)
		}
		if hasL && !lm {
			guards = append(guards, GuardNotLast)
		}
		top.Guard = guards
		out = append(out, top)
		if fm {
			fi++
		}
		if lm {
			li++
		}
	}
	// Boundary streams must be fully consumed at this level.
	if (hasF && fi != len(f)) || (hasL && li != len(l)) {
		return nil, 0, 0, false
	}
	return out, fi, li, true
}

// mergeOp merges one skeleton op with the candidate boundary ops,
// deciding locally whether each boundary op matches (pairs) or the
// skeleton op must be guarded away from that boundary rank.
func (u *unifier) mergeOp(op *Op, fOp, lOp *Op) (top TOp, fm, lm, ok bool) {
	if len(op.Body) > 0 {
		// Repeat: a boundary op matches when it is a repeat of the
		// same count whose body merges recursively.
		fm = fOp != nil && len(fOp.Body) > 0 && fOp.Count == op.Count
		lm = lOp != nil && len(lOp.Body) > 0 && lOp.Count == op.Count
		var fBody, lBody []Op
		if fm {
			fBody = fOp.Body
		}
		if lm {
			lBody = lOp.Body
		}
		// Snapshot param state: a failed sub-merge with one pairing
		// choice must not leak parameters.
		body, _, _, okBody := u.tryMergeBody(op.Body, fBody, lBody, fm, lm)
		if !okBody && (fm || lm) {
			// Retry without the boundary pairings: the repeat exists
			// only on interior ranks.
			fm, lm = false, false
			body, _, _, okBody = u.tryMergeBody(op.Body, nil, nil, false, false)
		}
		if !okBody {
			return TOp{}, false, false, false
		}
		return TOp{Count: AffineConst(int64(op.Count)), Body: body}, fm, lm, true
	}
	// Leaf: local viability — shape (kind+count) plus peer-fit
	// compatibility decide pairing.
	col := leafColumn(u.leaves, u.li)
	u.li++
	ranks := u.interior
	peers := make([]int, 0, len(col)+2)
	vals := make([]float64, 0, len(col)+2)
	fm = fOp != nil && len(fOp.Body) == 0 && fOp.Rec.Kind == op.Rec.Kind && fOp.Count == op.Count
	lm = lOp != nil && len(lOp.Body) == 0 && lOp.Rec.Kind == op.Rec.Kind && lOp.Count == op.Count
	if op.Rec.Kind == KindSend || op.Rec.Kind == KindRecv {
		for _, o := range col {
			peers = append(peers, o.Rec.Peer)
		}
		// Pin the affine form from the interior samples, then demand
		// the boundary samples satisfy it — otherwise the boundary op
		// is a different communication and must not pair.
		a, okFit := fitPeer(ranks, peers)
		if !okFit {
			return TOp{}, false, false, false
		}
		if fm {
			if v, err := a.Eval(0, u.world); err != nil || v != int64(fOp.Rec.Peer) {
				fm = false
			}
		}
		if lm {
			if v, err := a.Eval(u.world-1, u.world); err != nil || v != int64(lOp.Rec.Peer) {
				lm = false
			}
		}
	}
	top = TOp{Count: AffineConst(int64(op.Count)), Kind: op.Rec.Kind}
	// Collect float payloads over all ranks: boundary ranks use their
	// own value when paired, the interior skeleton value otherwise
	// (guarded out — placeholder never read).
	fullVals := func(get func(*Op) float64, fv, lv float64, fPresent, lPresent bool) []float64 {
		vals = vals[:0]
		skelV := get(col[0])
		fval, lval := skelV, skelV
		if fPresent {
			fval = fv
		}
		if lPresent {
			lval = lv
		}
		vals = append(vals, fval)
		for _, o := range col {
			vals = append(vals, get(o))
		}
		return append(vals, lval)
	}
	switch op.Rec.Kind {
	case KindCompute:
		var fv, lv float64
		if fm {
			fv = fOp.Rec.NS
		}
		if lm {
			lv = lOp.Rec.NS
		}
		all := fullVals(func(o *Op) float64 { return o.Rec.NS }, fv, lv, fm, lm)
		if floatsEqual(all) {
			top.NS = FConst(all[0])
		} else {
			top.NS = u.pt.add(all)
		}
	case KindSend, KindRecv:
		a, _ := fitPeer(ranks, peers)
		top.Peer = a
		var fv, lv float64
		if fm {
			fv = fOp.Rec.Bytes
		}
		if lm {
			lv = lOp.Rec.Bytes
		}
		all := fullVals(func(o *Op) float64 { return o.Rec.Bytes }, fv, lv, fm, lm)
		if floatsEqual(all) {
			top.Bytes = FConst(all[0])
		} else {
			top.Bytes = u.pt.add(all)
		}
	}
	return top, fm, lm, true
}

// tryMergeBody runs a sub-merge, rolling the leaf cursor and the
// parameter table back if it fails (so an alternative pairing can be
// tried cleanly).
func (u *unifier) tryMergeBody(skel, f, l []Op, hasF, hasL bool) ([]TOp, int, int, bool) {
	savedLi := u.li
	savedParams := 0
	if len(u.pt.vals) > 0 {
		savedParams = len(u.pt.vals[0])
	}
	body, fUsed, lUsed, ok := u.merge(skel, f, l, hasF, hasL)
	if !ok {
		u.li = savedLi
		for i := range u.pt.vals {
			u.pt.vals[i] = u.pt.vals[i][:savedParams]
		}
		return nil, 0, 0, false
	}
	return body, fUsed, lUsed, true
}

// ---------------------------------------------------------------------------
// Per-rank fallback.

func buildPerRank(fs []*Folded) *Template {
	t := &Template{World: len(fs)}
	for r, f := range fs {
		t.Classes = append(t.Classes, classesFor([]int{r}, t.World, len(t.Roles), nil)...)
		t.Roles = append(t.Roles, liftConstOps(f.Ops))
	}
	return t
}

// liftConstOps transliterates concrete ops into constant TOps.
func liftConstOps(ops []Op) []TOp {
	out := make([]TOp, 0, len(ops))
	for i := range ops {
		op := &ops[i]
		if len(op.Body) > 0 {
			out = append(out, TOp{Count: AffineConst(int64(op.Count)), Body: liftConstOps(op.Body)})
			continue
		}
		top := TOp{Count: AffineConst(int64(op.Count)), Kind: op.Rec.Kind}
		switch op.Rec.Kind {
		case KindCompute:
			top.NS = FConst(op.Rec.NS)
		case KindSend, KindRecv:
			top.Peer = AffineConst(int64(op.Rec.Peer))
			top.Bytes = FConst(op.Rec.Bytes)
		}
		out = append(out, top)
	}
	return out
}
