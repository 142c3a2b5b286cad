// Rank-parameterized trace templates. The folded IR (fold.go) stores
// one op tree per rank, yet the ranks of a strip decomposition differ
// only in boundary structure (the first and last rank skip one ghost
// exchange), peer ids (rank±1) and a handful of compute durations. A
// Template factors a whole folded set into that shared structure:
//
//   - role bodies: op trees whose peer ids, repetition counts and
//     guards are affine expressions in (rank, world) and whose float
//     payloads may be parameter references;
//   - binding classes: which ranks use which role with which
//     parameter vector, selected either structurally (first rank,
//     last rank, the interior run) or by explicit rank list.
//
// Factoring is exact by construction and verified by re-instantiation:
// Instantiate(Factor(set)) reproduces the set op for op, bit for bit,
// or Factor falls back to a less shared (ultimately per-rank) layout.
// The artifact therefore shrinks from O(ranks) bodies to O(roles)
// without ever changing what replay sees.
package trace

import (
	"fmt"
	"math"
	"sync"
)

// Affine is an integer-affine expression C0 + CR*rank + CW*world.
// Peer ids, repetition counts and guards of a template are affine, so
// one body can serve every rank — and, when nothing depends on the
// world size except through CW and the binding selectors, every world
// size (AtWorld).
type Affine struct {
	C0 int64 `json:"c0"`
	CR int64 `json:"cr,omitempty"`
	CW int64 `json:"cw,omitempty"`
}

// AffineConst wraps a constant as an affine expression.
func AffineConst(v int64) Affine { return Affine{C0: v} }

// maxAffineCoeff bounds template coefficients; hostile files must not
// push Eval into overflow territory, and no real trace needs more.
const maxAffineCoeff = int64(1) << 40

// IsConst reports a rank- and world-independent expression.
func (a Affine) IsConst() bool { return a.CR == 0 && a.CW == 0 }

// Eval evaluates the expression, rejecting int64 overflow (possible
// only with hostile coefficients; CheckCoeffs bounds decoded ones).
func (a Affine) Eval(rank, world int) (int64, error) {
	r, ok1 := mulOK(a.CR, int64(rank))
	w, ok2 := mulOK(a.CW, int64(world))
	s, ok3 := addOK(a.C0, r)
	v, ok4 := addOK(s, w)
	if !(ok1 && ok2 && ok3 && ok4) {
		return 0, fmt.Errorf("trace: affine %+v overflows at rank %d world %d", a, rank, world)
	}
	return v, nil
}

// CheckCoeffs bounds the coefficients of a decoded expression.
func (a Affine) CheckCoeffs() error {
	for _, c := range [3]int64{a.C0, a.CR, a.CW} {
		if c > maxAffineCoeff || c < -maxAffineCoeff {
			return fmt.Errorf("trace: affine coefficient %d out of range (|c| <= %d)", c, maxAffineCoeff)
		}
	}
	return nil
}

func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// FloatRef is a float payload of a template op: either an inline
// constant or a reference into the binding class's parameter vector
// (Param p > 0 refers to parameter p-1; 0 means Const).
type FloatRef struct {
	Param int     `json:"param,omitempty"`
	Const float64 `json:"const,omitempty"`
}

// FConst wraps a constant payload.
func FConst(v float64) FloatRef { return FloatRef{Const: v} }

// FParam references binding parameter i.
func FParam(i int) FloatRef { return FloatRef{Param: i + 1} }

func (f FloatRef) resolve(params []float64) (float64, error) {
	if f.Param == 0 {
		return f.Const, nil
	}
	i := f.Param - 1
	if i < 0 || i >= len(params) {
		return 0, fmt.Errorf("trace: template parameter %d out of range (%d bound)", i, len(params))
	}
	return params[i], nil
}

// maxParam walks the largest parameter index referenced (or -1).
func (f FloatRef) maxParam() int { return f.Param - 1 }

// TOp is one instruction of a template role body. Exactly one of
// three shapes applies:
//
//   - leaf (Body empty, Ref 0): Count repetitions of one record whose
//     peer is affine and whose float payloads may be parameters;
//   - repeat (Body non-empty): Count repetitions of the sub-body;
//   - role reference (Ref r > 0): Count inlined repetitions of role
//     r-1's body. References point strictly at lower-numbered roles,
//     so cycles cannot be expressed; the decoder enforces it.
//
// An op applies to a rank only when every Guard evaluates positive
// there (an empty guard list means always); that is how one body
// serves boundary ranks that skip an exchange.
type TOp struct {
	Count Affine   `json:"count"`
	Guard []Affine `json:"guard,omitempty"`
	Kind  Kind     `json:"kind,omitempty"`
	Peer  Affine   `json:"peer,omitempty"`
	NS    FloatRef `json:"ns,omitempty"`
	Bytes FloatRef `json:"bytes,omitempty"`
	Body  []TOp    `json:"body,omitempty"`
	Ref   int      `json:"ref,omitempty"`
}

// Guard helpers: the three selectors strip decompositions need.
var (
	// GuardNotFirst keeps an op on every rank but 0 (rank > 0).
	GuardNotFirst = Affine{CR: 1}
	// GuardNotLast keeps an op on every rank but world-1
	// (world - 1 - rank > 0).
	GuardNotLast = Affine{C0: -1, CR: -1, CW: 1}
)

// guarded reports whether the op applies at (rank, world).
func (op *TOp) guarded(rank, world int) (bool, error) {
	for _, g := range op.Guard {
		v, err := g.Eval(rank, world)
		if err != nil {
			return false, err
		}
		if v <= 0 {
			return false, nil
		}
	}
	return true, nil
}

// RankSel selects the ranks a binding class covers. The structural
// selectors make a class a function of the world size alone, which is
// what AtWorld re-binding needs; SelList pins explicit ranks and
// blocks it.
type RankSel uint8

// Rank selectors.
const (
	SelList     RankSel = iota // the explicit Ranks list
	SelFirst                   // rank 0
	SelLast                    // rank world-1
	SelInterior                // ranks 1..world-2
)

func (s RankSel) String() string {
	switch s {
	case SelList:
		return "list"
	case SelFirst:
		return "first"
	case SelLast:
		return "last"
	case SelInterior:
		return "interior"
	}
	return "?"
}

// Class binds a set of ranks to a role body and the parameter vector
// its FloatRef parameters resolve against.
//
// A class may additionally carry an affine binding arm: when Slopes is
// non-nil the effective parameter vector of rank r is
//
//	Params[i] + Slopes[i]*h(r)
//
// where h(r) = S/w + (1 if r < S mod w) is the rank's share of the
// template's ScaleUnits S strip-decomposed over the world size w. That
// makes strong-scaling workloads — whose per-rank compute shrinks as
// the world grows — expressible by one world-parameterized template:
// AtWorld re-binding changes h(r) and the parameters follow. Affine
// bindings are fitted from two probe interpretations (see FitAffine),
// so unlike the plain parameter columns they are approximate; Residual
// records the largest relative deviation the fit observed.
type Class struct {
	Sel    RankSel   `json:"sel"`
	Ranks  []int     `json:"ranks,omitempty"` // SelList only, strictly increasing
	Role   int       `json:"role"`
	Params []float64 `json:"params,omitempty"`
	// Slopes, when non-nil, holds one per-scale-unit slope per
	// parameter (len(Slopes) == len(Params)); the template must then
	// declare ScaleUnits.
	Slopes []float64 `json:"slopes,omitempty"`
	// Residual is the fit's largest relative deviation across the probe
	// samples of this class (0 for an exact fit).
	Residual float64 `json:"residual,omitempty"`
}

// covers reports whether the class binds the rank at the world size.
func (c *Class) covers(rank, world int) bool {
	switch c.Sel {
	case SelFirst:
		return rank == 0
	case SelLast:
		return rank == world-1 && world > 1
	case SelInterior:
		return rank > 0 && rank < world-1
	case SelList:
		for _, r := range c.Ranks {
			if r == rank {
				return true
			}
		}
	}
	return false
}

// Template is a factored trace set: role bodies shared across ranks
// plus the per-rank bindings. It is immutable after construction and
// safe to share across goroutines.
type Template struct {
	World   int     `json:"world"`
	Roles   [][]TOp `json:"roles"`
	Classes []Class `json:"classes"`
	// ScaleUnits is the workload's total problem scale S (e.g. grid
	// rows) strip-decomposed over the ranks; rank r's share is
	// h(r) = S/world + (1 if r < S mod world). It must be positive
	// exactly when some class carries affine slopes, and is preserved
	// by AtWorld so re-bound worlds recompute their shares.
	ScaleUnits int64 `json:"scale_units,omitempty"`
}

// ScaleShare returns h(r), rank r's share of the template's ScaleUnits
// under strip decomposition (0 when the template has no scale).
func (t *Template) ScaleShare(rank int) int64 {
	return ScaleShare(t.ScaleUnits, rank, t.World)
}

// ScaleShare is the strip-decomposition share rule: units/world, plus
// one for the first units mod world ranks.
func ScaleShare(units int64, rank, world int) int64 {
	if units <= 0 || world < 1 {
		return 0
	}
	h := units / int64(world)
	if int64(rank) < units%int64(world) {
		h++
	}
	return h
}

// effectiveParams resolves the class's parameter vector for one rank:
// the plain column when the class has no slopes, Params[i] +
// Slopes[i]*h(rank) otherwise.
func (t *Template) effectiveParams(cls *Class, rank int) []float64 {
	if cls.Slopes == nil {
		return cls.Params
	}
	h := float64(t.ScaleShare(rank))
	eff := make([]float64, len(cls.Params))
	for i, p := range cls.Params {
		eff[i] = p + cls.Slopes[i]*h
	}
	return eff
}

// ClassOf resolves the binding class of a rank, requiring exactly one
// covering class.
func (t *Template) ClassOf(rank int) (*Class, error) {
	var found *Class
	for i := range t.Classes {
		if !t.Classes[i].covers(rank, t.World) {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("trace: rank %d bound by more than one template class", rank)
		}
		found = &t.Classes[i]
	}
	if found == nil {
		return nil, fmt.Errorf("trace: rank %d bound by no template class", rank)
	}
	return found, nil
}

// Template decoder sanity limits (shared with the in-memory
// validator so hand-built and decoded templates obey the same rules).
const (
	maxTemplateGuards = 4       // conjunctive guards per op
	maxTemplateWorld  = 1 << 20 // ranks a template may bind
	maxTemplateRoles  = 1 << 12 // role bodies per template
	// maxTemplateExpandedOps bounds how many ops a role may expand to
	// once its role references are inlined: instantiation (and the
	// streaming cursor) visit the referenced body per occurrence, so
	// without this bound a chain of roles each referencing the
	// previous one twice would expand exponentially.
	maxTemplateExpandedOps = 1 << 22
)

// Validate checks structural consistency: world size, role and
// reference indices, guard arity, parameter coverage, exactly-one
// class coverage per rank, and the range of every affine expression.
// Affines are linear in rank, so evaluating each op at the endpoints
// of its guard-active rank interval bounds it exactly — validation is
// O(ops), independent of the world size, and instantiation after a
// successful Validate cannot fail.
func (t *Template) Validate() error {
	if t.World < 1 || t.World > maxTemplateWorld {
		return fmt.Errorf("trace: template world size %d (max %d)", t.World, maxTemplateWorld)
	}
	if len(t.Roles) > maxTemplateRoles {
		return fmt.Errorf("trace: template has %d roles (max %d)", len(t.Roles), maxTemplateRoles)
	}
	// Per-role aggregates are computed bottom-up in index order (role
	// references only point at lower-numbered roles), so chains of
	// references cost O(total ops) — never a re-walk per occurrence,
	// which a hostile file could stack exponentially deep.
	maxParam := make([]int, len(t.Roles))
	expanded := make([]int64, len(t.Roles))
	for i, role := range t.Roles {
		if err := checkTOps(role, i, 0); err != nil {
			return err
		}
		if err := t.checkRanges(role); err != nil {
			return err
		}
		maxParam[i], expanded[i] = t.roleAggregates(role, maxParam, expanded)
		if expanded[i] > maxTemplateExpandedOps {
			return fmt.Errorf("trace: role %d expands to more than %d ops through role references", i, maxTemplateExpandedOps)
		}
	}
	hasSlopes := false
	for ci := range t.Classes {
		c := &t.Classes[ci]
		if c.Role < 0 || c.Role >= len(t.Roles) {
			return fmt.Errorf("trace: class %d references role %d of %d", ci, c.Role, len(t.Roles))
		}
		if c.Sel == SelList {
			if len(c.Ranks) == 0 {
				return fmt.Errorf("trace: class %d has an empty rank list", ci)
			}
			prev := -1
			for _, r := range c.Ranks {
				if r <= prev {
					return fmt.Errorf("trace: class %d rank list not strictly increasing", ci)
				}
				if r < 0 || r >= t.World {
					return fmt.Errorf("trace: class %d binds rank %d of world %d", ci, r, t.World)
				}
				prev = r
			}
		} else if len(c.Ranks) != 0 {
			return fmt.Errorf("trace: class %d has both a selector and a rank list", ci)
		}
		if n := maxParam[c.Role]; n >= len(c.Params) {
			return fmt.Errorf("trace: class %d role %d needs %d params, has %d", ci, c.Role, n+1, len(c.Params))
		}
		if c.Slopes != nil {
			hasSlopes = true
			if len(c.Slopes) != len(c.Params) {
				return fmt.Errorf("trace: class %d has %d slopes for %d params", ci, len(c.Slopes), len(c.Params))
			}
			for _, s := range c.Slopes {
				if math.IsNaN(s) || math.IsInf(s, 0) {
					return fmt.Errorf("trace: class %d slope %v out of range", ci, s)
				}
			}
		}
		if math.IsNaN(c.Residual) || c.Residual < 0 || math.IsInf(c.Residual, 1) {
			return fmt.Errorf("trace: class %d residual %v out of range", ci, c.Residual)
		}
	}
	if t.ScaleUnits < 0 || t.ScaleUnits > maxAffineCoeff {
		return fmt.Errorf("trace: template scale units %d out of range", t.ScaleUnits)
	}
	if hasSlopes && t.ScaleUnits == 0 {
		return fmt.Errorf("trace: template classes carry slopes but no scale units are declared")
	}
	return t.checkCoverage()
}

// roleAggregates walks one role body, combining its own parameter
// references and instantiated size with the precomputed aggregates of
// the (strictly lower-numbered) roles it references. Sizes saturate.
func (t *Template) roleAggregates(ops []TOp, maxParam []int, expanded []int64) (int, int64) {
	mp, size := -1, int64(0)
	for i := range ops {
		op := &ops[i]
		size = SatAdd(size, 1)
		if p := op.NS.maxParam(); p > mp {
			mp = p
		}
		if p := op.Bytes.maxParam(); p > mp {
			mp = p
		}
		if ref := op.Ref - 1; ref >= 0 && ref < len(expanded) {
			if maxParam[ref] > mp {
				mp = maxParam[ref]
			}
			size = SatAdd(size, expanded[ref])
		}
		if len(op.Body) > 0 {
			bmp, bsize := t.roleAggregates(op.Body, maxParam, expanded)
			if bmp > mp {
				mp = bmp
			}
			size = SatAdd(size, bsize)
		}
	}
	return mp, size
}

// checkCoverage verifies every rank is bound by exactly one class
// without enumerating the world: selector coverage is positional
// (first/last/interior) and only explicitly listed ranks need
// individual accounting.
func (t *Template) checkCoverage() error {
	var nFirst, nLast, nInterior int
	listed := make(map[int]int)
	nListedInterior := 0
	for ci := range t.Classes {
		switch t.Classes[ci].Sel {
		case SelFirst:
			nFirst++
		case SelLast:
			nLast++
		case SelInterior:
			nInterior++
		case SelList:
			for _, r := range t.Classes[ci].Ranks {
				if listed[r] == 0 && r > 0 && r < t.World-1 {
					nListedInterior++
				}
				listed[r]++
			}
		}
	}
	coverage := func(rank int) int {
		c := listed[rank]
		if rank == 0 {
			c += nFirst
		}
		if rank == t.World-1 && t.World > 1 {
			c += nLast
		}
		if rank > 0 && rank < t.World-1 {
			c += nInterior
		}
		return c
	}
	if c := coverage(0); c != 1 {
		return fmt.Errorf("trace: rank 0 bound by %d template classes", c)
	}
	if t.World > 1 {
		if c := coverage(t.World - 1); c != 1 {
			return fmt.Errorf("trace: rank %d bound by %d template classes", t.World-1, c)
		}
	}
	for r := range listed {
		if r > 0 && r < t.World-1 {
			if c := coverage(r); c != 1 {
				return fmt.Errorf("trace: rank %d bound by %d template classes", r, c)
			}
		}
	}
	// Interior ranks not covered by any list must see exactly one
	// interior class — unless every interior rank is listed (or there
	// are none); a dormant interior class is then fine, which is what
	// lets AtWorld shrink a template to two ranks.
	if t.World-2 > nListedInterior && nInterior != 1 {
		return fmt.Errorf("trace: interior ranks bound by %d template classes", nInterior)
	}
	return nil
}

// checkRanges bounds every affine expression over the op's
// guard-active rank interval. Linearity makes the endpoint values
// exact extrema, so a pass here guarantees instantiation at any rank
// stays in range.
func (t *Template) checkRanges(ops []TOp) error {
	for i := range ops {
		op := &ops[i]
		lo, hi, active := activeInterval(op.Guard, t.World)
		if !active {
			continue
		}
		for _, rank := range [2]int{lo, hi} {
			v, err := op.Count.Eval(rank, t.World)
			if err != nil {
				return err
			}
			if v < 0 || v > maxBinaryCount {
				return fmt.Errorf("trace: template count %d at rank %d out of range", v, rank)
			}
			if len(op.Body) == 0 && op.Ref == 0 && (op.Kind == KindSend || op.Kind == KindRecv) {
				p, err := op.Peer.Eval(rank, t.World)
				if err != nil {
					return err
				}
				if p < 0 || p > maxBinaryPeer {
					return fmt.Errorf("trace: template peer %d at rank %d out of range", p, rank)
				}
			}
		}
		if len(op.Body) > 0 {
			if err := t.checkRanges(op.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// activeInterval intersects the guard half-planes with [0, world-1],
// returning the rank interval on which the op applies.
func activeInterval(guards []Affine, world int) (lo, hi int, active bool) {
	l, h := int64(0), int64(world-1)
	for _, g := range guards {
		// g(r) = CR*r + c > 0 with c = C0 + CW*world. Coefficients are
		// bounded (CheckCoeffs) and world <= maxTemplateWorld, so this
		// arithmetic cannot overflow int64.
		c := g.C0 + g.CW*int64(world)
		switch {
		case g.CR == 0:
			if c <= 0 {
				return 0, 0, false
			}
		case g.CR > 0: // r > -c/CR
			b := floorDiv(-c, g.CR) + 1
			if b > l {
				l = b
			}
		default: // CR < 0: r < c/(-CR)
			b := floorDiv(c-1, -g.CR)
			if b < h {
				h = b
			}
		}
	}
	if l > h {
		return 0, 0, false
	}
	return int(l), int(h), true
}

// floorDiv is floored integer division (Go's / truncates toward 0).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// checkTOps validates one role body: shape exclusivity, reference
// ordering (strictly lower-numbered roles — the acyclicity guarantee),
// guard arity, coefficient bounds and nesting depth.
func checkTOps(ops []TOp, role, depth int) error {
	if depth > maxBinaryDepth {
		return fmt.Errorf("trace: template nesting deeper than %d", maxBinaryDepth)
	}
	for i := range ops {
		op := &ops[i]
		if len(op.Guard) > maxTemplateGuards {
			return fmt.Errorf("trace: op with %d guards (max %d)", len(op.Guard), maxTemplateGuards)
		}
		for _, g := range append([]Affine{op.Count, op.Peer}, op.Guard...) {
			if err := g.CheckCoeffs(); err != nil {
				return err
			}
		}
		switch {
		case op.Ref != 0:
			if len(op.Body) != 0 {
				return fmt.Errorf("trace: template op is both a reference and a repeat")
			}
			ref := op.Ref - 1
			if ref < 0 || ref >= role {
				return fmt.Errorf("trace: role %d references role %d (references must point at lower-numbered roles)", role, ref)
			}
		case len(op.Body) > 0:
			if err := checkTOps(op.Body, role, depth+1); err != nil {
				return err
			}
		default:
			if op.Kind < KindCompute || op.Kind > KindBarrier {
				return fmt.Errorf("trace: template op has unknown kind %d", op.Kind)
			}
		}
	}
	return nil
}

// NumOps counts the template's ops across roles, including nested
// bodies — the factored size, against which the summed per-rank op
// count gives the cross-rank dedup ratio.
func (t *Template) NumOps() int {
	n := 0
	for _, role := range t.Roles {
		n += countTOps(role)
	}
	return n
}

func countTOps(ops []TOp) int {
	n := 0
	for i := range ops {
		n += 1 + countTOps(ops[i].Body)
	}
	return n
}

// InstantiateRank materializes one rank's folded ops from its role
// body and binding: affines evaluated, guards applied, parameters
// resolved, references inlined, adjacent results merged exactly like
// the folding writer would.
func (t *Template) InstantiateRank(rank int) ([]Op, error) {
	if rank < 0 || rank >= t.World {
		return nil, fmt.Errorf("trace: rank %d out of template world %d", rank, t.World)
	}
	cls, err := t.ClassOf(rank)
	if err != nil {
		return nil, err
	}
	return t.instantiate(nil, t.Roles[cls.Role], t.effectiveParams(cls, rank), rank)
}

func (t *Template) instantiate(dst []Op, ops []TOp, params []float64, rank int) ([]Op, error) {
	for i := range ops {
		op := &ops[i]
		ok, err := op.guarded(rank, t.World)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		count, err := op.Count.Eval(rank, t.World)
		if err != nil {
			return nil, err
		}
		if count < 0 {
			return nil, fmt.Errorf("trace: template count %d at rank %d", count, rank)
		}
		if count == 0 {
			continue
		}
		if count > maxBinaryCount {
			return nil, fmt.Errorf("trace: template count %d exceeds %d", count, maxBinaryCount)
		}
		switch {
		case op.Ref != 0:
			body, err := t.instantiate(nil, t.Roles[op.Ref-1], params, rank)
			if err != nil {
				return nil, err
			}
			dst = appendInstantiated(dst, count, body)
		case len(op.Body) > 0:
			body, err := t.instantiate(nil, op.Body, params, rank)
			if err != nil {
				return nil, err
			}
			dst = appendInstantiated(dst, count, body)
		default:
			rec := Record{Kind: op.Kind}
			switch op.Kind {
			case KindCompute:
				if rec.NS, err = op.NS.resolve(params); err != nil {
					return nil, err
				}
			case KindSend, KindRecv:
				peer, err := op.Peer.Eval(rank, t.World)
				if err != nil {
					return nil, err
				}
				if peer < 0 || peer > maxBinaryPeer {
					return nil, fmt.Errorf("trace: template peer %d at rank %d", peer, rank)
				}
				rec.Peer = int(peer)
				if rec.Bytes, err = op.Bytes.resolve(params); err != nil {
					return nil, err
				}
			}
			dst = appendOp(dst, Op{Count: int(count), Rec: rec})
		}
	}
	return dst, nil
}

// appendInstantiated folds count repetitions of an instantiated body
// into dst: empty bodies vanish, single repetitions splice in place,
// real repeats become a Repeat op — matching what the online folder
// would have produced for the same stream.
func appendInstantiated(dst []Op, count int64, body []Op) []Op {
	switch {
	case len(body) == 0:
	case count == 1:
		dst = appendOps(dst, body)
	default:
		dst = appendOp(dst, Op{Count: int(count), Body: body})
	}
	return dst
}

// Instantiate materializes the whole folded set.
func (t *Template) Instantiate() ([]*Folded, error) {
	fs := make([]*Folded, t.World)
	for r := 0; r < t.World; r++ {
		ops, err := t.InstantiateRank(r)
		if err != nil {
			return nil, err
		}
		fs[r] = &Folded{Rank: r, Of: t.World, Ops: ops}
	}
	return fs, nil
}

// WorldParameterized reports whether the bindings are functions of
// (rank, world) alone — no explicit rank list — which is what AtWorld
// re-binding requires.
func (t *Template) WorldParameterized() error {
	for ci := range t.Classes {
		if t.Classes[ci].Sel == SelList {
			return fmt.Errorf("trace: template class %d binds explicit ranks; bindings are not world-parameterized", ci)
		}
	}
	return nil
}

// AtWorld re-binds the template at another world size, sharing the
// role bodies: the first/last/interior selectors re-resolve against
// the new rank count and every affine re-evaluates with the new world
// term. It requires world-parameterized bindings (WorldParameterized)
// and at least two ranks.
//
// Exactness caveat: a template factored from one world size carries
// exactly that world's information. Re-binding reproduces the other
// world's traces bit for bit only when the per-role bodies do not
// themselves depend on the world size — weak-scaling workloads whose
// per-rank work and message sizes are fixed. A constant that merely
// coincides with a world-derived value (a peer id equal to world-1)
// is indistinguishable from it at factoring time; the differential
// tests in dperf are the guardrail for a given workload family.
func (t *Template) AtWorld(world int) (*Template, error) {
	if world == t.World {
		return t, nil
	}
	if world < 2 {
		return nil, fmt.Errorf("trace: cannot re-bind template at world size %d", world)
	}
	if err := t.WorldParameterized(); err != nil {
		return nil, err
	}
	nt := &Template{World: world, Roles: t.Roles, Classes: t.Classes, ScaleUnits: t.ScaleUnits}
	if err := nt.Validate(); err != nil {
		return nil, fmt.Errorf("trace: re-binding at world %d: %w", world, err)
	}
	return nt, nil
}

// ---------------------------------------------------------------------------
// TemplateSource: the replay view.

// TemplateSource adapts a template as a replay Source/OpsSource.
// Cursors stream a rank's records straight off the role body — guards,
// affines and parameters evaluated on the fly, no per-rank op slice —
// while RankOps (the fast-forward engine's structured view)
// materializes a rank's folded ops lazily and caches them. A
// TemplateSource may be shared by concurrent replays; the cache is
// synchronized and the template itself is immutable.
type TemplateSource struct {
	tpl *Template

	mu  sync.Mutex
	ops [][]Op
}

// Source wraps the template for replay, validating it once so that
// later cursor traversal and instantiation cannot fail.
func (t *Template) Source() (*TemplateSource, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &TemplateSource{tpl: t, ops: make([][]Op, t.World)}, nil
}

// Template returns the underlying template.
func (s *TemplateSource) Template() *Template { return s.tpl }

// Ranks implements Source.
func (s *TemplateSource) Ranks() int { return s.tpl.World }

// Cursor implements Source: a streaming walk of the rank's role body
// in O(nesting depth) memory.
func (s *TemplateSource) Cursor(rank int) Cursor {
	cls, err := s.tpl.ClassOf(rank)
	if err != nil {
		// Validate ran in Source; an unresolvable rank cannot occur on
		// a constructed source. Yield an empty cursor defensively.
		return &tplCursor{}
	}
	c := &tplCursor{tpl: s.tpl, rank: rank, params: s.tpl.effectiveParams(cls, rank)}
	c.stack = append(c.stack, tplFrame{ops: s.tpl.Roles[cls.Role], left: 1})
	return c
}

// RankOps implements OpsSource, materializing (and caching) the
// rank's folded ops on first use.
func (s *TemplateSource) RankOps(rank int) []Op {
	if rank < 0 || rank >= s.tpl.World {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ops[rank] == nil {
		ops, err := s.tpl.InstantiateRank(rank)
		if err != nil {
			// Unreachable after Source's Validate; keep the cache
			// non-nil so the failure is not retried.
			ops = []Op{}
		}
		s.ops[rank] = ops
	}
	return s.ops[rank]
}

type tplFrame struct {
	ops  []TOp
	idx  int
	left int64 // iterations remaining, including the current one
}

// tplCursor streams one rank's records from the template. Errors
// cannot occur on a validated template (Source validates); the
// defensive paths end the stream early.
type tplCursor struct {
	tpl    *Template
	rank   int
	params []float64
	stack  []tplFrame
	rec    Record
	n      int
}

func (c *tplCursor) Next() bool {
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.idx >= len(f.ops) {
			f.left--
			if f.left > 0 {
				f.idx = 0
				continue
			}
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		op := &f.ops[f.idx]
		f.idx++
		ok, err := op.guarded(c.rank, c.tpl.World)
		if err != nil || !ok {
			continue
		}
		count, err := op.Count.Eval(c.rank, c.tpl.World)
		if err != nil || count <= 0 || count > maxBinaryCount {
			continue
		}
		switch {
		case op.Ref != 0:
			c.stack = append(c.stack, tplFrame{ops: c.tpl.Roles[op.Ref-1], left: count})
		case len(op.Body) > 0:
			c.stack = append(c.stack, tplFrame{ops: op.Body, left: count})
		default:
			rec := Record{Kind: op.Kind}
			switch op.Kind {
			case KindCompute:
				if rec.NS, err = op.NS.resolve(c.params); err != nil {
					continue
				}
			case KindSend, KindRecv:
				peer, err := op.Peer.Eval(c.rank, c.tpl.World)
				if err != nil || peer < 0 || peer > maxBinaryPeer {
					continue
				}
				rec.Peer = int(peer)
				if rec.Bytes, err = op.Bytes.resolve(c.params); err != nil {
					continue
				}
			}
			c.rec, c.n = rec, int(count)
			return true
		}
	}
	return false
}

func (c *tplCursor) Run() (Record, int) { return c.rec, c.n }
