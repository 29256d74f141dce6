// Package eqn represents systems of equations x = fₓ over an arbitrary
// value domain, in the three flavours used by the paper's solvers:
//
//   - System: a finite system with statically declared dependences, as
//     required by the global solvers RR, W, SRR and SW;
//   - Pure: a possibly infinite system whose right-hand sides are pure in
//     the sense of Hofmann, Karbyshev and Seidl — they interact with the
//     current assignment only through a get callback, so dependences can be
//     discovered on the fly by the local solvers RLD and SLR;
//   - Sides: a side-effecting system whose right-hand sides may additionally
//     contribute values to other unknowns through a side callback, solved by
//     SLR⁺.
//
// The package also provides solution verifiers used throughout the tests:
// a ⊞-solution for a binary operator ⊞ satisfies σ[x] = σ[x] ⊞ fₓ(σ) for
// all x, and a post-solution satisfies fₓ(σ) ⊑ σ[x].
package eqn

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"sync"

	"warrow/internal/lattice"
)

// RHS is a pure right-hand side of an equation: it may observe the current
// assignment only through get.
type RHS[X comparable, D any] func(get func(X) D) D

// SideRHS is a right-hand side that may additionally produce side effects:
// side(z, d) contributes the value d to the unknown z. Per the paper's
// convention, a right-hand side must not side-effect its own left-hand side
// and contributes to each other unknown at most once per evaluation.
type SideRHS[X comparable, D any] func(get func(X) D, side func(z X, d D)) D

// RawRHS is the fused unboxed form of a right-hand side: it reads the
// raw-encoded values of other unknowns through get (a slice of the
// lattice's RawWords() words, valid only until the next get call or the
// end of the evaluation) and writes the raw-encoded result into dst. A
// RawRHS attached via AttachRaw must compute exactly the same value as the
// boxed RHS it shadows — the unboxed solver core relies on this for bit
// identity, and the eqgen/eqdsl generators pin it with differential tests.
type RawRHS[X comparable] func(get func(X) []uint64, dst []uint64)

// Pure is a possibly infinite system of pure equations: it maps an unknown
// to its right-hand side, or nil if the unknown has no equation (its value
// stays at the initial assignment).
type Pure[X comparable, D any] func(x X) RHS[X, D]

// Sides is a possibly infinite system of side-effecting equations.
type Sides[X comparable, D any] func(x X) SideRHS[X, D]

// System is a finite system of equations with statically known dependences,
// in a fixed linear order x₁, …, xₙ. The order matters: SRR and SW iterate
// along it, so it should list innermost-loop unknowns first (Bourdoncle).
type System[X comparable, D any] struct {
	order []X
	// idx is the position of every defined unknown in order. Define grows
	// it in place and Index returns it: the order never changes once
	// defined, so no edit invalidates it.
	idx map[X]int
	// rhs, deps and raw hold the equations by position: the right-hand
	// side, its declared dependences and its fused unboxed twin (attached
	// via AttachRaw; nil entries are evaluated through the boxed boundary
	// adapter instead).
	rhs  []RHS[X, D]
	deps [][]X
	raw  []RawRHS[X]

	// Derived views (InflCSR, Infl, DepGraph, ShapeHash) are memoized:
	// solvers request them once per solve, and recomputing them is
	// O(edges) each time. The caches are invalidated by Define and built
	// lazily under mu, so several solver runs may share one System
	// concurrently once it is fully defined. Callers must treat the
	// returned maps and slices as read-only.
	mu       sync.Mutex
	inflCSR  *InflCSR[X]
	infl     map[X][]X
	depGraph [][]int
	shapeFP  uint64
	hasFP    bool
	memo     map[string]any

	// journal records every unknown that gained or replaced an equation
	// (Define and Redefine), in order. Its length is the system's version;
	// EditsSince(v) returns the suffix an incremental consumer has not yet
	// absorbed. AttachRaw is not journaled: a fused twin must compute the
	// same value as the boxed form, so attaching one changes no solution.
	journal []X
}

// NewSystem returns an empty finite system.
func NewSystem[X comparable, D any]() *System[X, D] {
	return &System[X, D]{idx: make(map[X]int)}
}

// Define appends the equation x = rhs with the given static dependence set
// (a superset of the unknowns rhs actually reads). Defining the same
// unknown twice panics: equations are single-assignment.
func (s *System[X, D]) Define(x X, deps []X, rhs RHS[X, D]) *System[X, D] {
	if _, dup := s.idx[x]; dup {
		panic(fmt.Sprintf("eqn: duplicate definition of %v", x))
	}
	s.idx[x] = len(s.order)
	s.order = append(s.order, x)
	s.rhs = append(s.rhs, rhs)
	s.deps = append(s.deps, append([]X(nil), deps...))
	s.raw = append(s.raw, nil)
	s.mu.Lock()
	s.inflCSR, s.infl, s.depGraph, s.hasFP, s.memo = nil, nil, nil, false, nil
	s.journal = append(s.journal, x)
	s.mu.Unlock()
	return s
}

// RHSPatcher is implemented by memoized shape derivatives (values stored via
// ShapeMemo) that can absorb a same-dependences redefinition in place: when
// Redefine replaces the right-hand side of the i-th unknown without touching
// its dependence list, the system shape is unchanged, so a compiled
// representation stays valid except for the one right-hand-side slot.
// PatchRHS must replace that slot (raw is the fused unboxed twin, or nil if
// the new equation has none). Memo values that do not implement the
// interface are dropped instead and rebuilt on next use.
type RHSPatcher[X comparable, D any] interface {
	PatchRHS(i int, rhs RHS[X, D], raw RawRHS[X])
}

// Redefine replaces the equation of an already-defined unknown, keeping its
// position in the linear order. It panics if x is not defined — Define is
// for new unknowns, Redefine for edits.
//
// Invalidation is as granular as the edit: when deps equals the current
// dependence list element-for-element, the system shape is unchanged, so
// Index, InflCSR, Infl, DepGraph and ShapeHash all stay memoized and
// shape-derived memo values implementing RHSPatcher are patched in place
// (any others are dropped). A changed dependence list invalidates the shape
// derivatives wholesale, exactly like Define. Either way the edit is journaled for
// EditsSince. The previously attached fused raw form, if any, is removed:
// it computed the old equation. Use RedefineRaw to supply the new twin in
// the same step.
func (s *System[X, D]) Redefine(x X, deps []X, rhs RHS[X, D]) *System[X, D] {
	return s.redefine(x, deps, rhs, nil)
}

// RedefineRaw is Redefine with a fused unboxed twin of the new right-hand
// side, the edit-time analogue of Define followed by AttachRaw — in one step
// so a same-dependences edit patches compiled shapes in place instead of
// discarding them (AttachRaw alone must invalidate wholesale, since it
// cannot know the previous raw form is obsolete).
func (s *System[X, D]) RedefineRaw(x X, deps []X, rhs RHS[X, D], raw RawRHS[X]) *System[X, D] {
	return s.redefine(x, deps, rhs, raw)
}

func (s *System[X, D]) redefine(x X, deps []X, rhs RHS[X, D], raw RawRHS[X]) *System[X, D] {
	i, ok := s.idx[x]
	if !ok {
		panic(fmt.Sprintf("eqn: Redefine of undefined unknown %v", x))
	}
	sameDeps := slices.Equal(deps, s.deps[i])
	s.rhs[i], s.raw[i] = rhs, raw
	if !sameDeps {
		s.deps[i] = append([]X(nil), deps...)
	}
	// Index is the position map, which Redefine never changes, so it
	// survives every edit; the remaining shape derivatives survive only
	// same-dependences edits.
	s.mu.Lock()
	if sameDeps {
		for key, v := range s.memo {
			if p, ok := v.(RHSPatcher[X, D]); ok {
				p.PatchRHS(i, rhs, raw)
			} else {
				delete(s.memo, key)
			}
		}
	} else {
		s.inflCSR, s.infl, s.depGraph, s.hasFP, s.memo = nil, nil, nil, false, nil
	}
	s.journal = append(s.journal, x)
	s.mu.Unlock()
	return s
}

// Version is the number of journaled edits (Define and Redefine calls). A
// consumer that recorded Version v can later ask EditsSince(v) for exactly
// the unknowns edited in between.
func (s *System[X, D]) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.journal))
}

// EditsSince returns the unknowns defined or redefined after version v (a
// value previously returned by Version), in edit order, possibly with
// repeats. It is the hook incremental consumers use to pick up edits applied
// directly to the system rather than routed through them.
func (s *System[X, D]) EditsSince(v uint64) []X {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v >= uint64(len(s.journal)) {
		return nil
	}
	return append([]X(nil), s.journal[v:]...)
}

// AttachRaw attaches the fused unboxed form of x's right-hand side. The
// unknown must already be defined, and raw must compute exactly the value
// the boxed RHS computes (same reads, same result) — AttachRaw declares
// that equivalence, it cannot check it. Attaching invalidates memoized
// shape derivatives so compiled solver cores pick the fused form up.
func (s *System[X, D]) AttachRaw(x X, raw RawRHS[X]) *System[X, D] {
	i, ok := s.idx[x]
	if !ok {
		panic(fmt.Sprintf("eqn: AttachRaw for undefined unknown %v", x))
	}
	s.raw[i] = raw
	s.mu.Lock()
	s.memo = nil
	s.mu.Unlock()
	return s
}

// RawRHSOf returns the fused unboxed right-hand side of x, or nil if none
// was attached or x is not defined.
func (s *System[X, D]) RawRHSOf(x X) RawRHS[X] {
	if i, ok := s.idx[x]; ok {
		return s.raw[i]
	}
	return nil
}

// ShapeMemo caches an arbitrary value derived from the system shape under
// key, built by build on the first call and invalidated by Define — the
// hook solvers use to keep their compiled representations across solves.
// build runs outside the lock (it may call Index, Infl or DepGraph); if two
// goroutines race to build, the first stored value wins and the loser's
// result is discarded, so build must be pure.
func (s *System[X, D]) ShapeMemo(key string, build func() any) any {
	s.mu.Lock()
	if v, ok := s.memo[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := build()
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.memo[key]; ok {
		return w
	}
	if s.memo == nil {
		s.memo = make(map[string]any)
	}
	s.memo[key] = v
	return v
}

// Order returns the unknowns in definition order.
func (s *System[X, D]) Order() []X { return s.order }

// Len returns the number of equations.
func (s *System[X, D]) Len() int { return len(s.order) }

// RHS returns the right-hand side of x, or nil if x is not defined.
func (s *System[X, D]) RHS(x X) RHS[X, D] {
	if i, ok := s.idx[x]; ok {
		return s.rhs[i]
	}
	return nil
}

// EquationAt returns the right-hand side and the fused unboxed twin (nil
// if none was attached) of the unknown at position i of the linear order.
func (s *System[X, D]) EquationAt(i int) (RHS[X, D], RawRHS[X]) { return s.rhs[i], s.raw[i] }

// Deps returns the declared dependences of x, or nil if x is not defined.
func (s *System[X, D]) Deps(x X) []X {
	if i, ok := s.idx[x]; ok {
		return s.deps[i]
	}
	return nil
}

// Index returns the position of every defined unknown in the linear order.
// It is the system's own position map, which Define grows in place: it
// stays current across edits. Treat it as read-only.
func (s *System[X, D]) Index() map[X]int { return s.idx }

// DepGraph returns the static dependence graph in index space: adj[i] lists
// the order indices of the unknowns the right-hand side of the i-th unknown
// may read. Dependences on undefined unknowns are omitted — they hold their
// initial value throughout any solve and impose no ordering constraint.
// The graph is memoized until the next Define; treat it as read-only.
func (s *System[X, D]) DepGraph() [][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.depGraph == nil {
		// All rows share one backing array, each capped at its end.
		edges := 0
		for _, deps := range s.deps {
			edges += len(deps)
		}
		adj := make([][]int, len(s.order))
		dat := make([]int, 0, edges)
		pos := s.posOf()
		for i, deps := range s.deps {
			lo := len(dat)
			for _, y := range deps {
				if j, ok := pos(y); ok {
					dat = append(dat, j)
				}
			}
			adj[i] = dat[lo:len(dat):len(dat)]
		}
		s.depGraph = adj
	}
	return s.depGraph
}

// Infl returns the influence sets: Infl[y] contains y itself together with
// every x whose right-hand side depends on y (the sets infl_y of the paper,
// which include y as a precaution for non-idempotent operators). Each set
// lists y first, then its readers by ascending position, without
// duplicates; an undefined unknown that some equation reads has an entry
// of its readers only. It is InflCSR mapped to keys.
// The map is memoized until the next Define; treat it as read-only.
func (s *System[X, D]) Infl() map[X][]X {
	c := s.InflCSR()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.infl == nil {
		n := len(s.order)
		back := make([]X, len(c.Dat))
		for k, r := range c.Dat {
			back[k] = s.order[r]
		}
		set := func(r int) []X { return back[c.Off[r]:c.Off[r+1]:c.Off[r+1]] }
		infl := make(map[X][]X, n+len(c.Undef))
		for i, x := range s.order {
			infl[x] = set(i)
		}
		for k, y := range c.Undef {
			infl[y] = set(n + k)
		}
		s.infl = infl
	}
	return s.infl
}

// InflCSR is the influence relation in index space, the one structure Infl,
// the compiled solver cores and the dirty-cone computation all read. Row r
// is Dat[Off[r]:Off[r+1]]. Rows 0..n-1 belong to the defined unknowns by
// position and list the unknown itself, then its readers by ascending
// position, each once. Rows n.. belong to the undefined unknowns some
// equation reads, Undef[r-n], in first-read order, and list their readers
// only. Treat it as read-only.
type InflCSR[X comparable] struct {
	Off, Dat []int32
	Undef    []X
}

// InflCSR returns the system's influence relation in index space. It is
// memoized until the next Define, or the next Redefine that changes a
// dependence list.
func (s *System[X, D]) InflCSR() *InflCSR[X] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflCSR == nil {
		s.inflCSR = s.buildInflCSR()
	}
	return s.inflCSR
}

// posOf returns the position lookup of the system's unknowns: the
// position map, or, for identity-int systems (IsIdentInt), where an unknown
// is its own position, a range check.
func (s *System[X, D]) posOf() func(X) (int, bool) {
	if IsIdentInt(s.order) {
		n := len(s.order)
		return any(func(y int) (int, bool) { return y, uint(y) < uint(n) }).(func(X) (int, bool))
	}
	return func(y X) (int, bool) {
		i, ok := s.idx[y]
		return i, ok
	}
}

// buildInflCSR translates every dependence to its row once — by position,
// or, for an undefined unknown, by a row numbered from n in first-read
// order — and hands the row lists to inflRows.
func (s *System[X, D]) buildInflCSR() *InflCSR[X] {
	n := len(s.order)
	c := &InflCSR[X]{}
	row := s.posOf()
	edges := 0
	for _, deps := range s.deps {
		edges += len(deps)
	}
	depOff := make([]int32, n+1)
	depRow := make([]int32, 0, edges)
	var undef map[X]int
	for i, deps := range s.deps {
		for _, y := range deps {
			r, ok := row(y)
			if !ok {
				if r, ok = undef[y]; !ok {
					if undef == nil {
						undef = make(map[X]int)
					}
					r = n + len(c.Undef)
					undef[y] = r
					c.Undef = append(c.Undef, y)
				}
			}
			depRow = append(depRow, int32(r))
		}
		depOff[i+1] = int32(len(depRow))
	}
	c.Off, c.Dat = inflRows(n, n+len(c.Undef), depOff, depRow)
	return c
}

// InflOf builds the influence rows of a dependence graph given in index
// space, as DepGraph returns it: row j lists j itself, then every i with j
// in adj[i], ascending, each once.
func InflOf(adj [][]int) (off, dat []int32) {
	n := len(adj)
	depOff := make([]int32, n+1)
	var depRow []int32
	for i, row := range adj {
		for _, j := range row {
			depRow = append(depRow, int32(j))
		}
		depOff[i+1] = int32(len(depRow))
	}
	return inflRows(n, n, depOff, depRow)
}

// inflRows builds influence rows from dependence lists in row space: the
// i-th of n readers reads rows depRow[depOff[i]:depOff[i+1]]. Row r < n
// starts with r itself; every row then lists its readers by ascending
// position, each once. A count pass sizes the rows and a fill pass writes
// them. Readers are visited in ascending order and all dependences of one
// reader together, so a duplicate can only repeat the last reader written;
// a self-dependence is already the row's leading entry and is skipped.
func inflRows(n, rows int, depOff, depRow []int32) (off, dat []int32) {
	off = make([]int32, rows+1)
	// last[r] is the last reader counted in row r, then row r's write
	// cursor.
	last := make([]int32, rows)
	for r := range last {
		last[r] = -1
		if r < n {
			off[r+1] = 1
		}
	}
	for i := 0; i < n; i++ {
		for _, r := range depRow[depOff[i]:depOff[i+1]] {
			if int(r) != i && last[r] != int32(i) {
				last[r] = int32(i)
				off[r+1]++
			}
		}
	}
	for r := 0; r < rows; r++ {
		off[r+1] += off[r]
	}
	dat = make([]int32, off[rows])
	for r := range last {
		last[r] = off[r]
		if r < n {
			dat[last[r]] = int32(r)
			last[r]++
		}
	}
	for i := 0; i < n; i++ {
		for _, r := range depRow[depOff[i]:depOff[i+1]] {
			if w := last[r]; int(r) != i && (w == off[r] || dat[w-1] != int32(i)) {
				dat[w] = int32(i)
				last[r]++
			}
		}
	}
	return off, dat
}

// IsIdentInt reports whether the unknowns are the ints 0..n-1 in order, so
// that an unknown is its own position.
func IsIdentInt[X comparable](order []X) bool {
	ints, ok := any(order).([]int)
	if !ok {
		return false
	}
	for i, x := range ints {
		if x != i {
			return false
		}
	}
	return true
}

// ShapeHash returns the FNV-64a hash of the system shape — the rendered
// linear order and every dependence list. Values and right-hand sides are
// deliberately not hashed: checkpoint warm restarts (solver.Fingerprint
// persists this hash on the wire) must survive an environment that healed.
// Each unknown contributes the line "x;d₁,d₂,…,\n" with every key in its
// %v rendering; int and string keys are rendered without fmt, to the same
// bytes. The hash is memoized until the next Define.
func (s *System[X, D]) ShapeHash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasFP {
		s.shapeFP = s.hashShape(true, nil)
		s.hasFP = true
	}
	return s.shapeFP
}

// ShapeHashOf returns the ShapeHash of the subsystem of the unknowns at the
// given positions, in that order — the system Define would build from
// their equations and full dependence lists — without building it. A nil
// or empty pos is the empty system. It is not memoized.
func (s *System[X, D]) ShapeHashOf(pos []int) uint64 { return s.hashShape(false, pos) }

// hashShape hashes the lines of every unknown when all is set, else of the
// unknowns at pos.
func (s *System[X, D]) hashShape(all bool, pos []int) uint64 {
	appendKey := func(b []byte, x X) []byte { return fmt.Appendf(b, "%v", x) }
	var zero X
	switch any(zero).(type) {
	case int:
		appendKey = any(func(b []byte, x int) []byte { return strconv.AppendInt(b, int64(x), 10) }).(func([]byte, X) []byte)
	case string:
		appendKey = any(func(b []byte, x string) []byte { return append(b, x...) }).(func([]byte, X) []byte)
	}
	n := len(pos)
	if all {
		n = len(s.order)
	}
	h := fnv.New64a()
	var line []byte
	for k := 0; k < n; k++ {
		i := k
		if !all {
			i = pos[k]
		}
		line = append(appendKey(line[:0], s.order[i]), ';')
		for _, d := range s.deps[i] {
			line = append(appendKey(line, d), ',')
		}
		line = append(line, '\n')
		h.Write(line)
	}
	return h.Sum64()
}

// Eval evaluates the right-hand side of x under the assignment σ, reading
// absent unknowns as init(x).
func (s *System[X, D]) Eval(x X, sigma map[X]D, init func(X) D) D {
	get := func(y X) D {
		if v, ok := sigma[y]; ok {
			return v
		}
		return init(y)
	}
	return s.RHS(x)(get)
}

// AsPure views the finite system as a pure system for the local solvers.
func (s *System[X, D]) AsPure() Pure[X, D] { return s.RHS }

// AsSides views the pure system as a side-effecting one with no side
// effects, so SLR⁺ and certify.Sides accept it.
func (p Pure[X, D]) AsSides() Sides[X, D] {
	return func(x X) SideRHS[X, D] {
		rhs := p(x)
		if rhs == nil {
			return nil
		}
		return func(get func(X) D, _ func(X, D)) D { return rhs(get) }
	}
}

// ConstBottom returns an initial assignment mapping every unknown to the
// lattice's bottom element.
func ConstBottom[X comparable, D any](l lattice.Lattice[D]) func(X) D {
	return func(X) D { return l.Bottom() }
}

// Const returns an initial assignment mapping every unknown to d.
func Const[X comparable, D any](d D) func(X) D {
	return func(X) D { return d }
}

// IsPostSolution reports whether σ is a post-solution of the finite system:
// fₓ(σ) ⊑ σ[x] for every defined unknown, reading absent unknowns as
// init(x). On failure it returns the offending unknown.
func IsPostSolution[X comparable, D any](l lattice.Lattice[D], s *System[X, D], sigma map[X]D, init func(X) D) (X, bool) {
	get := func(y X) D {
		if v, ok := sigma[y]; ok {
			return v
		}
		return init(y)
	}
	for i, x := range s.order {
		if !l.Leq(s.rhs[i](get), get(x)) {
			return x, false
		}
	}
	var zero X
	return zero, true
}

// IsCombineSolution reports whether σ is a ⊞-solution of the finite system:
// σ[x] = σ[x] ⊞ fₓ(σ) for every defined unknown, where equality is the
// lattice's. On failure it returns the offending unknown.
func IsCombineSolution[X comparable, D any](l lattice.Lattice[D], combine func(old, new D) D, s *System[X, D], sigma map[X]D, init func(X) D) (X, bool) {
	get := func(y X) D {
		if v, ok := sigma[y]; ok {
			return v
		}
		return init(y)
	}
	for i, x := range s.order {
		if !l.Eq(get(x), combine(get(x), s.rhs[i](get))) {
			return x, false
		}
	}
	var zero X
	return zero, true
}

// IsPartialPostSolution reports whether (dom σ, σ) is a partial
// post-solution of the pure system: every defined unknown in dom satisfies
// fₓ(σ) ⊑ σ[x], and evaluation of fₓ touches only unknowns in dom.
func IsPartialPostSolution[X comparable, D any](l lattice.Lattice[D], sys Pure[X, D], sigma map[X]D) (X, bool) {
	for x := range sigma {
		rhs := sys(x)
		if rhs == nil {
			continue
		}
		escaped := false
		get := func(y X) D {
			v, ok := sigma[y]
			if !ok {
				escaped = true
			}
			return v
		}
		v := rhs(get)
		if escaped || !l.Leq(v, sigma[x]) {
			return x, false
		}
	}
	var zero X
	return zero, true
}
