package solver

import (
	"sync"

	"warrow/internal/eqn"
)

// denseShape is the shape-derived part of the compiled representation of
// a finite system, memoized on the System (eqn.ShapeMemo) so repeated
// solves of the same system pay for it exactly once: unknowns are
// renumbered to their positions 0..n-1 in the linear order, right-hand
// sides are resolved into a slice, and the influence sets are flattened
// into CSR form (one []int32 data array plus offsets). The assignment is a
// store indexed by position (valuerep.go). Everything a hot loop touches
// per evaluation is an array access; hashing survives only inside the get
// callback, which must translate the X-typed reads of a right-hand side
// back to positions.
//
// The compiled representation is an execution detail: results, Stats,
// checkpoints and abort reports are those of the paper's algorithms over
// maps (see DESIGN.md §10; internal/diffsolve compares every loop with a
// map-based transcription of Figs. 1–4), and the wire format still speaks
// X-space, so checkpoints cross freely between the value stores.
type denseShape[X comparable, D any] struct {
	order []X
	idx   map[X]int
	rhs   []eqn.RHS[X, D]
	// inflOff/inflDat are the CSR influence sets, shared with the system's
	// eqn.InflCSR: the readers of unknown i (i itself first, per eqn.Infl)
	// are inflDat[inflOff[i]:inflOff[i+1]].
	inflOff []int32
	inflDat []int32
	// identInt marks systems whose unknowns are ints forming the identity
	// permutation (order[i] == i): there get needs no hash translation at
	// all — an unknown IS its position (see evaluator).
	identInt bool
	// rawRHS holds the fused unboxed right-hand sides (eqn.AttachRaw) by
	// order position; nil entries go through the boxed boundary adapter.
	rawRHS []eqn.RawRHS[X]
	// valsPool and wordsPool recycle the per-solve value stores (the boxed
	// []D assignment and the unboxed word store). Without them every solve
	// of a memoized shape pays a fresh n-element allocation; see the
	// store's release and the regression benchmark in alloc_test.go.
	valsPool  sync.Pool
	wordsPool sync.Pool
}

// denseShapeKey is the ShapeMemo slot the compiled shape lives under.
const denseShapeKey = "solver.denseShape"

// shapeOf returns the system's memoized dense shape.
func shapeOf[X comparable, D any](sys *eqn.System[X, D]) *denseShape[X, D] {
	return sys.ShapeMemo(denseShapeKey, func() any { return buildDenseShape(sys) }).(*denseShape[X, D])
}

// buildDenseShape compiles the shape: right-hand sides by position and the
// influence rows of the defined unknowns, taken unchanged from the system's
// memoized eqn.InflCSR — row i is i itself, then its readers by ascending
// position, each once, exactly eqn.Infl's list mapped through Index.
func buildDenseShape[X comparable, D any](sys *eqn.System[X, D]) *denseShape[X, D] {
	order := sys.Order()
	n := len(order)
	c := sys.InflCSR()
	sh := &denseShape[X, D]{
		order:    order,
		idx:      sys.Index(),
		rhs:      make([]eqn.RHS[X, D], n),
		rawRHS:   make([]eqn.RawRHS[X], n),
		inflOff:  c.Off[:n+1],
		inflDat:  c.Dat[:c.Off[n]],
		identInt: eqn.IsIdentInt(order),
	}
	for i := range order {
		sh.rhs[i], sh.rawRHS[i] = sys.EquationAt(i)
	}
	return sh
}

// PatchRHS implements eqn.RHSPatcher: a same-dependences Redefine replaces
// exactly one right-hand-side slot, so the memoized shape — order, CSR
// influence rows, pools and all — stays live across the edit instead of
// being rebuilt. Patching is mutation of shared state: like any edit to a
// system, it must not race a solve running on the same shape.
func (sh *denseShape[X, D]) PatchRHS(i int, rhs eqn.RHS[X, D], raw eqn.RawRHS[X]) {
	sh.rhs[i] = rhs
	sh.rawRHS[i] = raw
}

// infl returns the CSR row of unknown i: the positions of its readers, in
// the exact order eqn.Infl lists them.
func (sh *denseShape[X, D]) infl(i int) []int32 {
	return sh.inflDat[sh.inflOff[i]:sh.inflOff[i+1]]
}

// scope is the index space one compiled run iterates over. For an ordinary
// solve it is the whole system: local positions are order positions and
// the rows are the shape's. For a cone of the incremental engine (see
// Live), local position k sits over the parent position pos[k], ascending,
// and row k is the parent's row of pos[k] restricted to the cone and
// renumbered: exactly the influence row of the subsystem eqn would build
// from the cone's unknowns. The loops therefore schedule a cone — queue,
// cursor, strata and checkpoint indices alike — as they would schedule that
// subsystem, while the store keeps every unknown at its parent position.
type scope[X comparable, D any] struct {
	sh  *denseShape[X, D]
	sys *eqn.System[X, D]
	// n is the number of local positions; row i is dat[off[i]:off[i+1]].
	n        int
	off, dat []int32
	// pos maps local positions to parent positions; nil for the whole
	// system, where the two coincide. local is its sparse inverse:
	// parent position p is local position k exactly when pos[k] == p and
	// local[p] == k, so entries left over from earlier cones need no
	// clearing.
	pos   []int
	local []int32
}

// wholeScope is the scope of an ordinary solve of sys.
func wholeScope[X comparable, D any](sys *eqn.System[X, D], sh *denseShape[X, D]) scope[X, D] {
	return scope[X, D]{sh: sh, sys: sys, n: len(sh.order), off: sh.inflOff, dat: sh.inflDat}
}

// infl returns the readers of local position i, itself first, in local
// positions.
func (sc *scope[X, D]) infl(i int) []int32 { return sc.dat[sc.off[i]:sc.off[i+1]] }

// parent returns the order position of local position i.
func (sc *scope[X, D]) parent(i int) int {
	if sc.pos == nil {
		return i
	}
	return sc.pos[i]
}

// localOf returns the local position of parent position p, if the scope
// holds it.
func (sc *scope[X, D]) localOf(p int) (int, bool) {
	if sc.pos == nil {
		return p, true
	}
	k := sc.local[p]
	return int(k), uint(k) < uint(len(sc.pos)) && sc.pos[k] == p
}

// lookup returns the local position of unknown x, if the scope holds it.
func (sc *scope[X, D]) lookup(x X) (int, bool) {
	p, ok := sc.sh.idx[x]
	if !ok {
		return 0, false
	}
	return sc.localOf(p)
}

// fingerprint is the Fingerprint of the system the scope solves: the
// shape hash of the whole system, or of the subsystem of the cone's
// unknowns, computed only when a checkpoint needs it.
func (sc *scope[X, D]) fingerprint() uint64 {
	if sc.pos == nil {
		return sc.sys.ShapeHash()
	}
	return sc.sys.ShapeHashOf(sc.pos)
}

// decomposition returns the decomposition of the scope's dependence graph:
// the system's memoized one, or, for a cone, one built from the cone's
// dependences on one another — the subsystem's, stratum for stratum and
// component for component.
func (sc *scope[X, D]) decomposition() *Decomposition {
	if sc.pos == nil {
		return DecompositionOf(sc.sys)
	}
	adj := sc.sys.DepGraph()
	edges := 0
	for _, p := range sc.pos {
		edges += len(adj[p])
	}
	rows := make([][]int, sc.n)
	dat := make([]int, 0, edges)
	for k, p := range sc.pos {
		lo := len(dat)
		for _, j := range adj[p] {
			if l, ok := sc.localOf(j); ok {
				dat = append(dat, l)
			}
		}
		rows[k] = dat[lo:len(dat):len(dat)]
	}
	return newDecomposition(func() [][]int { return rows }, sc.off, sc.dat)
}

// denseEval is the reusable evaluation closure pair of one dense run (under
// PSW and CPW, of one worker): get translates a
// right-hand side's X-typed reads to slice accesses, and thunk evaluates the
// unknown cur points at. Both closures are allocated once and reused for
// every evaluation.
type denseEval[X comparable, D any] struct {
	cur   int
	get   func(X) D
	thunk func() D
}

// evaluator builds the closure pair over the boxed form. PSW and CPW
// workers each call it once per run, so cur is worker-local. Under PSW,
// vals may be read concurrently (strata write disjoint ranges; see psw.go
// for the hand-off argument); CPW's workers read a shared store through
// its atomic pointers.
func (bc *boxedCore[X, D]) evaluator() *denseEval[X, D] {
	e := &denseEval[X, D]{}
	switch {
	case bc.identInt && bc.ptrs != nil:
		ptrs, initInt := bc.ptrs, any(bc.init).(func(int) D)
		e.get = any(func(y int) D {
			if uint(y) < uint(len(ptrs)) {
				return *ptrs[y].Load()
			}
			return initInt(y)
		}).(func(X) D)
	case bc.ptrs != nil:
		e.get = func(y X) D {
			if j, ok := bc.idx[y]; ok {
				return *bc.ptrs[j].Load()
			}
			return bc.init(y)
		}
	case bc.identInt:
		// X is int and order[i] == i, so an unknown is its own position:
		// get degenerates to a bounds-checked slice load, with the bounds
		// failure path (an unknown outside the system) falling back to σ₀
		// exactly like the map lookup miss below. The assertions cannot
		// fail — identInt is only set when X's dynamic type is int.
		vals, initInt := bc.vals, any(bc.init).(func(int) D)
		e.get = any(func(y int) D {
			if uint(y) < uint(len(vals)) {
				return vals[y]
			}
			return initInt(y)
		}).(func(X) D)
	default:
		e.get = func(y X) D {
			if j, ok := bc.idx[y]; ok {
				return bc.vals[j]
			}
			return bc.init(y)
		}
	}
	e.thunk = func() D { return bc.rhs[e.cur](e.get) }
	return e
}
