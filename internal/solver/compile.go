package solver

import (
	"sync"

	"warrow/internal/eqn"
)

// compiled is the dense index-compiled representation of a finite system,
// built once per solve: unknowns are renumbered to their positions 0..n-1
// in the linear order, the assignment becomes a flat slice indexed by
// position, right-hand sides are resolved into a slice, and the influence
// sets are flattened into CSR form (one []int32 data array plus offsets).
// Everything a hot loop touches per evaluation is an array access; hashing
// survives only inside the get callback, which must translate the X-typed
// reads of a right-hand side back to positions.
//
// The compiled representation is an execution detail: results, Stats,
// checkpoints and abort reports are those of the paper's algorithms over
// maps (see DESIGN.md §10; internal/diffsolve compares every loop with a
// map-based transcription of Figs. 1–4), and the wire format still speaks
// X-space, so checkpoints cross freely between the value stores.
type compiled[X comparable, D any] struct {
	*denseShape[X, D]
	sys  *eqn.System[X, D]
	init func(X) D
	// vals is the assignment, indexed by order position.
	vals []D
}

// denseShape is the shape-derived part of the compiled representation,
// memoized on the System (eqn.ShapeMemo) so repeated solves of the same
// system pay for the CSR build exactly once.
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
	// release methods and the regression benchmark in alloc_test.go.
	valsPool  sync.Pool
	wordsPool sync.Pool
}

// denseShapeKey is the ShapeMemo slot the compiled shape lives under.
const denseShapeKey = "solver.denseShape"

// compile builds the dense representation and the initial assignment. The
// shape part is memoized on the System; only the assignment slice is fresh
// per solve.
func compile[X comparable, D any](sys *eqn.System[X, D], init func(X) D) *compiled[X, D] {
	sh := sys.ShapeMemo(denseShapeKey, func() any { return buildDenseShape(sys) }).(*denseShape[X, D])
	var vals []D
	if v, ok := sh.valsPool.Get().([]D); ok && len(v) == len(sh.order) {
		vals = v
	} else {
		vals = make([]D, len(sh.order))
	}
	c := &compiled[X, D]{denseShape: sh, sys: sys, init: init, vals: vals}
	for i, x := range sh.order {
		c.vals[i] = init(x)
	}
	return c
}

// release returns the assignment slice to the shape's pool. Callers must
// not touch c.vals afterwards; snapshots and sigma maps taken earlier are
// safe because they copied the values out.
func (c *compiled[X, D]) release() {
	if c.vals == nil {
		return
	}
	c.valsPool.Put(c.vals)
	c.vals = nil
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
	for i, x := range order {
		sh.rhs[i] = sys.RHS(x)
		sh.rawRHS[i] = sys.RawRHSOf(x)
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

// sigmaMap renders the dense assignment back into the map the public API
// returns.
func (c *compiled[X, D]) sigmaMap() map[X]D {
	sigma := make(map[X]D, len(c.order))
	for i, x := range c.order {
		sigma[x] = c.vals[i]
	}
	return sigma
}

// denseEval is the reusable evaluation closure pair of one dense run (or,
// under PSW, of one stratum): get translates a right-hand side's X-typed
// reads to slice accesses, and thunk evaluates the unknown cur points at.
// Both closures are allocated once and reused for every evaluation.
type denseEval[X comparable, D any] struct {
	cur   int
	get   func(X) D
	thunk func() D
}

// evaluator builds the closure pair. PSW workers call this per stratum:
// cur is worker-local while vals may be read concurrently (strata write
// disjoint ranges; see psw.go for the hand-off argument).
func (c *compiled[X, D]) evaluator() *denseEval[X, D] {
	e := &denseEval[X, D]{}
	if c.identInt {
		// X is int and order[i] == i, so an unknown is its own position:
		// get degenerates to a bounds-checked slice load, with the bounds
		// failure path (an unknown outside the system) falling back to σ₀
		// exactly like the map lookup miss below. The assertions cannot
		// fail — identInt is only set when X's dynamic type is int.
		vals, initInt := c.vals, any(c.init).(func(int) D)
		e.get = any(func(y int) D {
			if uint(y) < uint(len(vals)) {
				return vals[y]
			}
			return initInt(y)
		}).(func(X) D)
	} else {
		e.get = func(y X) D {
			if j, ok := c.idx[y]; ok {
				return c.vals[j]
			}
			return c.init(y)
		}
	}
	e.thunk = func() D { return c.rhs[e.cur](e.get) }
	return e
}
