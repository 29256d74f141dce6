package solver

import (
	"fmt"
	"sort"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// RR is the round-robin solver of Fig. 1: it repeatedly sweeps over all
// unknowns in order, performing update steps σ[x] ← σ[x] ⊞ fₓ(σ), until a
// full sweep changes nothing. RR is a generic solver, but with ⊟ it may
// fail to terminate even on finite monotonic systems (Example 1); the
// bounds in cfg (budget, deadline, cancellation, oscillation watchdog) turn
// such divergence into an AbortError alongside the partial assignment.
//
// Stats.Rounds counts every sweep that performed at least one evaluation:
// a sweep cut short by an abort is counted, so Rounds stays consistent with
// Evals on bounded runs (an abort at an exact sweep boundary, before the
// first evaluation of the next sweep, does not start a new round).
//
// Like all global solvers, RR runs on the dense index-compiled core for
// systems of at least denseMinUnknowns unknowns (override with Config.Core);
// both cores produce bit-identical results, Stats and checkpoints, and so
// do the dense core's boxed and unboxed value stores (see redoBoxed).
func RR[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	if cfg.useDense(sys.Len()) {
		return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return rrDense(sys, l, op, init, cfg) })
	}
	return rrMap(sys, l, op, init, cfg)
}

// rrMap is RR on the original map-based core, kept both as the tiny-system
// fast path and as the differential oracle the dense core is pinned against.
func rrMap[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	order := sys.Order()
	wd := newWatchdog(cfg, sys.Index())
	op = instrument(wd, l, op)
	g := newEvalGuard(cfg)
	ck := newCkptSink(cfg)
	var st Stats
	sigma := make(map[X]D, len(order))
	for _, x := range order {
		sigma[x] = init(x)
	}
	st.Unknowns = len(order)
	start, dirty := 0, false
	if cp, err := resumeCheckpoint(cfg, "rr", sys); err != nil {
		return sigma, st, err
	} else if cp != nil {
		for x, v := range cp.sigmaMap() {
			sigma[x] = v
		}
		cp.restoreStats(&st)
		start, dirty = cp.Cursor, cp.Dirty
		if start < 0 || start >= len(order) {
			return sigma, st, fmt.Errorf("%w: rr cursor %d out of range", ErrBadCheckpoint, start)
		}
	}
	// capture snapshots the interrupted sweep: k is the order index of the
	// next unknown to evaluate, dirty whether the sweep already changed
	// something. Captured only at scheduling points, never mid-evaluation.
	capture := func(k int, dirty bool) *Checkpoint[X, D] {
		c := snapshotGlobal("rr", sys, sigma, st)
		c.Cursor, c.Dirty = k, dirty
		return c
	}
	setCur, thunk := mapEvaluator(sys, sigma, init)
	for {
		evaled := false
		for k := start; k < len(order); k++ {
			x := order[k]
			if err := wd.check(st.Evals); err != nil {
				err = attachCheckpoint(err, capture(k, dirty))
				if evaled {
					st.Rounds++
				}
				return sigma, st, err
			}
			if ck.due(st.Evals) {
				ck.emit(st.Evals, capture(k, dirty))
			}
			setCur(x)
			rhsVal, attempts, ee := guardedEval(g, x, thunk)
			st.Retries += attempts - 1
			if ee != nil {
				err := attachCheckpoint(wd.failEval(ee, st.Evals), capture(k, dirty))
				if evaled {
					st.Rounds++
				}
				return sigma, st, err
			}
			st.Evals++
			evaled = true
			next := op.Apply(x, sigma[x], rhsVal)
			if !l.Eq(sigma[x], next) {
				sigma[x] = next
				st.Updates++
				dirty = true
			}
		}
		start = 0
		st.Rounds++
		if !dirty {
			return sigma, st, nil
		}
		dirty = false
	}
}

// mapEvaluator builds the reusable evaluation closures of one map-core run:
// get reads the live assignment, setCur resolves the right-hand side of the
// unknown about to be evaluated, and thunk performs the evaluation. The
// trio replaces the closure the solvers used to allocate per evaluation
// (hoisting is worth a heap allocation and a map-closure construction on
// every single evaluation; see BenchmarkEvalThunk).
func mapEvaluator[X comparable, D any](sys *eqn.System[X, D], sigma map[X]D, init func(X) D) (setCur func(X), thunk func() D) {
	get := func(y X) D {
		if v, ok := sigma[y]; ok {
			return v
		}
		return init(y)
	}
	var cur eqn.RHS[X, D]
	setCur = func(x X) { cur = sys.RHS(x) }
	thunk = func() D { return cur(get) }
	return setCur, thunk
}

// W is the worklist solver of Fig. 2 with a LIFO discipline: when the value
// of an unknown changes, all unknowns it influences (including itself, as a
// precaution for non-idempotent operators) are pushed. W is a generic
// solver, but with ⊟ it may fail to terminate even on finite monotonic
// systems (Example 2). Runs on the dense core for large systems (see RR).
func W[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	if cfg.useDense(sys.Len()) {
		return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return wDense(sys, l, op, init, cfg) })
	}
	return wMap(sys, l, op, init, cfg)
}

func wMap[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	order := sys.Order()
	wd := newWatchdog(cfg, sys.Index())
	op = instrument(wd, l, op)
	g := newEvalGuard(cfg)
	ck := newCkptSink(cfg)
	var st Stats
	sigma := make(map[X]D, len(order))
	for _, x := range order {
		sigma[x] = init(x)
	}
	st.Unknowns = len(order)
	infl := sys.Infl()

	stack := make([]X, 0, len(order))
	present := make(map[X]bool, len(order))
	push := func(x X) {
		if !present[x] {
			present[x] = true
			stack = append(stack, x)
		}
	}
	if cp, err := resumeCheckpoint(cfg, "w", sys); err != nil {
		return sigma, st, err
	} else if cp != nil {
		for x, v := range cp.sigmaMap() {
			sigma[x] = v
		}
		cp.restoreStats(&st)
		// cp.Queue holds the stack bottom-to-top; pushing in order restores
		// the exact LIFO state.
		for _, x := range cp.Queue {
			push(x)
		}
	} else {
		// Push in reverse so that x₁ is on top initially, matching the
		// paper's trace W = [x₁, x₂] where x₁ is extracted first.
		for i := len(order) - 1; i >= 0; i-- {
			push(order[i])
		}
		st.MaxQueue = len(stack)
	}
	capture := func() *Checkpoint[X, D] {
		c := snapshotGlobal("w", sys, sigma, st)
		c.Queue = append([]X(nil), stack...)
		return c
	}
	setCur, thunk := mapEvaluator(sys, sigma, init)
	for len(stack) > 0 {
		if err := wd.check(st.Evals); err != nil {
			return sigma, st, attachCheckpoint(err, capture())
		}
		if ck.due(st.Evals) {
			ck.emit(st.Evals, capture())
		}
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		present[x] = false
		setCur(x)
		rhsVal, attempts, ee := guardedEval(g, x, thunk)
		st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened: keep x scheduled so the
			// checkpoint resumes by re-evaluating it.
			push(x)
			return sigma, st, attachCheckpoint(wd.failEval(ee, st.Evals), capture())
		}
		st.Evals++
		next := op.Apply(x, sigma[x], rhsVal)
		if !l.Eq(sigma[x], next) {
			sigma[x] = next
			st.Updates++
			deps := infl[x]
			for i := len(deps) - 1; i >= 0; i-- {
				push(deps[i])
			}
			if len(stack) > st.MaxQueue {
				st.MaxQueue = len(stack)
			}
		}
	}
	return sigma, st, nil
}

// SRR is the structured round-robin solver of Fig. 3: solve(i) first solves
// all unknowns x₁…xᵢ₋₁ recursively, then iterates on xᵢ until it
// stabilizes, re-solving the prefix before every update. SRR is a generic
// solver and, instantiated with ⊟, terminates for every finite monotonic
// system (Theorem 1) — with bounded lattice height it needs at most
// n + (h/2)·n·(n+1) evaluations.
//
// SRR's whole scheduling state at an abort is the innermost recursion frame
// (every outer frame is parked at its recursive call), so a checkpoint is
// just the assignment plus that frame index; resume re-enters the stack
// frames from the outside in and continues the interrupted iteration
// exactly — the resumed run is bit-identical to an uninterrupted one.
// Runs on the dense core for large systems (see RR).
func SRR[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	if cfg.useDense(sys.Len()) {
		return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return srrDense(sys, l, op, init, cfg) })
	}
	return srrMap(sys, l, op, init, cfg)
}

func srrMap[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	order := sys.Order()
	wd := newWatchdog(cfg, sys.Index())
	op = instrument(wd, l, op)
	g := newEvalGuard(cfg)
	ck := newCkptSink(cfg)
	var st Stats
	sigma := make(map[X]D, len(order))
	for _, x := range order {
		sigma[x] = init(x)
	}
	st.Unknowns = len(order)
	resumeLevel := 0
	if cp, err := resumeCheckpoint(cfg, "srr", sys); err != nil {
		return sigma, st, err
	} else if cp != nil {
		for x, v := range cp.sigmaMap() {
			sigma[x] = v
		}
		cp.restoreStats(&st)
		resumeLevel = cp.Cursor
		if resumeLevel < 1 || resumeLevel > len(order) {
			return sigma, st, fmt.Errorf("%w: srr cursor %d out of range", ErrBadCheckpoint, resumeLevel)
		}
	}
	capture := func(i int) *Checkpoint[X, D] {
		c := snapshotGlobal("srr", sys, sigma, st)
		c.Cursor = i
		return c
	}
	setCur, thunk := mapEvaluator(sys, sigma, init)
	var solve func(i int, resumed bool) error
	solve = func(i int, resumed bool) error {
		if i == 0 {
			return nil
		}
		first := resumed
		for {
			// On the first iteration of a resumed frame, the recursive call
			// is the one that was in flight at the checkpoint: re-enter it
			// resumed too, except at the innermost frame, which had already
			// completed it and was parked at the evaluation.
			if !(first && i == resumeLevel) {
				if err := solve(i-1, first && i > resumeLevel); err != nil {
					return err
				}
			}
			first = false
			x := order[i-1]
			if err := wd.check(st.Evals); err != nil {
				return attachCheckpoint(err, capture(i))
			}
			if ck.due(st.Evals) {
				ck.emit(st.Evals, capture(i))
			}
			setCur(x)
			rhsVal, attempts, ee := guardedEval(g, x, thunk)
			st.Retries += attempts - 1
			if ee != nil {
				return attachCheckpoint(wd.failEval(ee, st.Evals), capture(i))
			}
			st.Evals++
			next := op.Apply(x, sigma[x], rhsVal)
			if l.Eq(sigma[x], next) {
				return nil
			}
			sigma[x] = next
			st.Updates++
		}
	}
	err := solve(len(order), resumeLevel > 0)
	return sigma, st, err
}

// SW is the structured worklist solver of Fig. 4: unknowns awaiting
// re-evaluation are kept in a priority queue ordered by their index in the
// given linear order, and the least unknown is extracted first. SW is a
// generic solver and, instantiated with ⊟, terminates for every finite
// monotonic system (Theorem 2). Runs on the dense core for large systems,
// where the heap collapses into a bucket queue over the indices (see RR).
func SW[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	if cfg.useDense(sys.Len()) {
		return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return swDense(sys, l, op, init, cfg) })
	}
	return swMap(sys, l, op, init, cfg)
}

func swMap[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	order := sys.Order()
	wd := newWatchdog(cfg, sys.Index())
	op = instrument(wd, l, op)
	g := newEvalGuard(cfg)
	ck := newCkptSink(cfg)
	var st Stats
	sigma := make(map[X]D, len(order))
	idx := make(map[X]int, len(order))
	for i, x := range order {
		sigma[x] = init(x)
		idx[x] = i
	}
	st.Unknowns = len(order)
	infl := sys.Infl()

	// The queue holds order positions, each its own key.
	var q idHeap
	push := func(i int) { q.push(int32(i), int64(i)) }
	if cp, err := resumeCheckpoint(cfg, "sw", sys); err != nil {
		return sigma, st, err
	} else if cp != nil {
		for x, v := range cp.sigmaMap() {
			sigma[x] = v
		}
		cp.restoreStats(&st)
		for _, x := range cp.Queue {
			i, ok := idx[x]
			if !ok {
				return sigma, st, fmt.Errorf("%w: queued unknown %v is not in the system", ErrBadCheckpoint, x)
			}
			push(i)
		}
	} else {
		for i := range order {
			push(i)
		}
		st.MaxQueue = q.len()
	}
	capture := func() *Checkpoint[X, D] {
		c := snapshotGlobal("sw", sys, sigma, st)
		queued := make([]int, len(q.heap))
		for k, e := range q.heap {
			queued[k] = int(e.id)
		}
		sort.Ints(queued)
		c.Queue = make([]X, len(queued))
		for k, i := range queued {
			c.Queue[k] = order[i]
		}
		return c
	}
	setCur, thunk := mapEvaluator(sys, sigma, init)
	for !q.empty() {
		if err := wd.check(st.Evals); err != nil {
			return sigma, st, attachCheckpoint(err, capture())
		}
		if ck.due(st.Evals) {
			ck.emit(st.Evals, capture())
		}
		i := int(q.popMin())
		x := order[i]
		setCur(x)
		rhsVal, attempts, ee := guardedEval(g, x, thunk)
		st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened: keep x scheduled so the
			// checkpoint resumes by re-evaluating it.
			push(i)
			return sigma, st, attachCheckpoint(wd.failEval(ee, st.Evals), capture())
		}
		st.Evals++
		next := op.Apply(x, sigma[x], rhsVal)
		if !l.Eq(sigma[x], next) {
			sigma[x] = next
			st.Updates++
			push(i)
			for _, y := range infl[x] {
				push(idx[y])
			}
			if q.len() > st.MaxQueue {
				st.MaxQueue = q.len()
			}
		}
	}
	return sigma, st, nil
}

// TwoPhase is the classical Cousot–Cousot regime used as the paper's
// baseline: a complete widening iteration to a post-solution, followed by a
// separate narrowing iteration. Both phases run as round-robin sweeps. The
// narrowing phase assumes monotonic right-hand sides; on non-monotonic
// systems it may fail to terminate (bounded by the evaluation budget) or
// return a non-post-solution, which is exactly the deficiency the combined
// operator ⊟ removes.
func TwoPhase[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	res, err := twoPhases(init, cfg,
		func(op Operator[X, D], init func(X) D, cfg Config) (Result[X, D], error) {
			sigma, st, err := RR(sys, l, op, init, cfg)
			return Result[X, D]{Values: sigma, Stats: st}, err
		},
		Op[X](Widen(l)), Op[X](Narrow(l)))
	return res.Values, res.Stats, err
}
