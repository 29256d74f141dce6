package solver

import (
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
// Like all global solvers, RR runs on the compiled representation of the
// system (compile.go), with the assignment in one of two value stores —
// boxed values or raw machine words (see valuerep.go); both produce
// bit-identical results, Stats and checkpoints.
func RR[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("rr", sys, l, op, init, cfg)
}

// W is the worklist solver of Fig. 2 with a LIFO discipline: when the value
// of an unknown changes, all unknowns it influences (including itself, as a
// precaution for non-idempotent operators) are pushed. W is a generic
// solver, but with ⊟ it may fail to terminate even on finite monotonic
// systems (Example 2).
func W[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("w", sys, l, op, init, cfg)
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
func SRR[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("srr", sys, l, op, init, cfg)
}

// SW is the structured worklist solver of Fig. 4: unknowns awaiting
// re-evaluation are kept in a priority queue ordered by their index in the
// given linear order, and the least unknown is extracted first. SW is a
// generic solver and, instantiated with ⊟, terminates for every finite
// monotonic system (Theorem 2). On the compiled representation the heap
// collapses into a bucket queue over the order positions.
func SW[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("sw", sys, l, op, init, cfg)
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
