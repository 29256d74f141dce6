// The chaotic parallel solver's differential column. CPW is certified,
// never bit-pinned: chaotic claim order means distinct runs may land on
// distinct post-solutions with distinct work records, so unlike PSW there
// is no value or Stats comparison against SW. The verdict is the claim
// ladder instead — every completed run certifies as a post-solution
// (Lemma 1 via certify.System), and every bounded run aborts cleanly with
// a quiesce-and-drain checkpoint that resumes, on either value store, to a
// certified completion.
package diffsolve

import (
	"fmt"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// cpwWorkerDefaults is the worker-count sweep CheckCPW runs when the
// options don't name one: the full pool ladder, including oversubscribed
// sizes that force claim contention even on small strata.
var cpwWorkerDefaults = []int{1, 2, 4, 8}

// CheckCPW runs CPW across value stores and worker counts on one system
// and enforces the certified-only claim ladder:
//
//   - a completed run must certify as a post-solution of sys;
//   - an aborted run must be a controlled watchdog abort carrying a
//     resumable checkpoint (the quiesce-and-drain snapshot);
//   - a checkpoint taken on one store must resume on the other to a
//     certified completion.
//
// A nil error means every (core, worker) cell upheld the ladder.
func CheckCPW[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options) error {
	opt = opt.defaults()
	workers := opt.Workers
	if len(workers) == 0 {
		workers = cpwWorkerDefaults
	}
	op := solver.WarrowOp[X, D](l)

	for _, core := range stores {
		for _, w := range workers {
			name := fmt.Sprintf("cpw/%s/w=%d", core, w)
			c := solver.Config{MaxEvals: opt.MaxEvals, MaxFlips: opt.MaxFlips, Core: core, Workers: w}
			sigma, _, err := solver.CPW(sys, l, op, init, c)
			if err != nil {
				if !acceptableAbort(err) {
					return fmt.Errorf("%s: unexpected error: %w", name, err)
				}
				if _, ok := solver.CheckpointOf[X, D](err); !ok {
					return fmt.Errorf("%s: abort carries no checkpoint: %w", name, err)
				}
				continue
			}
			if rep := certify.System(l, sys, sigma, init); rep.Err() != nil {
				return fmt.Errorf("%s: %w", name, rep.Err())
			}
		}
	}

	// Cross-store quiesce-and-drain resume. Budgets are taken relative to a
	// reference run rather than fixed, so the interrupt lands mid-solve; a
	// different interleaving may still complete inside the tighter budget,
	// in which case that cell degenerates to the certify gate above.
	ref := solver.Config{MaxEvals: opt.MaxEvals, Workers: 2}
	_, refSt, refErr := solver.CPW(sys, l, op, init, ref)
	if refErr != nil || refSt.Evals < 2 {
		// Divergent (or trivial) workload: the ladder above already covered
		// its abort behavior per cell; there is no completion to resume to.
		return nil
	}
	for k, from := range stores {
		to := stores[1-k]
		for _, w := range workers {
			name := fmt.Sprintf("cpw %s→%s/w=%d", from, to, w)
			c := solver.Config{MaxEvals: refSt.Evals / 2, Workers: w, Core: from}
			sigma, _, err := solver.CPW(sys, l, op, init, c)
			if err == nil {
				// This interleaving finished inside half the reference work;
				// nothing to resume, but the completion must still certify.
				if rep := certify.System(l, sys, sigma, init); rep.Err() != nil {
					return fmt.Errorf("%s: %w", name, rep.Err())
				}
				continue
			}
			if !acceptableAbort(err) {
				return fmt.Errorf("%s: unexpected error: %w", name, err)
			}
			cp, ok := solver.CheckpointOf[X, D](err)
			if !ok {
				return fmt.Errorf("%s: abort carries no checkpoint: %w", name, err)
			}
			rc := solver.Config{MaxEvals: opt.MaxEvals, Workers: w, Core: to, Resume: cp}
			got, _, err := solver.CPW(sys, l, op, init, rc)
			if err != nil {
				return fmt.Errorf("%s: resume failed: %w", name, err)
			}
			if rep := certify.System(l, sys, got, init); rep.Err() != nil {
				return fmt.Errorf("%s: resumed result does not certify: %w", name, rep.Err())
			}
		}
	}
	return nil
}

// CheckGeneratedCPW runs the CPW claim-ladder verdict on a generated
// system. Errors carry the reproduction recipe.
func CheckGeneratedCPW(cfg eqgen.Config, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		l := lattice.Ints
		err = CheckCPW[int, lattice.Interval](l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), opt)
	case g.Flat != nil:
		l := eqgen.FlatL
		err = CheckCPW[int, lattice.Flat[int64]](l, g.Flat, eqn.ConstBottom[int, lattice.Flat[int64]](l), opt)
	case g.Powerset != nil:
		l := eqgen.PowersetL()
		err = CheckCPW[int, lattice.Set[int]](l, g.Powerset, eqn.ConstBottom[int, lattice.Set[int]](l), opt)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", g.Shape.Cfg, err)
	}
	return nil
}
