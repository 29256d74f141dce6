package chaos

import (
	"errors"
	"fmt"

	"warrow/internal/certify"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// Verdict records how one solver fared under injection.
type Verdict struct {
	// Solver names the solver ("rr", "psw/w=4", …).
	Solver string
	// Completed is true when the chaotic run terminated with a certified
	// post-solution despite the injection (retry healed every fault).
	Completed bool
	// Resumed is true when the chaotic run aborted cleanly and the attached
	// checkpoint resumed to a certified result on the pristine system.
	Resumed bool
	// Faults is the number of faults the injector fired during the run.
	Faults int
}

// Check is the chaos property: against a fault-injecting view of sys, every
// solver must either
//
//   - complete, in which case its assignment must certify as a
//     post-solution of the pristine system (injected faults never corrupt
//     values), or
//   - abort cleanly — a structured *solver.AbortError, not a raw panic —
//     carrying a checkpoint that resumes on the pristine system to a
//     certified result.
//
// The solver config scfg is applied to the chaotic runs as given (set
// scfg.Retry to let transient faults heal); resumed runs get the same
// config without injection. workers selects the PSW pool sizes to test.
// A nil error means every solver upheld the property; the verdicts report
// which branch each one took.
func Check[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, ccfg Config, scfg solver.Config, workers []int) ([]Verdict, error) {
	// The structured ⊟: bit-identical to Op(Warrow(l)) and eligible for the
	// unboxed value store when scfg requests (or auto-selects) it.
	op := solver.WarrowOp[X, D](l)

	// Every global solver runs; the widening-point family's selective ∇/⊟
	// placement changes where values settle, not the fault contract. PSW
	// and CPW, the two that read Config.Workers, run last, once per worker
	// count. CPW under chaos doubles as a schedule perturbation harness:
	// injected per-evaluation latency shifts which worker claims which
	// unknown, so each seed exercises a different chaotic interleaving.
	type runner struct {
		name, solverName string
		workers          int
	}
	var runners []runner
	var pools []string
	for _, name := range solver.Globals {
		if name == "psw" || name == "cpw" {
			pools = append(pools, name)
			continue
		}
		runners = append(runners, runner{name, name, 0})
	}
	for _, name := range pools {
		for _, wk := range workers {
			runners = append(runners, runner{fmt.Sprintf("%s/w=%d", name, wk), name, wk})
		}
	}

	var verdicts []Verdict
	for _, r := range runners {
		run := func(s *eqn.System[X, D], c solver.Config) (map[X]D, solver.Stats, error) {
			c.Workers = r.workers
			return solver.Run(r.solverName, s, l, op, init, c)
		}
		chaotic, inj := Wrap(sys, ccfg)
		v := Verdict{Solver: r.name}
		got, _, err := runCaught(func() (map[X]D, solver.Stats, error) { return run(chaotic, scfg) })
		v.Faults = inj.Faults()
		switch {
		case err == nil:
			if rep := certify.System(l, sys, got, init); rep.Err() != nil {
				return verdicts, fmt.Errorf("%s: completed under chaos but does not certify: %w", r.name, rep.Err())
			}
			v.Completed = true
		default:
			var ab *solver.AbortError
			if !errors.As(err, &ab) {
				return verdicts, fmt.Errorf("%s: dirty failure under chaos: %w", r.name, err)
			}
			cp, ok := solver.CheckpointOf[X, D](err)
			if !ok {
				return verdicts, fmt.Errorf("%s: clean abort without resumable checkpoint: %w", r.name, err)
			}
			rc := scfg
			rc.Resume = cp
			res, _, rerr := run(sys, rc)
			if rerr != nil {
				if rep, ok := solver.ReportOf(rerr); !ok || rep.Reason == solver.AbortEvalFailure {
					return verdicts, fmt.Errorf("%s: pristine resume failed: %w", r.name, rerr)
				}
				// The workload itself exhausts the budget; the chaos property
				// only promises fault-free resumption, not termination.
				break
			}
			if rep := certify.System(l, sys, res, init); rep.Err() != nil {
				return verdicts, fmt.Errorf("%s: resumed result does not certify: %w", r.name, rep.Err())
			}
			v.Resumed = true
		}
		verdicts = append(verdicts, v)
	}

	lv, err := checkLocals(l, sys, init, ccfg, scfg)
	verdicts = append(verdicts, lv...)
	return verdicts, err
}

// checkLocals runs the chaos property over the demand-driven solvers. Their
// checkpoints are warm restarts, so a resumed run is held to completion and
// certification, not to work-counter identity. RLD is special: it is not a
// generic solver, so with ⊟ even a fault-free run need not certify (the
// paper's Sec. 5 counterexample class) — its completed chaotic runs are
// instead compared against the pristine run, which injection must reproduce
// exactly, and its warm restarts are only held to clean completion.
func checkLocals[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, ccfg Config, scfg solver.Config) ([]Verdict, error) {
	n := sys.Len()
	if n == 0 {
		return nil, nil
	}
	query := sys.Order()[n-1]
	op := solver.Op[X](solver.Warrow[D](l))

	type runner struct {
		name    string
		run     func(eqn.Pure[X, D], solver.Config) (solver.Result[X, D], error)
		certify func(map[X]D) error
		// certifyWarm judges a warm-restarted result; nil holds the restart
		// to clean completion only (RLD: a warm start legitimately computes
		// values the pristine cold run never sees).
		certifyWarm func(map[X]D) error
	}
	certPartial := func(sigma map[X]D) error { return certify.Partial(l, sys.AsPure(), sigma, init).Err() }
	rldRun := func(p eqn.Pure[X, D], c solver.Config) (solver.Result[X, D], error) {
		return solver.RLD(p, l, op, init, query, c)
	}
	certRLD := func(sigma map[X]D) error {
		// The injector faults before the right-hand side runs, so a healed
		// chaotic RLD run performs exactly the pristine evaluation sequence:
		// demand injection reproduce the pristine outcome verbatim.
		ref, err := rldRun(sys.AsPure(), scfg)
		if err != nil {
			return nil // pristine workload itself aborts; nothing to compare
		}
		if len(sigma) != len(ref.Values) {
			return fmt.Errorf("chaotic run discovered %d unknowns, pristine %d", len(sigma), len(ref.Values))
		}
		for x, v := range ref.Values {
			got, ok := sigma[x]
			if !ok || !l.Eq(got, v) {
				return fmt.Errorf("value of %v diverged from pristine run", x)
			}
		}
		return nil
	}
	certSides := func(sigma map[X]D) error { return certify.Sides(l, sys.AsPure().AsSides(), sigma, init).Err() }
	runners := []runner{
		{"rld", rldRun, certRLD, nil},
		{"slr", func(p eqn.Pure[X, D], c solver.Config) (solver.Result[X, D], error) {
			return solver.SLR(p, l, op, init, query, c)
		}, certPartial, certPartial},
		{"slr+", func(p eqn.Pure[X, D], c solver.Config) (solver.Result[X, D], error) {
			return solver.SLRPlus(p.AsSides(), l, op, init, query, c)
		}, certSides, certSides},
	}

	var verdicts []Verdict
	for _, r := range runners {
		chaotic, inj := Wrap(sys, ccfg)
		v := Verdict{Solver: r.name}
		res, err := runResCaught(func() (solver.Result[X, D], error) { return r.run(chaotic.AsPure(), scfg) })
		v.Faults = inj.Faults()
		switch {
		case err == nil:
			if cerr := r.certify(res.Values); cerr != nil {
				return verdicts, fmt.Errorf("%s: completed under chaos but does not certify: %w", r.name, cerr)
			}
			v.Completed = true
		default:
			var ab *solver.AbortError
			if !errors.As(err, &ab) {
				return verdicts, fmt.Errorf("%s: dirty failure under chaos: %w", r.name, err)
			}
			cp, ok := solver.CheckpointOf[X, D](err)
			if !ok {
				return verdicts, fmt.Errorf("%s: clean abort without resumable checkpoint: %w", r.name, err)
			}
			rc := scfg
			rc.Resume = cp
			warm, rerr := r.run(sys.AsPure(), rc)
			if rerr != nil {
				if rep, ok := solver.ReportOf(rerr); !ok || rep.Reason == solver.AbortEvalFailure {
					return verdicts, fmt.Errorf("%s: pristine warm restart failed: %w", r.name, rerr)
				}
				break
			}
			if r.certifyWarm != nil {
				if cerr := r.certifyWarm(warm.Values); cerr != nil {
					return verdicts, fmt.Errorf("%s: warm-restarted result does not certify: %w", r.name, cerr)
				}
			}
			v.Resumed = true
		}
		verdicts = append(verdicts, v)
	}
	return verdicts, nil
}

// runCaught converts an escaped panic — which the solvers' recover barrier
// must make impossible — into an error, so Check reports a barrier breach
// as a verdict failure instead of crashing the test binary.
func runCaught[X comparable, D any](f func() (map[X]D, solver.Stats, error)) (got map[X]D, st solver.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("chaos: panic escaped the solver: %v", r)
		}
	}()
	return f()
}

func runResCaught[X comparable, D any](f func() (solver.Result[X, D], error)) (res solver.Result[X, D], err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("chaos: panic escaped the solver: %v", r)
		}
	}()
	return f()
}
