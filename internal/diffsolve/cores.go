// Cross-store differential verdicts: every compiled global solver loop runs
// on two value stores — boxed values and raw words (valuerep.go) — and both
// must reproduce the map-based transcription of Figs. 1–4 (reference.go)
// exactly: same termination status, same Evals, Updates, Rounds and
// MaxQueue, same values, on completed and on budget-aborted runs alike; and
// checkpoints taken on either store must resume on the other with no
// observable difference. These are the properties the compiled solvers'
// correctness argument rests on (see DESIGN.md §10 and §11), so they get
// their own harness entry points next to the solver-vs-solver matrix.
package diffsolve

import (
	"errors"
	"fmt"

	"warrow/internal/certify"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// stores are the two value-store selections of the compiled solvers:
// CoreDense forces boxed values, CoreAuto stores raw words where the domain
// allows.
var stores = []solver.Core{solver.CoreDense, solver.CoreAuto}

// coreRunner is one of the solvers of Figs. 1–4 with its reference
// transcription; run solves through solver.Run under the full Config, so
// the harness can force either value store.
type coreRunner[X comparable, D any] struct {
	name string
	run  func(solver.Config) (map[X]D, solver.Stats, error)
	ref  func(maxEvals int) *reference[X, D]
}

func coreRunners[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D) []coreRunner[X, D] {
	// WarrowOp is the structured ⊟: bit-identical to Op(Warrow(l)) on boxed
	// values and the form that unlocks the word store.
	op := solver.WarrowOp[X, D](l)
	runner := func(name string, fig func(*reference[X, D]) *reference[X, D]) coreRunner[X, D] {
		return coreRunner[X, D]{name,
			func(c solver.Config) (map[X]D, solver.Stats, error) { return solver.Run(name, sys, l, op, init, c) },
			func(m int) *reference[X, D] { return fig(newReference(sys, l, op, init, m)) }}
	}
	return []coreRunner[X, D]{
		runner("rr", (*reference[X, D]).rr),
		runner("w", (*reference[X, D]).w),
		runner("srr", (*reference[X, D]).srr),
		runner("sw", (*reference[X, D]).sw),
	}
}

// sameValues reports the first unknown whose value differs between two
// assignments.
func sameValues[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], name string, got, want map[X]D, wantName string) error {
	for _, x := range sys.Order() {
		if !l.Eq(got[x], want[x]) {
			return fmt.Errorf("%s: value of %v = %s, %s %s", name, x, l.Format(got[x]), wantName, l.Format(want[x]))
		}
	}
	return nil
}

// sameSchedule compares the scheduling counters of two runs.
func sameSchedule(a, b solver.Stats) bool {
	return a.Evals == b.Evals && a.Updates == b.Updates && a.Rounds == b.Rounds && a.MaxQueue == b.MaxQueue
}

// abortKey renders a solve's outcome for comparison across stores: the
// abort report without its wall-clock time and checkpoint, or the error
// text when there is no report ("<nil>" for a completed run).
func abortKey(err error) string {
	rep, ok := solver.ReportOf(err)
	if !ok {
		return fmt.Sprint(err)
	}
	rep.Elapsed, rep.Checkpoint = 0, nil
	return fmt.Sprintf("%+v", rep)
}

// CheckCores runs every global solver under a budget on both value stores
// and demands that each run reproduce the reference transcription exactly:
// termination status, Evals, Updates, Rounds and MaxQueue, and values — on
// budget aborts too, where the partial assignment must agree. With
// opt.MaxFlips set, the two stores then run again with the oscillation
// watchdog armed and must agree with each other (the reference has no
// watchdog). PSW — SW stratified over the same stores — is compared against
// the reference SW for every worker count in opt.Workers and both stores.
func CheckCores[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options) error {
	opt = opt.defaults()
	var sw *reference[X, D]
	for _, r := range coreRunners(l, sys, init) {
		ref := r.ref(opt.MaxEvals)
		for _, core := range stores {
			name := r.name + "/" + core.String()
			sigma, st, err := r.run(solver.Config{MaxEvals: opt.MaxEvals, Core: core})
			if err != nil && !errors.Is(err, solver.ErrEvalBudget) {
				return fmt.Errorf("%s: unexpected error: %w", name, err)
			}
			if (err != nil) != ref.aborted {
				return fmt.Errorf("%s: termination differs: err=%v, reference aborted=%v", name, err, ref.aborted)
			}
			if !sameSchedule(st, ref.st) {
				return fmt.Errorf("%s: schedules diverge: %+v, reference %+v", name, st, ref.st)
			}
			if err := sameValues(l, sys, name, sigma, ref.sigma, "reference"); err != nil {
				return err
			}
		}
		if opt.MaxFlips > 0 {
			cfg := solver.Config{MaxEvals: opt.MaxEvals, MaxFlips: opt.MaxFlips, Core: solver.CoreDense}
			dSigma, dSt, dErr := r.run(cfg)
			cfg.Core = solver.CoreAuto
			aSigma, aSt, aErr := r.run(cfg)
			for _, err := range []error{dErr, aErr} {
				if err != nil && !acceptableAbort(err) {
					return fmt.Errorf("%s flips=%d: unexpected error: %w", r.name, opt.MaxFlips, err)
				}
			}
			if abortKey(dErr) != abortKey(aErr) {
				return fmt.Errorf("%s flips=%d: outcomes differ: dense err=%v, auto err=%v", r.name, opt.MaxFlips, dErr, aErr)
			}
			if !sameSchedule(dSt, aSt) {
				return fmt.Errorf("%s flips=%d: schedules diverge: dense %+v, auto %+v", r.name, opt.MaxFlips, dSt, aSt)
			}
			if err := sameValues(l, sys, r.name+" flips/auto", aSigma, dSigma, "dense"); err != nil {
				return err
			}
		}
		if r.name == "sw" {
			sw = ref
		}
	}

	for _, w := range opt.Workers {
		for _, core := range stores {
			name := fmt.Sprintf("psw/%s/w=%d", core, w)
			cfg := solver.Config{MaxEvals: opt.MaxEvals, Workers: w, Core: core}
			sigma, st, err := solver.PSW(sys, l, solver.WarrowOp[X, D](l), init, cfg)
			if err != nil && !errors.Is(err, solver.ErrEvalBudget) {
				return fmt.Errorf("%s: unexpected error: %w", name, err)
			}
			if (err != nil) != sw.aborted {
				return fmt.Errorf("%s: termination differs from reference sw: err=%v, sw aborted=%v", name, err, sw.aborted)
			}
			if st.Evals != sw.st.Evals {
				return fmt.Errorf("%s: %d evals, reference sw %d", name, st.Evals, sw.st.Evals)
			}
			if err != nil {
				continue
			}
			if st.Updates != sw.st.Updates {
				return fmt.Errorf("%s: %d updates, reference sw %d", name, st.Updates, sw.st.Updates)
			}
			if err := sameValues(l, sys, name, sigma, sw.sigma, "reference sw"); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckCoreResume interrupts every global solver on one value store,
// resumes the checkpoint on the other — both directions, at the usual abort
// points — and demands the resumed run reproduce the reference's
// uninterrupted Evals, Updates and assignment exactly. Checkpoints store
// the assignment and queue in X-space precisely so they cross stores; this
// is the verdict that keeps that claim honest. codec, when non-nil,
// additionally pushes every checkpoint through the versioned wire format
// before resuming.
func CheckCoreResume[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options, codec *solver.Codec[X, D]) error {
	opt = opt.defaults()
	for _, r := range coreRunners(l, sys, init) {
		ref := r.ref(opt.MaxEvals)
		if ref.aborted || ref.st.Evals < 2 {
			continue // diverged or trivial workload: nothing to resume against
		}
		for k, from := range stores {
			to := stores[1-k]
			name := fmt.Sprintf("%s %s→%s", r.name, from, to)
			for _, budget := range abortPoints(ref.st.Evals) {
				_, _, err := r.run(solver.Config{MaxEvals: budget, Core: from})
				if err == nil {
					return fmt.Errorf("%s: budget %d of %d did not abort", name, budget, ref.st.Evals)
				}
				cp, ok := solver.CheckpointOf[X, D](err)
				if !ok {
					return fmt.Errorf("%s: abort at budget %d carries no checkpoint: %w", name, budget, err)
				}
				if codec != nil {
					data, merr := solver.MarshalCheckpoint(cp, *codec)
					if merr != nil {
						return fmt.Errorf("%s: marshal at budget %d: %w", name, budget, merr)
					}
					cp, merr = solver.UnmarshalCheckpoint[X, D](data, *codec)
					if merr != nil {
						return fmt.Errorf("%s: unmarshal at budget %d: %w", name, budget, merr)
					}
				}
				got, gotSt, err := r.run(solver.Config{MaxEvals: opt.MaxEvals, Core: to, Resume: cp})
				if err != nil {
					return fmt.Errorf("%s: resume from budget %d failed: %w", name, budget, err)
				}
				if rep := certify.System(l, sys, got, init); rep.Err() != nil {
					return fmt.Errorf("%s: resumed result from budget %d does not certify: %w", name, budget, rep.Err())
				}
				if gotSt.Evals != ref.st.Evals || gotSt.Updates != ref.st.Updates {
					return fmt.Errorf("%s: resumed from budget %d with evals/updates %d/%d, uninterrupted %d/%d",
						name, budget, gotSt.Evals, gotSt.Updates, ref.st.Evals, ref.st.Updates)
				}
				if err := sameValues(l, sys, fmt.Sprintf("%s from budget %d", name, budget), got, ref.sigma, "uninterrupted"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CheckGeneratedCores runs the cross-store verdict on a generated system.
// Errors carry the reproduction recipe.
func CheckGeneratedCores(cfg eqgen.Config, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		l := lattice.Ints
		err = CheckCores[int, lattice.Interval](l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), opt)
	case g.Flat != nil:
		l := eqgen.FlatL
		err = CheckCores[int, lattice.Flat[int64]](l, g.Flat, eqn.ConstBottom[int, lattice.Flat[int64]](l), opt)
	case g.Powerset != nil:
		l := eqgen.PowersetL()
		err = CheckCores[int, lattice.Set[int]](l, g.Powerset, eqn.ConstBottom[int, lattice.Set[int]](l), opt)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", g.Shape.Cfg, err)
	}
	return nil
}

// CheckGeneratedCoreResume runs the cross-store checkpoint/resume verdict on
// a generated system, wiring in the domain's wire-format codec. Errors carry
// the reproduction recipe.
func CheckGeneratedCoreResume(cfg eqgen.Config, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		l := lattice.Ints
		codec := ckptcodec.IntervalCodec()
		err = CheckCoreResume[int, lattice.Interval](l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), opt, &codec)
	case g.Flat != nil:
		l := eqgen.FlatL
		codec := ckptcodec.FlatCodec()
		err = CheckCoreResume[int, lattice.Flat[int64]](l, g.Flat, eqn.ConstBottom[int, lattice.Flat[int64]](l), opt, &codec)
	case g.Powerset != nil:
		l := eqgen.PowersetL()
		codec := ckptcodec.PowersetCodec()
		err = CheckCoreResume[int, lattice.Set[int]](l, g.Powerset, eqn.ConstBottom[int, lattice.Set[int]](l), opt, &codec)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", g.Shape.Cfg, err)
	}
	return nil
}
