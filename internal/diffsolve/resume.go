package diffsolve

import (
	"fmt"

	"warrow/internal/certify"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// CheckResume is the differential verdict for the checkpoint/resume layer.
// For every global solver it interrupts the reference workload at several
// budgets, resumes the checkpoint attached to each abort, and demands that
// the resumed run (a) completes, (b) certifies as a post-solution, and (c)
// reproduces the uninterrupted run's Evals, Updates, MaxQueue and
// assignment exactly — interruption must be invisible in the result. The
// local solvers are held to the warm-restart contract instead: the resumed
// query completes and certifies, with no claim on its work counters.
//
// codec, when non-nil, additionally pushes every checkpoint through the
// versioned wire format (Marshal → Unmarshal) before resuming, so the
// serialization layer is covered by the same exactness verdict.
//
// Solvers whose reference run aborts inside the budget (RR and W may
// legitimately diverge with ⊟) are skipped: there is no uninterrupted
// outcome to compare against.
func CheckResume[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options, codec *solver.Codec[X, D]) error {
	opt = opt.defaults()
	op := solver.Op[X](solver.Warrow[D](l))
	cfg := solver.Config{MaxEvals: opt.MaxEvals}

	type runner struct {
		name string
		run  func(solver.Config) (map[X]D, solver.Stats, error)
	}
	runners := []runner{
		{"rr", func(c solver.Config) (map[X]D, solver.Stats, error) { return solver.RR(sys, l, op, init, c) }},
		{"w", func(c solver.Config) (map[X]D, solver.Stats, error) { return solver.W(sys, l, op, init, c) }},
		{"srr", func(c solver.Config) (map[X]D, solver.Stats, error) { return solver.SRR(sys, l, op, init, c) }},
		{"sw", func(c solver.Config) (map[X]D, solver.Stats, error) { return solver.SW(sys, l, op, init, c) }},
	}
	for _, wk := range opt.Workers {
		wk := wk
		runners = append(runners, runner{fmt.Sprintf("psw/w=%d", wk), func(c solver.Config) (map[X]D, solver.Stats, error) {
			c.Workers = wk
			return solver.PSW(sys, l, op, init, c)
		}})
	}

	for _, r := range runners {
		ref, refSt, refErr := r.run(cfg)
		if refErr != nil {
			if !acceptableAbort(refErr) {
				return fmt.Errorf("%s: unexpected error: %w", r.name, refErr)
			}
			continue // diverged workload: nothing to resume against
		}
		if refSt.Evals < 2 {
			continue
		}
		for _, budget := range abortPoints(refSt.Evals) {
			c := cfg
			c.MaxEvals = budget
			_, _, err := r.run(c)
			if err == nil {
				return fmt.Errorf("%s: budget %d of %d did not abort", r.name, budget, refSt.Evals)
			}
			cp, ok := solver.CheckpointOf[X, D](err)
			if !ok {
				return fmt.Errorf("%s: abort at budget %d carries no checkpoint: %w", r.name, budget, err)
			}
			if codec != nil {
				data, merr := solver.MarshalCheckpoint(cp, *codec)
				if merr != nil {
					return fmt.Errorf("%s: marshal at budget %d: %w", r.name, budget, merr)
				}
				cp, merr = solver.UnmarshalCheckpoint[X, D](data, *codec)
				if merr != nil {
					return fmt.Errorf("%s: unmarshal at budget %d: %w", r.name, budget, merr)
				}
			}
			rc := cfg
			rc.Resume = cp
			got, gotSt, err := r.run(rc)
			if err != nil {
				return fmt.Errorf("%s: resume from budget %d failed: %w", r.name, budget, err)
			}
			if rep := certify.System(l, sys, got, init); rep.Err() != nil {
				return fmt.Errorf("%s: resumed result from budget %d does not certify: %w", r.name, budget, rep.Err())
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates || gotSt.MaxQueue != refSt.MaxQueue {
				return fmt.Errorf("%s: resumed from budget %d with evals/updates/maxqueue %d/%d/%d, uninterrupted %d/%d/%d",
					r.name, budget, gotSt.Evals, gotSt.Updates, gotSt.MaxQueue, refSt.Evals, refSt.Updates, refSt.MaxQueue)
			}
			for _, x := range sys.Order() {
				if !l.Eq(got[x], ref[x]) {
					return fmt.Errorf("%s: resumed from budget %d: value of %v = %s, uninterrupted %s",
						r.name, budget, x, l.Format(got[x]), l.Format(ref[x]))
				}
			}
		}
	}

	return checkLocalResume(l, sys, init, opt)
}

// checkLocalResume holds SLR and SLR⁺ to the warm-restart contract: the
// resumed query completes and its result certifies.
func checkLocalResume[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options) error {
	n := sys.Len()
	if n == 0 {
		return nil
	}
	query := sys.Order()[n-1]
	op := solver.Op[X](solver.Warrow[D](l))
	cfg := solver.Config{MaxEvals: opt.MaxEvals}

	res, err := solver.SLR(sys.AsPure(), l, op, init, query, cfg)
	if err == nil && res.Stats.Evals >= 2 {
		c := cfg
		c.MaxEvals = res.Stats.Evals / 2
		_, aerr := solver.SLR(sys.AsPure(), l, op, init, query, c)
		if cp, ok := solver.CheckpointOf[X, D](aerr); ok {
			rc := cfg
			rc.Resume = cp
			warm, rerr := solver.SLR(sys.AsPure(), l, op, init, query, rc)
			if rerr != nil {
				return fmt.Errorf("slr: warm restart failed: %w", rerr)
			}
			if rep := certify.Partial(l, sys.AsPure(), warm.Values, init); rep.Err() != nil {
				return fmt.Errorf("slr: warm-restarted result does not certify: %w", rep.Err())
			}
		} else if aerr != nil {
			return fmt.Errorf("slr: abort carries no checkpoint: %w", aerr)
		}
	}

	sides := asSides(sys)
	resP, errP := solver.SLRPlus(sides, l, op, init, query, cfg)
	if errP == nil && resP.Stats.Evals >= 2 {
		c := cfg
		c.MaxEvals = resP.Stats.Evals / 2
		_, aerr := solver.SLRPlus(sides, l, op, init, query, c)
		if cp, ok := solver.CheckpointOf[X, D](aerr); ok {
			rc := cfg
			rc.Resume = cp
			warm, rerr := solver.SLRPlus(sides, l, op, init, query, rc)
			if rerr != nil {
				return fmt.Errorf("slr+: warm restart failed: %w", rerr)
			}
			if rep := certify.Sides(l, sides, warm.Values, init); rep.Err() != nil {
				return fmt.Errorf("slr+: warm-restarted result does not certify: %w", rep.Err())
			}
		} else if aerr != nil {
			return fmt.Errorf("slr+: abort carries no checkpoint: %w", aerr)
		}
	}
	return nil
}

// abortPoints picks representative interruption budgets within an
// uninterrupted run of total evaluations: immediately, midway, and on the
// last evaluation.
func abortPoints(total int) []int {
	pts := []int{1, total / 2, total - 1}
	var out []int
	for _, p := range pts {
		if p < 1 || p >= total {
			continue
		}
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// CheckGeneratedResume runs the checkpoint/resume verdict on a generated
// system, wiring in the domain's wire-format codec so every checkpoint also
// round-trips through MarshalCheckpoint. Errors carry the reproduction
// recipe.
func CheckGeneratedResume(cfg eqgen.Config, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		l := lattice.Ints
		codec := ckptcodec.IntervalCodec()
		err = CheckResume[int, lattice.Interval](l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), opt, &codec)
	case g.Flat != nil:
		l := eqgen.FlatL
		codec := ckptcodec.FlatCodec()
		err = CheckResume[int, lattice.Flat[int64]](l, g.Flat, eqn.ConstBottom[int, lattice.Flat[int64]](l), opt, &codec)
	case g.Powerset != nil:
		l := eqgen.PowersetL()
		codec := ckptcodec.PowersetCodec()
		err = CheckResume[int, lattice.Set[int]](l, g.Powerset, eqn.ConstBottom[int, lattice.Set[int]](l), opt, &codec)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", g.Shape.Cfg, err)
	}
	return nil
}
