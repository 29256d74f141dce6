// Package diffsolve is the cross-solver differential harness: it runs the
// full solver matrix — RR, W, SRR, SW, PSW (several worker counts), the
// widening-point family SLR2/SLR3/SLR4, SLR and SLR⁺ — on one equation
// system, certifies every terminating result through internal/certify, and
// cross-checks the solver pairs with exact-agreement claims (PSW is
// bit-identical to SW for any worker count) and order claims (SLR3/SLR4 are
// pointwise ≤ SW when both terminate).
//
// The harness is the oracle behind three consumers:
//
//   - property tests that sweep seeded systems from internal/eqgen,
//   - the native fuzz targets FuzzSolvers and FuzzCertify (fuzz_test.go),
//   - ad-hoc debugging of a single reproduction recipe (eqgen.Config).
//
// Divergence is not a failure: RR and W may exhaust their budget with ⊟
// even on monotonic systems (the paper's Examples 1 and 2), and every
// solver may on deliberately non-monotonic ones. A budgeted run that does
// terminate, however, must certify — that is Lemma 1, and it holds per
// solver with no cross-solver assumption. Distinct structured solvers may
// legitimately return *different* post-solutions (they agree only up to
// post-solution ordering), so value equality is asserted only where the
// implementation claims it: SW vs. PSW.
package diffsolve

import (
	"errors"
	"fmt"
	"time"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// Options tunes a differential run.
type Options struct {
	// MaxEvals is the per-solver evaluation budget (default 100 000).
	MaxEvals int
	// Workers lists the PSW worker-pool sizes to cross-check against SW
	// (default 1, 2, 4).
	Workers []int
	// Timeout, when positive, is the per-solver wall-clock bound; a solver
	// that trips it counts as diverged, exactly like a budget abort.
	Timeout time.Duration
	// MaxFlips, when positive, arms the per-solver oscillation watchdog, so
	// ⊟ divergence is caught by its narrow→widen signature instead of by
	// exhausting the whole budget.
	MaxFlips int
	// Escalate reruns the workload of a diverging generic solver (rr, w) on
	// its terminating structured variant (srr, sw) and appends the rerun as
	// an extra outcome named "rr→srr" / "w→sw" with EscalatedFrom set —
	// the graceful-degradation policy of the robustness layer.
	Escalate bool
	// StrictOrder additionally enforces the precision partial order of the
	// widening-point family: SLR3/SLR4 values pointwise ≤ SW's whenever both
	// terminate. The order is a property of structured (loop-shaped) systems
	// — the analysis-derived and WCET suites — not a theorem for arbitrary
	// systems, where selective ∇ placement can land the family on post-
	// solutions incomparable to (or locally coarser than) SW's; leave it off
	// for random fuzz recipes, where certification alone is the gate.
	StrictOrder bool
}

func (o Options) defaults() Options {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 100_000
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4}
	}
	return o
}

// Outcome is one solver's result on the system under test.
type Outcome[X comparable, D any] struct {
	// Solver names the run: rr, w, srr, sw, psw/w=N, slr, slr+.
	Solver string
	// Values is the (possibly partial) assignment the solver returned.
	Values map[X]D
	// Stats is the solver's work record.
	Stats solver.Stats
	// Err is the solver error; an abort matching solver.ErrEvalBudget (or
	// carrying a solver.AbortReport) marks divergence.
	Err error
	// Report is the certification outcome; zero (OK) for diverged runs,
	// which return no result to certify.
	Report certify.Report[X, D]
	// EscalatedFrom names the diverging generic solver whose workload this
	// outcome reran on a terminating structured variant; empty for
	// first-class runs. The Stats of an escalated outcome record the work
	// of the rerun only.
	EscalatedFrom string
}

// escalation maps each generic solver to the structured variant that
// terminates with ⊟ where the generic one may diverge (Options.Escalate).
var escalation = map[string]string{"rr": "srr", "w": "sw"}

// RunAll runs the solver matrix with the combined operator ⊟ on a finite
// system and certifies every terminating result: the global solvers through
// certify.System, SLR through certify.Partial, and SLR⁺ (the system viewed
// as side-effecting with no side effects) through certify.Sides. The local
// solvers are queried for the last unknown of the linear order.
func RunAll[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options) []Outcome[X, D] {
	opt = opt.defaults()
	op := solver.Op[X](solver.Warrow[D](l))
	cfg := solver.Config{MaxEvals: opt.MaxEvals, Timeout: opt.Timeout, MaxFlips: opt.MaxFlips}
	var out []Outcome[X, D]

	global := func(name, solverName string, cfg solver.Config) Outcome[X, D] {
		sigma, st, err := solver.Run(solverName, sys, l, op, init, cfg)
		o := Outcome[X, D]{Solver: name, Values: sigma, Stats: st, Err: err}
		if err == nil {
			o.Report = certify.System(l, sys, sigma, init)
		}
		out = append(out, o)
		return o
	}
	for _, name := range solver.Globals {
		if name == "cpw" {
			continue // certified, never bit-pinned: CheckCPW is its column
		}
		if name == "psw" {
			for _, w := range opt.Workers {
				pcfg := cfg
				pcfg.Workers = w
				global(fmt.Sprintf("psw/w=%d", w), name, pcfg)
			}
			continue
		}
		o := global(name, name, cfg)
		// A diverged generic solver's workload reruns on its terminating
		// structured variant.
		if to := escalation[name]; opt.Escalate && o.Err != nil && to != "" {
			global(name+"→"+to, to, cfg)
			out[len(out)-1].EscalatedFrom = name
		}
	}

	for _, ls := range localSolvers(l, sys, init) {
		res, err := ls.run(cfg)
		o := Outcome[X, D]{Solver: ls.name, Values: res.Values, Stats: res.Stats, Err: err}
		if err == nil {
			o.Report = ls.certify(res.Values)
		}
		out = append(out, o)
	}
	return out
}

// localSolver is one local solver of the matrix, queried for the last
// unknown of the linear order under the combined operator ⊟.
type localSolver[X comparable, D any] struct {
	name    string
	run     func(solver.Config) (solver.Result[X, D], error)
	certify func(map[X]D) certify.Report[X, D]
}

// localSolvers lists SLR, certified through certify.Partial, and SLR⁺ on
// the system viewed as side-effecting with no side effects, certified
// through certify.Sides. An empty system has no query and lists none.
func localSolvers[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D) []localSolver[X, D] {
	n := sys.Len()
	if n == 0 {
		return nil
	}
	query := sys.Order()[n-1]
	op := solver.Op[X](solver.Warrow[D](l))
	pure := sys.AsPure()
	sides := pure.AsSides()
	return []localSolver[X, D]{{
		name: "slr",
		run: func(c solver.Config) (solver.Result[X, D], error) {
			return solver.SLR(pure, l, op, init, query, c)
		},
		certify: func(sigma map[X]D) certify.Report[X, D] { return certify.Partial(l, pure, sigma, init) },
	}, {
		name: "slr+",
		run: func(c solver.Config) (solver.Result[X, D], error) {
			return solver.SLRPlus(sides, l, op, init, query, c)
		},
		certify: func(sigma map[X]D) certify.Report[X, D] { return certify.Sides(l, sides, sigma, init) },
	}}
}

// Check runs the matrix and returns the differential verdict:
//
//   - every terminating solver's result must certify (Lemma 1);
//   - PSW must agree with SW bit-for-bit — same termination status, same
//     values, same Evals and Updates — for every tested worker count;
//   - on an exhausted budget, PSW must have stopped at the budget exactly
//     like SW does;
//   - SLR⁺ must agree with SLR, whose loop it runs: same termination
//     status, values, Evals, Updates, MaxQueue and Unknowns.
//
// A nil error means the system produced no disagreement.
func Check[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, opt Options) error {
	outcomes := RunAll(l, sys, init, opt)
	var sw, slr, slrPlus *Outcome[X, D]
	for i := range outcomes {
		o := &outcomes[i]
		if o.Err != nil && !acceptableAbort(o.Err) {
			return fmt.Errorf("%s: unexpected error: %w", o.Solver, o.Err)
		}
		if o.Err == nil {
			if err := o.Report.Err(); err != nil {
				return fmt.Errorf("%s: %w", o.Solver, err)
			}
		}
		switch o.Solver {
		case "sw":
			sw = o
		case "slr":
			slr = o
		case "slr+":
			slrPlus = o
		}
	}
	if opt.Timeout > 0 {
		// Wall-clock aborts are schedule-dependent, so the PSW ≡ SW
		// bit-identity claims below only hold for deterministic bounds.
		return nil
	}
	for i := range outcomes {
		o := &outcomes[i]
		if len(o.Solver) < 3 || o.Solver[:3] != "psw" {
			continue
		}
		if (o.Err == nil) != (sw.Err == nil) {
			return fmt.Errorf("%s: termination status (err=%v) differs from sw (err=%v)", o.Solver, o.Err, sw.Err)
		}
		if o.Err != nil {
			if o.Stats.Evals != sw.Stats.Evals {
				return fmt.Errorf("%s: stopped at %d evals, sw at %d", o.Solver, o.Stats.Evals, sw.Stats.Evals)
			}
			continue
		}
		if o.Stats.Evals != sw.Stats.Evals || o.Stats.Updates != sw.Stats.Updates {
			return fmt.Errorf("%s: evals/updates %d/%d differ from sw %d/%d",
				o.Solver, o.Stats.Evals, o.Stats.Updates, sw.Stats.Evals, sw.Stats.Updates)
		}
		for _, x := range sys.Order() {
			if !l.Eq(o.Values[x], sw.Values[x]) {
				return fmt.Errorf("%s: value of %v = %s differs from sw = %s",
					o.Solver, x, l.Format(o.Values[x]), l.Format(sw.Values[x]))
			}
		}
	}
	if slr != nil && slrPlus != nil {
		a, b := slr.Stats, slrPlus.Stats
		if (slr.Err == nil) != (slrPlus.Err == nil) || a.Evals != b.Evals || a.Updates != b.Updates || a.MaxQueue != b.MaxQueue || a.Unknowns != b.Unknowns {
			return fmt.Errorf("slr+ (err=%v) evals/updates/maxqueue/unknowns %d/%d/%d/%d differ from slr (err=%v) %d/%d/%d/%d",
				slrPlus.Err, b.Evals, b.Updates, b.MaxQueue, b.Unknowns, slr.Err, a.Evals, a.Updates, a.MaxQueue, a.Unknowns)
		}
		for _, x := range sys.Order() {
			v, okA := slr.Values[x]
			w, okB := slrPlus.Values[x]
			if okA != okB || okA && !l.Eq(v, w) {
				return fmt.Errorf("slr+: value of %v = %s differs from slr = %s", x, l.Format(w), l.Format(v))
			}
		}
	}
	// The widening-point family is *not* bit-pinned to SW: applying ⊟ at
	// fewer points legitimately lands on a different post-solution. The gate
	// is certified-post-solution (above) plus, under StrictOrder, a precision
	// partial order: the restarting members SLR3/SLR4 must be pointwise ≤ the
	// ⊟-everywhere warrow baseline whenever both terminate.
	if opt.StrictOrder && sw != nil && sw.Err == nil {
		for i := range outcomes {
			o := &outcomes[i]
			if (o.Solver != "slr3" && o.Solver != "slr4") || o.Err != nil {
				continue
			}
			for _, x := range sys.Order() {
				if !l.Leq(o.Values[x], sw.Values[x]) {
					return fmt.Errorf("%s: value of %v = %s not ≤ sw's %s (precision order violated)",
						o.Solver, x, l.Format(o.Values[x]), l.Format(sw.Values[x]))
				}
			}
		}
	}
	return nil
}

// acceptableAbort reports whether a solver error is a controlled watchdog
// abort (budget, deadline, oscillation, …) rather than a defect: every
// abort carries a solver.AbortReport, and legacy bare budget sentinels are
// honored too.
func acceptableAbort(err error) bool {
	if errors.Is(err, solver.ErrEvalBudget) {
		return true
	}
	_, ok := solver.ReportOf(err)
	return ok
}

// CheckGenerated generates the system for an eqgen reproduction recipe and
// runs the differential verdict on it — the shared entry point of the
// property tests and the FuzzSolvers target. Errors are prefixed with the
// recipe so every failure is reproducible from its message.
func CheckGenerated(cfg eqgen.Config, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		l := lattice.Ints
		err = Check[int, lattice.Interval](l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), opt)
	case g.Flat != nil:
		l := eqgen.FlatL
		err = Check[int, lattice.Flat[int64]](l, g.Flat, eqn.ConstBottom[int, lattice.Flat[int64]](l), opt)
	case g.Powerset != nil:
		l := eqgen.PowersetL()
		err = Check[int, lattice.Set[int]](l, g.Powerset, eqn.ConstBottom[int, lattice.Set[int]](l), opt)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", g.Shape.Cfg, err)
	}
	return nil
}
