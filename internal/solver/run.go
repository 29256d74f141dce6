package solver

import (
	"fmt"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// Globals lists the global solvers Run dispatches, by name: RR, W, SRR and
// SW (Figs. 1–4), PSW, CPW, and SLR2–4. Every one shares the signature of
// RR and runs its loop over the compiled representation of the system.
var Globals = []string{"rr", "w", "srr", "sw", "psw", "cpw", "slr2", "slr3", "slr4"}

// ExactResume reports whether the named global solver's checkpoints resume
// exactly, which is what quantum preemption and client-side resume rely on:
// true for rr, w, srr, sw, psw and cpw. CPW's checkpoints are
// quiesce-and-drain snapshots, exact in that the resumed run restores every
// suspended unknown, not in that it replays the same worker interleaving
// (its results are certified, not bit-pinned). SLR2–4 restart their
// resumed sweep from the top with the checkpoint's dirty unknowns pending,
// so their checkpoints are warm restarts.
func ExactResume(name string) bool {
	switch name {
	case "rr", "w", "srr", "sw", "psw", "cpw":
		return true
	}
	return false
}

// Run solves sys with the named global solver, one of Globals, and returns
// exactly what that solver's entry point (RR, W, SRR, SW, PSW, CPW, SLR2,
// SLR3 or SLR4) returns. For any other name it runs nothing and returns an
// error that names it.
func Run[X comparable, D any](name string, sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	lp, shared := loopOf[X, D](name)
	if lp == nil {
		return nil, Stats{}, fmt.Errorf("solver: unknown global solver %q", name)
	}
	return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) {
		start := time.Now()
		s := newStore(sys, init, wordsFor(l, op, cfg), shared)
		defer s.release()
		if err := s.reset(); err != nil {
			// A σ₀ the words cannot hold: redoBoxed runs the solve on boxed
			// values.
			return nil, Stats{}, err
		}
		vc, wd := newCore(s, l, op, cfg)
		st, err := lp(vc, wd, cfg, start)
		return s.sigma(), st, err
	})
}

// loop is one global solver's iteration over a built core and its
// watchdog; start is when the run began, for the Stats.WallNs of PSW and
// CPW.
type loop[X comparable, D any] func(vc execCore[X, D], wd *watchdog[X], cfg Config, start time.Time) (Stats, error)

// loopOf is the table of the global solvers: it returns the named solver's
// loop, and whether that loop runs on the shared store (CPW's workers step
// one store concurrently), or a nil loop for a name Globals does not list.
func loopOf[X comparable, D any](name string) (lp loop[X, D], shared bool) {
	switch name {
	case "rr":
		return rrLoop[X, D], false
	case "w":
		return wLoop[X, D], false
	case "srr":
		return srrLoop[X, D], false
	case "sw":
		return swLoop[X, D], false
	case "psw":
		return pswLoop[X, D], false
	case "cpw":
		return cpwLoop[X, D], true
	case "slr2":
		return func(vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
			return slrxLoop(vc, wd, cfg, "slr2", restartNone)
		}, false
	case "slr3":
		return func(vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
			return slrxLoop(vc, wd, cfg, "slr3", restartAll)
		}, false
	case "slr4":
		return func(vc execCore[X, D], wd *watchdog[X], cfg Config, _ time.Time) (Stats, error) {
			return slrxLoop(vc, wd, cfg, "slr4", restartSCC)
		}, false
	}
	return nil, false
}
