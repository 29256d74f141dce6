package solver

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// TestRunDispatch pins the table of the global solvers. Every name in
// Globals must reach its own loop: a budget abort checkpoints under that
// name — which catches a mix-up such as slr3 ↔ slr4 that comparing two
// runs of one path cannot — and the checkpoint resumes through Run, on
// both value stores. Any other name fails before a single evaluation.
func TestRunDispatch(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		checkRunDispatch(t, lattice.Ints, eqgen.New(eqgen.Config{Seed: 3, Dom: eqgen.Interval, N: 48}).Interval)
	})
	t.Run("powerset", func(t *testing.T) {
		checkRunDispatch(t, eqgen.PowersetL(), eqgen.New(eqgen.Config{Seed: 3, Dom: eqgen.Powerset, N: 48}).Powerset)
	})

	evals := 0
	sys := eqn.NewSystem[int, lattice.Interval]()
	sys.Define(0, nil, func(func(int) lattice.Interval) lattice.Interval { evals++; return lattice.Singleton(0) })
	for _, name := range []string{"", "slr", "SW", "psw2"} {
		sigma, st, err := Run(name, sys, lattice.Ints, WarrowOp[int](lattice.Ints), eqn.ConstBottom[int, lattice.Interval](lattice.Ints), Config{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("Run(%q): error %v, want one naming %q", name, err, name)
		}
		if sigma != nil || st != (Stats{}) || evals != 0 {
			t.Errorf("Run(%q) ran: σ %v, stats %+v, %d evaluations", name, sigma, st, evals)
		}
	}

	exact := []string{"rr", "w", "srr", "sw", "psw", "cpw"}
	for _, name := range append(slices.Clone(Globals), "", "slr", "slr+", "rld", "SW") {
		if got, want := ExactResume(name), slices.Contains(exact, name); got != want {
			t.Errorf("ExactResume(%q) = %v, want %v", name, got, want)
		}
	}
}

// checkRunDispatch interrupts every global solver on sys and resumes it
// through Run, once per value store. The sequential solvers and PSW must
// reproduce the uninterrupted run exactly, CPW's resumed result must
// certify, and SLR2–4, whose resumed sweep restarts from the top, must
// complete with a certified result.
func checkRunDispatch[D any](t *testing.T, l lattice.Lattice[D], sys *eqn.System[int, D]) {
	init := eqn.ConstBottom[int, D](l)
	op := WarrowOp[int](l)
	for _, core := range []Core{CoreDense, CoreAuto} {
		for _, name := range Globals {
			what := name + "/" + core.String()
			cfg := Config{Core: core, Workers: 2, MaxEvals: 1_000_000}
			want, wantSt, err := Run(name, sys, l, op, init, cfg)
			if err != nil {
				t.Fatalf("%s: uninterrupted run: %v", what, err)
			}
			// Every run evaluates each unknown at least once, so a budget
			// below the system size aborts even CPW's shortest schedule.
			budget := cfg
			budget.MaxEvals = min(wantSt.Evals/2, sys.Len()-1)
			_, _, err = Run(name, sys, l, op, init, budget)
			cp, ok := CheckpointOf[int, D](err)
			if !ok {
				t.Fatalf("%s: budget %d: no checkpoint: %v", what, budget.MaxEvals, err)
			}
			if cp.Solver != name {
				t.Fatalf("%s: checkpoint names %q", what, cp.Solver)
			}
			resumed := cfg
			resumed.Resume = cp
			got, gotSt, err := Run(name, sys, l, op, init, resumed)
			if err != nil {
				t.Fatalf("%s: resume from budget %d: %v", what, budget.MaxEvals, err)
			}
			if name == "cpw" || !ExactResume(name) {
				if rep := certify.System(l, sys, got, init); !rep.OK() {
					t.Errorf("%s: resumed result does not certify: %v", what, rep.Err())
				}
				continue
			}
			if gotSt.Evals != wantSt.Evals || gotSt.Updates != wantSt.Updates || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: resumed evals/updates %d/%d, uninterrupted %d/%d (values equal: %v)",
					what, gotSt.Evals, gotSt.Updates, wantSt.Evals, wantSt.Updates, reflect.DeepEqual(got, want))
			}
		}
	}
}

// TestRefusedResumeReturnsInit: every global solver refuses a checkpoint
// another solver captured with ErrBadCheckpoint, before a single
// evaluation, and returns σ₀ for every unknown, on both value stores.
func TestRefusedResumeReturnsInit(t *testing.T) {
	l := lattice.Ints
	sys := eqgen.New(eqgen.Config{Seed: 3, Dom: eqgen.Interval, N: 48}).Interval
	init := func(x int) lattice.Interval { return lattice.Singleton(int64(x)) }
	op := WarrowOp[int](l)
	for _, core := range []Core{CoreDense, CoreAuto} {
		for k, name := range Globals {
			other := Globals[(k+1)%len(Globals)]
			_, _, err := Run(other, sys, l, op, init, Config{Core: core, MaxEvals: 10})
			cp, ok := CheckpointOf[int, lattice.Interval](err)
			if !ok {
				t.Fatalf("%s: budget abort carries no checkpoint: %v", other, err)
			}
			sigma, st, err := Run(name, sys, l, op, init, Config{Core: core, Resume: cp})
			if !errors.Is(err, ErrBadCheckpoint) || st.Evals != 0 {
				t.Errorf("%s/%s resuming %s: err %v after %d evals, want ErrBadCheckpoint after 0", name, core, other, err, st.Evals)
			}
			if len(sigma) != sys.Len() {
				t.Errorf("%s/%s: returned %d values, want σ₀ for all %d unknowns", name, core, len(sigma), sys.Len())
				continue
			}
			for _, x := range sys.Order() {
				if !l.Eq(sigma[x], init(x)) {
					t.Errorf("%s/%s: value of %d = %s, want σ₀ %s", name, core, x, l.Format(sigma[x]), l.Format(init(x)))
					break
				}
			}
		}
	}
}
