package solver

import (
	"math"
	"reflect"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// extremeChain is a 40-unknown interval chain whose 21st equation computes
// the finite bound MaxInt64, which the unboxed words cannot hold; every
// later equation reads it. No fused right-hand sides are attached, so the
// unboxed core evaluates through its boxed-boundary adapter, whose encode
// of that result fails.
func extremeChain() *eqn.System[int, iv] {
	sys := eqn.NewSystem[int, iv]()
	sys.Define(0, nil, func(func(int) iv) iv { return lattice.Range(1, 1) })
	for i := 1; i < 40; i++ {
		prev := i - 1
		if i == 20 {
			sys.Define(i, []int{prev}, func(get func(int) iv) iv {
				return get(prev).Add(lattice.Range(math.MaxInt64-1, math.MaxInt64-1))
			})
			continue
		}
		sys.Define(i, []int{prev}, func(get func(int) iv) iv {
			return lattice.Ints.Join(get(prev), lattice.Range(0, 0))
		})
	}
	return sys
}

// unencodableSolvers are the entry points whose compiled cores pick a value
// store; CPW is left to TestUnencodableCPW, since its Stats are not pinned.
var unencodableSolvers = []struct {
	name  string
	solve func(*eqn.System[int, iv], lattice.Lattice[iv], Operator[int, iv], func(int) iv, Config) (map[int]iv, Stats, error)
}{
	{"rr", RR[int, iv]}, {"w", W[int, iv]}, {"srr", SRR[int, iv]}, {"sw", SW[int, iv]},
	{"psw", PSW[int, iv]}, {"slr2", SLR2[int, iv]}, {"slr3", SLR3[int, iv]}, {"slr4", SLR4[int, iv]},
}

type coreRun struct {
	sigma map[int]iv
	st    Stats
	rep   AbortReport
	cp    *Checkpoint[int, iv]
	err   error
}

func runOn(solve func(*eqn.System[int, iv], lattice.Lattice[iv], Operator[int, iv], func(int) iv, Config) (map[int]iv, Stats, error), cfg Config) coreRun {
	l := lattice.Ints
	sigma, st, err := solve(extremeChain(), l, WarrowOp[int](l), eqn.ConstBottom[int, iv](l), cfg)
	st.WallNs = 0
	r := coreRun{sigma: sigma, st: st, err: err}
	r.rep, _ = ReportOf(err)
	r.rep.Elapsed, r.rep.Checkpoint = 0, nil
	r.cp, _ = CheckpointOf[int, iv](err)
	return r
}

func (r coreRun) agrees(t *testing.T, what string, want coreRun) {
	t.Helper()
	if (r.err == nil) != (want.err == nil) {
		t.Fatalf("%s: err = %v, boxed %v", what, r.err, want.err)
	}
	if !reflect.DeepEqual(r.sigma, want.sigma) {
		t.Errorf("%s: values differ from the boxed core's", what)
	}
	if r.st != want.st {
		t.Errorf("%s: stats %+v, boxed %+v", what, r.st, want.st)
	}
	if !reflect.DeepEqual(r.rep, want.rep) {
		t.Errorf("%s: report %+v, boxed %+v", what, r.rep, want.rep)
	}
	if !reflect.DeepEqual(r.cp, want.cp) {
		t.Errorf("%s: checkpoint differs from the boxed core's", what)
	}
}

// holdsExtreme reports whether a checkpoint carries a value the unboxed
// words cannot hold.
func holdsExtreme(cp *Checkpoint[int, iv]) bool {
	for _, e := range cp.Sigma {
		if hi := e.V.Hi; !e.V.IsEmpty() && hi.IsFinite() && hi.Int() == math.MaxInt64 {
			return true
		}
	}
	return false
}

// TestUnencodableRedoneBoxed: a solve on the word store that computes a
// value its words cannot hold answers exactly like the boxed store —
// completed, aborted on a budget after that value, and resumed from a
// checkpoint that carries it.
func TestUnencodableRedoneBoxed(t *testing.T) {
	for _, s := range unencodableSolvers {
		full := runOn(s.solve, Config{Core: CoreDense, Workers: 2})
		if full.err != nil {
			t.Fatalf("%s: boxed: %v", s.name, full.err)
		}
		// Stop a few evaluations short of the end: past the extreme value,
		// which the chain computes before its last 19 unknowns.
		budget := Config{Core: CoreDense, Workers: 2, MaxEvals: full.st.Evals - 5}
		cut := runOn(s.solve, budget)
		if cut.cp == nil || !holdsExtreme(cut.cp) {
			t.Fatalf("%s: budget abort at %d evals (%v) carries no extreme value", s.name, budget.MaxEvals, cut.err)
		}
		resumed := runOn(s.solve, Config{Core: CoreDense, Workers: 2, Resume: cut.cp})
		runOn(s.solve, Config{Workers: 2}).agrees(t, s.name, full)
		budget.Core = CoreAuto
		runOn(s.solve, budget).agrees(t, s.name+"/budget", cut)
		runOn(s.solve, Config{Workers: 2, Resume: cut.cp}).agrees(t, s.name+"/resume", resumed)
	}
}

// TestUnencodableInitialAssignment: a σ₀ the words cannot hold sends every
// global solver's CoreAuto run to boxed values, where it answers exactly as
// under CoreDense — values, Stats, and at a budget the abort report and
// checkpoint. The two systems are eqgen's, with their fused right-hand
// sides: an interval system where one unknown starts with the finite bound
// MaxInt64, and a powerset system where one starts with an element outside
// the universe. CPW runs at one worker, where its schedule is fixed.
func TestUnencodableInitialAssignment(t *testing.T) {
	ig := eqgen.New(eqgen.Config{Seed: 3, Dom: eqgen.Interval, N: 64, NonMonoDensity: 0.2}).Interval
	checkUnencodableInit(t, ig, lattice.Lattice[iv](lattice.Ints), func(x int) iv {
		if x == 5 {
			return lattice.Range(0, math.MaxInt64)
		}
		return lattice.EmptyInterval
	})
	pg := eqgen.New(eqgen.Config{Seed: 3, Dom: eqgen.Powerset, N: 64, NonMonoDensity: 0.2}).Powerset
	checkUnencodableInit(t, pg, lattice.Lattice[lattice.Set[int]](eqgen.PowersetL()), func(x int) lattice.Set[int] {
		if x == 5 {
			return lattice.NewSet(2, 40)
		}
		return lattice.Set[int]{}
	})
}

func checkUnencodableInit[D any](t *testing.T, sys *eqn.System[int, D], l lattice.Lattice[D], init func(int) D) {
	t.Helper()
	type outcome struct {
		sigma map[int]D
		st    Stats
		rep   AbortReport
		cp    *Checkpoint[int, D]
		ok    bool
	}
	run := func(name string, cfg Config) outcome {
		sigma, st, err := Run(name, sys, l, WarrowOp[int](l), init, cfg)
		st.WallNs = 0
		o := outcome{sigma: sigma, st: st, ok: err == nil}
		o.rep, _ = ReportOf(err)
		o.rep.Elapsed, o.rep.Checkpoint = 0, nil
		o.cp, _ = CheckpointOf[int, D](err)
		return o
	}
	for _, name := range Globals {
		full := Config{Core: CoreDense, Workers: 1, MaxEvals: 20_000}
		want := run(name, full)
		budget := full
		budget.MaxEvals = max(1, want.st.Evals/2)
		wantCut := run(name, budget)
		if wantCut.cp == nil {
			t.Fatalf("%s: budget %d: no checkpoint", name, budget.MaxEvals)
		}
		full.Core, budget.Core = CoreAuto, CoreAuto
		for what, c := range map[string][2]outcome{"full": {run(name, full), want}, "budget": {run(name, budget), wantCut}} {
			if !reflect.DeepEqual(c[0], c[1]) {
				t.Errorf("%s %s: CoreAuto answers with stats %+v, report %+v; CoreDense with %+v, %+v (values equal: %v, checkpoints equal: %v)",
					name, what, c[0].st, c[0].rep, c[1].st, c[1].rep, reflect.DeepEqual(c[0].sigma, c[1].sigma), reflect.DeepEqual(c[0].cp, c[1].cp))
			}
		}
	}
}

// TestUnencodableCPW: CPW's values on the word store match the boxed
// store's when the solve computes, or resumes from, an unencodable value.
func TestUnencodableCPW(t *testing.T) {
	full := runOn(CPW[int, iv], Config{Core: CoreDense, Workers: 2})
	if full.err != nil {
		t.Fatal(full.err)
	}
	cut := runOn(CPW[int, iv], Config{Core: CoreDense, Workers: 1, MaxEvals: full.st.Evals - 5})
	if cut.cp == nil || !holdsExtreme(cut.cp) {
		t.Fatalf("budget abort (%v) carries no extreme value", cut.err)
	}
	for _, cfg := range []Config{{Workers: 2}, {Workers: 2, Resume: cut.cp}} {
		r := runOn(CPW[int, iv], cfg)
		if r.err != nil || !reflect.DeepEqual(r.sigma, full.sigma) {
			t.Errorf("resume %v: err %v, values equal %v", cfg.Resume != nil, r.err, reflect.DeepEqual(r.sigma, full.sigma))
		}
	}
}

// TestUnencodableRedoSkipsDeliveredCheckpoints: the redo does not hand the
// periodic checkpoints the failed word-store run already delivered to the
// sink a second time, so the sink sees exactly the boxed store's sequence.
func TestUnencodableRedoSkipsDeliveredCheckpoints(t *testing.T) {
	sink := func(core Core) []int {
		var evals []int
		cfg := Config{Core: core, CheckpointEvery: 7, CheckpointSink: func(cp any) {
			evals = append(evals, cp.(*Checkpoint[int, iv]).Evals)
		}}
		if r := runOn(SW[int, iv], cfg); r.err != nil {
			t.Fatalf("%s: %v", core, r.err)
		}
		return evals
	}
	want := sink(CoreDense)
	if len(want) < 4 {
		t.Fatalf("boxed run emitted %d checkpoints, want several before and after the extreme value", len(want))
	}
	if got := sink(CoreAuto); !reflect.DeepEqual(got, want) {
		t.Errorf("sink saw checkpoints at %v, boxed store at %v", got, want)
	}
}
