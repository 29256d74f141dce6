package solver

import (
	"math"
	"reflect"
	"testing"

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

// TestUnencodableRedoneBoxed: a solve on the unboxed core that computes a
// value its words cannot hold answers exactly like the boxed dense core —
// completed, aborted on a budget after that value, and resumed from a
// checkpoint that carries it — on CoreAuto and CoreUnboxed alike.
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
		for _, core := range []Core{CoreAuto, CoreUnboxed} {
			runOn(s.solve, Config{Core: core, Workers: 2}).agrees(t, s.name+"/"+core.String(), full)
			budget.Core = core
			runOn(s.solve, budget).agrees(t, s.name+"/"+core.String()+"/budget", cut)
			runOn(s.solve, Config{Core: core, Workers: 2, Resume: cut.cp}).agrees(t, s.name+"/"+core.String()+"/resume", resumed)
		}
	}
}

// TestUnencodableCPW: CPW's values on the unboxed core match the boxed
// core's when the solve computes, or resumes from, an unencodable value.
func TestUnencodableCPW(t *testing.T) {
	full := runOn(CPW[int, iv], Config{Core: CoreDense, Workers: 2})
	if full.err != nil {
		t.Fatal(full.err)
	}
	cut := runOn(CPW[int, iv], Config{Core: CoreDense, Workers: 1, MaxEvals: full.st.Evals - 5})
	if cut.cp == nil || !holdsExtreme(cut.cp) {
		t.Fatalf("budget abort (%v) carries no extreme value", cut.err)
	}
	for _, core := range []Core{CoreAuto, CoreUnboxed} {
		for _, cfg := range []Config{{Core: core, Workers: 2}, {Core: core, Workers: 2, Resume: cut.cp}} {
			r := runOn(CPW[int, iv], cfg)
			if r.err != nil || !reflect.DeepEqual(r.sigma, full.sigma) {
				t.Errorf("%s (resume %v): err %v, values equal %v", core, cfg.Resume != nil, r.err, reflect.DeepEqual(r.sigma, full.sigma))
			}
		}
	}
}

// TestUnencodableRedoSkipsDeliveredCheckpoints: the redo does not hand the
// periodic checkpoints the failed unboxed run already delivered to the sink
// a second time, so the sink sees exactly the boxed core's sequence.
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
	for _, core := range []Core{CoreAuto, CoreUnboxed} {
		if got := sink(core); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sink saw checkpoints at %v, boxed core at %v", core, got, want)
		}
	}
}
