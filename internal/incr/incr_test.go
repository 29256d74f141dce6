package incr

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// chain builds an n-unknown interval chain: unknown 0 is [c, c], unknown i
// copies its predecessor joined with [i, i]. Every unknown is its own
// stratum, so cone sizes are exactly suffix lengths.
func chain(n int, c int64) *eqn.System[int, lattice.Interval] {
	sys := eqn.NewSystem[int, lattice.Interval]()
	sys.Define(0, nil, func(func(int) lattice.Interval) lattice.Interval {
		return lattice.Singleton(c)
	})
	for i := 1; i < n; i++ {
		i := i
		sys.Define(i, []int{i - 1}, func(get func(int) lattice.Interval) lattice.Interval {
			return lattice.Ints.Join(get(i-1), lattice.Singleton(int64(i)))
		})
	}
	return sys
}

var l = lattice.Ints

func scratch(t *testing.T, e *Engine[int, lattice.Interval], sys *eqn.System[int, lattice.Interval], cfg solver.Config) map[int]lattice.Interval {
	t.Helper()
	sigma, _, err := solver.Run(e.SolverName(), sys, l, solver.WarrowOp[int](l), e.Init(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

func mustEqual(t *testing.T, sys *eqn.System[int, lattice.Interval], got, want map[int]lattice.Interval) {
	t.Helper()
	for _, x := range sys.Order() {
		if !l.Eq(got[x], want[x]) {
			t.Fatalf("value of %v = %s, want %s", x, l.Format(got[x]), l.Format(want[x]))
		}
	}
}

func TestResolveBeforeSolve(t *testing.T) {
	e, err := New(l, chain(8, 0), eqn.ConstBottom[int, lattice.Interval](l), "sw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resolve(solver.Config{MaxEvals: 1000}); err == nil {
		t.Fatal("Resolve before Solve succeeded")
	}
}

func TestUnknownSolverRejected(t *testing.T) {
	if _, err := New(l, chain(4, 0), eqn.ConstBottom[int, lattice.Interval](l), "slr"); err == nil {
		t.Fatal("New accepted the local solver slr")
	}
}

func TestNoEditFastPath(t *testing.T) {
	sys := chain(12, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	first, err := e.Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 0 || res.ReusedUnknowns != 12 || res.ConeStrata != 0 {
		t.Fatalf("no-edit resolve reported dirty/reused/strata %d/%d/%d",
			res.DirtyUnknowns, res.ReusedUnknowns, res.ConeStrata)
	}
	if res.Stats.Evals != 0 {
		t.Fatalf("no-edit resolve evaluated %d times", res.Stats.Evals)
	}
	mustEqual(t, sys, res.Values, first.Values)
}

// TestLiveValuesContract pins what a result's Values is: the engine's
// live assignment, which a later Resolve updates in place (and a no-edit
// or aborted one leaves as it is), while Engine.Values is a snapshot.
func TestLiveValuesContract(t *testing.T) {
	sys := chain(24, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	first, err := e.Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := first.Values
	samePtr := func(a, b map[int]lattice.Interval) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	snap := e.Values()
	if samePtr(snap, live) {
		t.Fatal("Values returned the live assignment, not a snapshot")
	}
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !samePtr(res.Values, live) {
		t.Fatal("no-edit Resolve returned a copy of the assignment")
	}

	e.Apply(Redefine(10, []int{9}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(9), lattice.Singleton(100))
	}))
	if _, err := e.Resolve(solver.Config{MaxEvals: 3}); err == nil {
		t.Fatal("budget 3 did not abort the cone re-solve")
	}
	mustEqual(t, sys, live, snap)

	res, err = e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !samePtr(res.Values, live) {
		t.Fatal("Resolve returned a map other than the live assignment")
	}
	if got := live[23]; !l.Eq(got, lattice.Range(0, 100)) {
		t.Fatalf("held result's chain tail = %s after the re-solve, want [0,100]", l.Format(got))
	}
	if got := snap[23]; !l.Eq(got, lattice.Range(0, 23)) {
		t.Fatalf("snapshot's chain tail = %s after the re-solve, want [0,23]", l.Format(got))
	}
	mustEqual(t, sys, live, scratch(t, e, sys, cfg))
}

func TestConeIsSuffixOfChain(t *testing.T) {
	sys := chain(20, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	// Raise unknown 10's constant: the cone is exactly unknowns 10..19.
	e.Apply(Redefine(10, []int{9}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(9), lattice.Singleton(100))
	}))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 10 || res.ReusedUnknowns != 10 || res.ConeStrata != 10 {
		t.Fatalf("cone dirty/reused/strata = %d/%d/%d, want 10/10/10",
			res.DirtyUnknowns, res.ReusedUnknowns, res.ConeStrata)
	}
	mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
	if got := res.Values[19]; !l.Eq(got, lattice.Range(0, 100)) {
		t.Fatalf("chain tail = %s, want [0,100]", l.Format(got))
	}
}

func TestGenericSolverResolvesInFull(t *testing.T) {
	sys := chain(20, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "rr")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Redefine(19, []int{18}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(18), lattice.Singleton(77))
	}))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 20 || res.ReusedUnknowns != 0 {
		t.Fatalf("rr resolve reported dirty/reused %d/%d, want 20/0", res.DirtyUnknowns, res.ReusedUnknowns)
	}
	mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
}

func TestPerturbDefinedUnknown(t *testing.T) {
	sys := chain(16, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Perturb(3, lattice.Range(-5, -5)))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 13 {
		t.Fatalf("perturb of unknown 3 dirtied %d unknowns, want 13", res.DirtyUnknowns)
	}
	mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
	if got := res.Values[15]; !l.Eq(got, lattice.Range(-5, 15)) {
		t.Fatalf("chain tail = %s, want [-5,15]", l.Format(got))
	}
}

// TestPerturbParameter perturbs an unknown no equation defines: the readers
// fall back to σ₀ for it, so the perturbation seeds exactly those readers.
func TestPerturbParameter(t *testing.T) {
	sys := chain(10, 0)
	// Unknown 4 additionally reads the undefined parameter 99.
	sys.Redefine(4, []int{3, 99}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(3), get(99))
	})
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Perturb(99, lattice.Singleton(42)))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 6 {
		t.Fatalf("parameter perturb dirtied %d unknowns, want 6 (readers 4..9)", res.DirtyUnknowns)
	}
	mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
	if got := res.Values[9]; !l.Eq(got, lattice.Range(0, 42)) {
		t.Fatalf("chain tail = %s, want [0,42]", l.Format(got))
	}
}

// TestDefineNewUnknown grows the system through the engine: the new unknown
// is its own cone seed and the delta accounting tracks the new size.
func TestDefineNewUnknown(t *testing.T) {
	sys := chain(8, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Redefine(8, []int{7}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(7), lattice.Singleton(200))
	}))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 1 || res.ReusedUnknowns != 8 {
		t.Fatalf("new-unknown resolve reported dirty/reused %d/%d, want 1/8", res.DirtyUnknowns, res.ReusedUnknowns)
	}
	if got := res.Values[8]; !l.Eq(got, lattice.Range(0, 200)) {
		t.Fatalf("new unknown = %s, want [0,200]", l.Format(got))
	}
}

// TestDefineUnknownAtZeroWords: a new unknown's slot in the word store
// starts as zero words, which encode the interval [0,0]. A new unknown
// whose value is [0,0] still reaches the result, and so does a reader
// that only a later re-solve adds.
func TestDefineUnknownAtZeroWords(t *testing.T) {
	sys := chain(8, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Redefine(8, nil, func(func(int) lattice.Interval) lattice.Interval { return lattice.Singleton(0) }))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Values[8]; !ok || !l.Eq(v, lattice.Singleton(0)) {
		t.Fatalf("new unknown = %s (present %v), want [0,0]", l.Format(v), ok)
	}
	e.Apply(Redefine(9, []int{8}, func(get func(int) lattice.Interval) lattice.Interval { return get(8) }))
	res, err = e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Values[9]; !ok || !l.Eq(v, lattice.Singleton(0)) {
		t.Fatalf("its reader = %s (present %v), want [0,0]", l.Format(v), ok)
	}
	mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
}

// TestAbortKeepsBatchPending interrupts a cone re-solve with a tiny budget:
// the edit stays staged, and a later Resolve with room completes to the
// scratch result.
func TestAbortKeepsBatchPending(t *testing.T) {
	sys := chain(24, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Redefine(2, []int{1}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(1), lattice.Singleton(300))
	}))
	_, aerr := e.Resolve(solver.Config{MaxEvals: 3})
	if aerr == nil {
		t.Fatal("budget 3 did not abort the cone re-solve")
	}
	if !errors.Is(aerr, solver.ErrEvalBudget) {
		if _, ok := solver.ReportOf(aerr); !ok {
			t.Fatalf("abort is not a controlled budget abort: %v", aerr)
		}
	}
	// The baseline did not advance and the batch is still pending.
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 22 {
		t.Fatalf("retried resolve dirtied %d unknowns, want 22", res.DirtyUnknowns)
	}
	mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
}

// TestResumeMidCone resumes an interrupted cone re-solve from its abort
// checkpoint and demands the uninterrupted incremental result.
func TestResumeMidCone(t *testing.T) {
	sys := chain(24, 0)
	mk := func() *Engine[int, lattice.Interval] {
		e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
		return e
	}
	cfg := solver.Config{MaxEvals: 100_000}
	ref, intr := mk(), mk()
	if _, err := ref.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := intr.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	sys.Redefine(4, []int{3}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(3), lattice.Singleton(123))
	})
	refRes, err := ref.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, aerr := intr.Resolve(solver.Config{MaxEvals: refRes.Stats.Evals / 2})
	cp, ok := solver.CheckpointOf[int, lattice.Interval](aerr)
	if !ok {
		t.Fatalf("mid-cone abort carries no checkpoint: %v", aerr)
	}
	rc := cfg
	rc.Resume = cp
	got, err := intr.Resolve(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Evals != refRes.Stats.Evals || got.Stats.Updates != refRes.Stats.Updates {
		t.Fatalf("resumed evals/updates %d/%d, uninterrupted %d/%d",
			got.Stats.Evals, got.Stats.Updates, refRes.Stats.Evals, refRes.Stats.Updates)
	}
	mustEqual(t, sys, got.Values, refRes.Values)
}

// TestUnreachedPerturbationConsumed: a perturbation of an unknown nothing
// defines or reads seeds no cone; the no-edit fast path consumes it instead
// of looking it up again on every later call.
func TestUnreachedPerturbationConsumed(t *testing.T) {
	sys := chain(8, 0)
	e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	cfg := solver.Config{MaxEvals: 100_000}
	if _, err := e.Solve(cfg); err != nil {
		t.Fatal(err)
	}
	e.Apply(Perturb(99, lattice.Singleton(7)))
	res, err := e.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyUnknowns != 0 || res.ReusedUnknowns != 8 {
		t.Fatalf("unread perturbation dirtied %d unknowns", res.DirtyUnknowns)
	}
	if len(e.perturbed) != 0 {
		t.Fatalf("fast path left %d perturbations pending", len(e.perturbed))
	}
	if got := e.Init()(99); !l.Eq(got, lattice.Singleton(7)) {
		t.Fatalf("live init of the perturbed unknown = %s, want [7,7]", l.Format(got))
	}
}

// TestAbortedConeLeavesNoTrace: a cone that aborts puts every member's
// slot of the live store back, rounded-in clean members included, so a
// later cone that reads such a member from outside sees its final. In the
// order x0, x1, x2, x3, x0 and x2 read each other, which makes x0..x2 one
// stratum: x1, a constant, is a rounded-in clean member of x0's cone, and
// the budget stops the cone right after x0, with x1 reset to σ₀. Dropping
// x2 from x0's dependences then splits the stratum and leaves x1 outside
// the next cone, which re-solves x3, a reader of x1.
func TestAbortedConeLeavesNoTrace(t *testing.T) {
	for _, name := range []string{"srr", "sw", "psw"} {
		sys := eqn.NewSystem[int, lattice.Interval]()
		sys.Define(0, []int{2}, func(get func(int) lattice.Interval) lattice.Interval {
			return l.Join(get(2), lattice.Singleton(0))
		})
		sys.Define(1, nil, func(func(int) lattice.Interval) lattice.Interval { return lattice.Singleton(5) })
		sys.Define(2, []int{0}, func(get func(int) lattice.Interval) lattice.Interval {
			return l.Join(get(0), lattice.Singleton(2))
		})
		sys.Define(3, []int{1}, func(get func(int) lattice.Interval) lattice.Interval {
			return l.Join(get(1), lattice.Singleton(3))
		})
		e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), name)
		cfg := solver.Config{Workers: 1}
		if _, err := e.Solve(cfg); err != nil {
			t.Fatal(err)
		}
		e.Apply(Redefine(0, []int{2}, func(get func(int) lattice.Interval) lattice.Interval {
			return l.Join(get(2), lattice.Singleton(-1))
		}))
		if _, err := e.Resolve(solver.Config{Workers: 1, MaxEvals: 1}); err == nil {
			t.Fatalf("%s: budget 1 did not abort the cone", name)
		}
		e.Apply(
			Redefine(0, nil, func(func(int) lattice.Interval) lattice.Interval { return lattice.Singleton(-1) }),
			Redefine(3, []int{1}, func(get func(int) lattice.Interval) lattice.Interval {
				return l.Join(get(1), lattice.Singleton(4))
			}))
		res, err := e.Resolve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DirtyUnknowns != 3 {
			t.Fatalf("%s: the cone of x0 and x3 holds %d unknowns, want 3 (x1 outside)", name, res.DirtyUnknowns)
		}
		mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
		if got := res.Values[3]; !l.Eq(got, lattice.Range(4, 5)) {
			t.Fatalf("%s: x3 = %s, want [4,5]", name, l.Format(got))
		}
	}
}

// TestUnencodableCone: a cone that computes a value the word store cannot
// hold — an interval bound of MaxInt64, as in the solver's
// TestUnencodableRedoneBoxed — is redone on boxed values and matches
// scratch, and so do the leaf edits that follow on the converted store.
// The chain has no fused right-hand sides, so the word store evaluates
// through its boxed adapter, whose encode of that bound fails.
func TestUnencodableCone(t *testing.T) {
	for _, name := range []string{"srr", "sw", "psw"} {
		sys := chain(40, 0)
		e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), name)
		cfg := solver.Config{MaxEvals: 100_000}
		if _, err := e.Solve(cfg); err != nil {
			t.Fatal(err)
		}
		e.Apply(Redefine(20, []int{19}, func(get func(int) lattice.Interval) lattice.Interval {
			return get(19).Add(lattice.Singleton(math.MaxInt64 - 19))
		}))
		res, err := e.Resolve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hi := res.Values[39].Hi; !hi.IsFinite() || hi.Int() != math.MaxInt64 {
			t.Fatalf("%s: chain tail = %s, want an upper bound of MaxInt64", name, l.Format(res.Values[39]))
		}
		mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
		for k := int64(1); k <= 3; k++ {
			e.Apply(Redefine(39, []int{38}, func(get func(int) lattice.Interval) lattice.Interval {
				return l.Join(get(38), lattice.Singleton(-k))
			}))
			res, err := e.Resolve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.DirtyUnknowns != 1 {
				t.Fatalf("%s: leaf edit %d dirtied %d unknowns", name, k, res.DirtyUnknowns)
			}
			mustEqual(t, sys, res.Values, scratch(t, e, sys, cfg))
		}
	}
}

// TestUnencodablePerturbation: a Perturb to a σ₀ the unboxed words cannot
// hold — an upper bound of MaxInt64 — re-solves on boxed values and equals
// a scratch solve on boxed values, for every engine.
func TestUnencodablePerturbation(t *testing.T) {
	for _, name := range []string{"rr", "w", "srr", "sw", "psw"} {
		sys := chain(40, 0)
		e, _ := New(l, sys, eqn.ConstBottom[int, lattice.Interval](l), name)
		cfg := solver.Config{MaxEvals: 100_000}
		if _, err := e.Solve(cfg); err != nil {
			t.Fatal(err)
		}
		e.Apply(Perturb(10, lattice.Range(0, math.MaxInt64)))
		res, err := e.Resolve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hi := res.Values[39].Hi; !hi.IsFinite() || hi.Int() != math.MaxInt64 {
			t.Fatalf("%s: chain tail = %s, want an upper bound of MaxInt64", name, l.Format(res.Values[39]))
		}
		mustEqual(t, sys, res.Values, scratch(t, e, sys, solver.Config{MaxEvals: 100_000, Core: solver.CoreDense}))
	}
}

// TestTailEditGate holds the edit-workload gates on three ≥1000-unknown
// eqgen systems, one per domain. Redefining one unknown of the last stratum
// with fresh material (dependences unchanged) must re-solve bit-identically
// to scratch SW in under 25% of scratch's evaluations. Two seeded
// eqgen.Mutate batches then edit 1% and 10% of the unknowns, and each
// re-solve must again equal scratch SW. These batches of 10 to 150 edits
// are far larger than CheckIncremental's; their random targets dirty most
// of the system, so they carry no evaluation gate. The evaluation counts
// are deterministic and logged (go test -v).
func TestTailEditGate(t *testing.T) {
	for _, c := range []struct {
		cfg      eqgen.Config
		editSeed uint64
	}{
		{eqgen.Config{Seed: 101, Dom: eqgen.Interval, N: 1500}, 1},
		{eqgen.Config{Seed: 202, Dom: eqgen.Flat, N: 1200}, 2},
		{eqgen.Config{Seed: 303, Dom: eqgen.Powerset, N: 1000}, 3},
	} {
		g := eqgen.New(c.cfg)
		var err error
		switch {
		case g.Interval != nil:
			err = editSweeps(t, l, g, g.Interval, eqgen.IntervalRHS, c.editSeed)
		case g.Flat != nil:
			err = editSweeps(t, eqgen.FlatL, g, g.Flat, eqgen.FlatRHS, c.editSeed)
		case g.Powerset != nil:
			err = editSweeps(t, eqgen.PowersetL(), g, g.Powerset, eqgen.PowersetRHS, c.editSeed)
		}
		if err != nil {
			t.Errorf("%s: %v", c.cfg, err)
		}
	}
}

// editSweeps runs TestTailEditGate's three edits on one solved system: the
// tail edit, then the 1% and the 10% Mutate batch.
func editSweeps[D any](t *testing.T, l lattice.Lattice[D], g eqgen.System, sys *eqn.System[int, D],
	build func(eqgen.Spec) (eqn.RHS[int, D], eqn.RawRHS[int]), editSeed uint64) error {
	init := eqn.ConstBottom[int, D](l)
	e, err := New(l, sys, init, "sw")
	if err != nil {
		return err
	}
	if _, err := e.Solve(solver.Config{}); err != nil {
		return err
	}
	// resolve re-solves the edited system and checks it against scratch SW,
	// returning both evaluation counts.
	resolve := func(edit string) (int, int, error) {
		res, err := e.Resolve(solver.Config{})
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", edit, err)
		}
		want, st, err := solver.SW(sys, l, solver.WarrowOp[int](l), e.Init(), solver.Config{})
		if err != nil {
			return 0, 0, fmt.Errorf("%s: scratch: %w", edit, err)
		}
		for _, x := range sys.Order() {
			if !l.Eq(res.Values[x], want[x]) {
				return 0, 0, fmt.Errorf("%s: value of %d = %s, scratch %s", edit, x, l.Format(res.Values[x]), l.Format(want[x]))
			}
		}
		t.Logf("%s n=%d, %s: %d evaluations over %d dirty unknowns, scratch %d",
			g.Shape.Cfg.Dom, sys.Len(), edit, res.Stats.Evals, res.DirtyUnknowns, st.Evals)
		return res.Stats.Evals, st.Evals, nil
	}

	strata := solver.DecompositionOf(sys).Strata()
	i := strata[len(strata)-1].Lo
	sp := g.Shape.SpecOf(i)
	sp.Mat = editSeed * 0x9e3779b97f4a7c15
	rhs, raw := build(sp)
	sys.RedefineRaw(i, sp.Deps, rhs, raw)
	evals, scratchEvals, err := resolve("tail edit")
	if err != nil {
		return err
	}
	if 4*evals >= scratchEvals {
		return fmt.Errorf("the tail edit took %d evaluations, not under 25%% of scratch's %d", evals, scratchEvals)
	}

	n := sys.Len()
	for si, k := range []int{n / 100, n / 10} {
		eqgen.Mutate(g, editSeed+uint64(si+1)*0x6c62272e07bb0142, k)
		if _, _, err := resolve(fmt.Sprintf("%d-edit batch", k)); err != nil {
			return err
		}
	}
	return nil
}

// solvedEngine solves an N-unknown eqgen interval system with sw and
// returns the engine with the generated system.
func solvedEngine(tb testing.TB, n int) (*Engine[int, lattice.Interval], eqgen.System) {
	tb.Helper()
	g := eqgen.New(eqgen.Config{Seed: 13, Dom: eqgen.Interval, N: n})
	e, err := New(l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Solve(solver.Config{}); err != nil {
		tb.Fatal(err)
	}
	return e, g
}

// leafEngine returns a solved engine (solvedEngine) with a leaf
// redefinition of the last unknown (same dependences, fresh constant
// material) applied but not yet re-solved.
func leafEngine(tb testing.TB, n int) (*Engine[int, lattice.Interval], func(mat uint64)) {
	tb.Helper()
	e, g := solvedEngine(tb, n)
	edit := func(mat uint64) {
		sp := g.Shape.SpecOf(n - 1)
		sp.Mat = mat
		rhs, raw := eqgen.IntervalRHS(sp)
		e.Apply(RedefineRaw(n-1, sp.Deps, rhs, raw))
	}
	edit(1)
	return e, edit
}

// TestLeafConeAllocsIndependentOfN pins the cone step of a leaf edit —
// collecting the pending seeds and computing their cone over the memoized
// decomposition — at the same allocation count for N = 256 and N = 4096:
// nothing in it is sized by the system.
func TestLeafConeAllocsIndependentOfN(t *testing.T) {
	var allocs []float64
	for _, n := range []int{256, 4096} {
		e, _ := leafEngine(t, n)
		step := func() { e.cone, _ = solver.DecompositionOf(e.sys).Cone(e.cone, e.pending()) }
		step()
		allocs = append(allocs, testing.AllocsPerRun(100, step))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("leaf cone step allocates %.1f at N=256 but %.1f at N=4096", allocs[0], allocs[1])
	}
}

// TestConeResolveAllocsIndependentOfCone pins a same-dependences edit and
// its Resolve at a constant number of allocations, whatever the cone's
// size: an edit whose cone holds tens of unknowns and one whose cone holds
// thousands allocate the same, within a small constant. The cone runs in
// place on the live store and writes its members into the live assignment,
// so nothing in it allocates per member.
func TestConeResolveAllocsIndependentOfCone(t *testing.T) {
	const n = 4096
	e, g := solvedEngine(t, n)
	dec := solver.DecompositionOf(e.sys)
	// The last unknown before position p whose cone has a size in [lo, hi].
	pick := func(p, lo, hi int) int {
		for i := p - 1; i >= 0; i-- {
			if m, _ := dec.Cone(nil, []int{i}); len(m) >= lo && len(m) <= hi {
				return i
			}
		}
		t.Fatalf("no unknown before %d has a cone of %d–%d unknowns", p, lo, hi)
		return 0
	}
	small, large := pick(n, 20, 99), pick(n/4, 1000, n)
	mat := uint64(0)
	var allocs []float64
	for _, x := range []int{small, large} {
		step := func() {
			mat++
			sp := g.Shape.SpecOf(x)
			sp.Mat = mat
			rhs, raw := eqgen.IntervalRHS(sp)
			e.Apply(RedefineRaw(x, sp.Deps, rhs, raw))
			if _, err := e.Resolve(solver.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		step()
		allocs = append(allocs, testing.AllocsPerRun(20, step))
	}
	if d := allocs[1] - allocs[0]; d > 4 || d < -4 {
		t.Fatalf("a same-dependences edit allocates %.1f with a cone of tens but %.1f with a cone of thousands", allocs[0], allocs[1])
	}
}

// TestLeafResolveBytesIndependentOfN pins a whole leaf edit and its
// Resolve at O(cone): the bytes it allocates may not grow with the system,
// so N = 4096 allocates at most twice what N = 256 does. Materializing a
// full result map per re-solve would scale with N.
func TestLeafResolveBytesIndependentOfN(t *testing.T) {
	var perOp []int64
	for _, n := range []int{256, 4096} {
		e, edit := leafEngine(t, n)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				edit(uint64(i + 2))
				if _, err := e.Resolve(solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if r.N == 0 {
			t.Fatalf("N=%d: the leaf re-solve failed", n)
		}
		perOp = append(perOp, r.AllocedBytesPerOp())
	}
	if perOp[1] > 2*perOp[0] {
		t.Fatalf("leaf Resolve allocates %d B/op at N=256 but %d B/op at N=4096", perOp[0], perOp[1])
	}
}

// BenchmarkResolveLeaf measures one leaf edit and its re-solve through the
// engine, the common edit of an incremental session.
func BenchmarkResolveLeaf(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			e, edit := leafEngine(b, n)
			if _, err := e.Resolve(solver.Config{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				edit(uint64(i + 2))
				if _, err := e.Resolve(solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolveMutate measures an eqgen.Mutate batch of 1–4 edits and
// its undo — the edited unknowns redefined back to their generated specs —
// each re-solved through the engine at N = 4096, per domain, as
// edit-stream runs them. eqgen's backward edges give a random edit a cone
// of about half the system, so this is the expensive operation of an edit
// stream.
func BenchmarkResolveMutate(b *testing.B) {
	for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
		b.Run(dom.String(), func(b *testing.B) {
			g := eqgen.New(eqgen.Config{Seed: 13, Dom: dom, N: 4096})
			switch {
			case g.Interval != nil:
				benchMutate(b, l, g, g.Interval, eqgen.IntervalRHS)
			case g.Flat != nil:
				benchMutate(b, eqgen.FlatL, g, g.Flat, eqgen.FlatRHS)
			case g.Powerset != nil:
				benchMutate(b, eqgen.PowersetL(), g, g.Powerset, eqgen.PowersetRHS)
			}
		})
	}
}

func benchMutate[D any](b *testing.B, l lattice.Lattice[D], g eqgen.System, sys *eqn.System[int, D],
	build func(eqgen.Spec) (eqn.RHS[int, D], eqn.RawRHS[int])) {
	e, err := New(l, sys, eqn.ConstBottom[int, D](l), "sw")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Solve(solver.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edited := eqgen.Mutate(g, uint64(i), 1+i%4)
		if _, err := e.Resolve(solver.Config{}); err != nil {
			b.Fatal(err)
		}
		for _, x := range edited {
			sp := g.Shape.SpecOf(x)
			rhs, raw := build(sp)
			e.Apply(RedefineRaw(x, sp.Deps, rhs, raw))
		}
		if _, err := e.Resolve(solver.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
