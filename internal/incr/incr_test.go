package incr

import (
	"errors"
	"fmt"
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
	op := solver.WarrowOp[int](l)
	var sigma map[int]lattice.Interval
	var err error
	switch e.SolverName() {
	case "rr":
		sigma, _, err = solver.RR(sys, l, op, e.Init(), cfg)
	case "sw":
		sigma, _, err = solver.SW(sys, l, op, e.Init(), cfg)
	default:
		t.Fatalf("no scratch dispatch for %s", e.SolverName())
	}
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

// leafEngine solves an N-unknown eqgen interval system with sw and returns
// the engine with a leaf redefinition of the last unknown (same
// dependences, fresh constant material) applied but not yet re-solved.
func leafEngine(tb testing.TB, n int) (*Engine[int, lattice.Interval], func(mat uint64)) {
	tb.Helper()
	g := eqgen.New(eqgen.Config{Seed: 13, Dom: eqgen.Interval, N: n})
	e, err := New(l, g.Interval, eqn.ConstBottom[int, lattice.Interval](l), "sw")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Solve(solver.Config{}); err != nil {
		tb.Fatal(err)
	}
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
		step := func() { solver.DecompositionOf(e.sys).Cone(e.pending()) }
		step()
		allocs = append(allocs, testing.AllocsPerRun(100, step))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("leaf cone step allocates %.1f at N=256 but %.1f at N=4096", allocs[0], allocs[1])
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
