package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// cpwWorkerMatrix is the worker grid every CPW property is checked on: the
// serial degenerate case, the even splits, and an oversubscribed pool.
var cpwWorkerMatrix = []int{1, 2, 4, 8}

// assertCPWCertified runs CPW across the worker matrix and holds each
// completed run to the certification gate — NOT to SW bit-identity, which
// chaotic scheduling deliberately forfeits (see the CPW doc comment).
func assertCPWCertified[X comparable, D any](t *testing.T, name string, sys *eqn.System[X, D], l lattice.Lattice[D], mkOp func() Operator[X, D], init func(X) D, cfg Config) {
	t.Helper()
	for _, workers := range cpwWorkerMatrix {
		ccfg := cfg
		ccfg.Workers = workers
		sigma, st, err := CPW(sys, l, mkOp(), init, ccfg)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		if rep := certify.System(l, sys, sigma, init); !rep.OK() {
			t.Fatalf("%s/workers=%d: %s", name, workers, rep)
		}
		if sys.Len() > 0 && st.Evals < sys.Len() {
			t.Errorf("%s/workers=%d: Evals = %d < %d unknowns", name, workers, st.Evals, sys.Len())
		}
	}
}

// ringSystem builds one giant SCC: n unknowns in a single dependence cycle,
// head counting up under a join with [0,0], one guard restricting below a
// bound so the descending (narrowing) phase has something to recover.
func ringSystem(n int) *eqn.System[int, iv] {
	l := lattice.Ints
	one := lattice.Singleton(1)
	bound := lattice.Singleton(int64(4 * n))
	sys := eqn.NewSystem[int, iv]()
	for i := 0; i < n; i++ {
		prev := (i + n - 1) % n
		switch i {
		case 0:
			sys.Define(i, []int{prev}, func(get func(int) iv) iv {
				return l.Join(lattice.Singleton(0), get(prev).Add(one))
			})
		case 1:
			sys.Define(i, []int{prev}, func(get func(int) iv) iv {
				return get(prev).RestrictLt(bound)
			})
		default:
			sys.Define(i, []int{prev}, func(get func(int) iv) iv {
				return get(prev).Add(one)
			})
		}
	}
	return sys
}

// TestCPWCertifiedOnTestSystems: the certification gate across the worker
// matrix on the solver suite's standard systems — the counting loop, the
// paper's Examples 1 and 2, an acyclic system, a giant single-SCC ring, and
// random monotone systems with non-topological definition orders.
func TestCPWCertifiedOnTestSystems(t *testing.T) {
	ints := lattice.Ints
	nat := lattice.NatInf
	cfg := Config{MaxEvals: 500_000}

	assertCPWCertified(t, "loop", loopSystem(), ints,
		func() Operator[string, iv] { return Op[string](Warrow[iv](ints)) }, ivInit, cfg)
	assertCPWCertified(t, "example1", example1System(), nat,
		func() Operator[string, lattice.Nat] { return natWarrow() }, zeroInit, cfg)
	assertCPWCertified(t, "example2", example2System(), nat,
		func() Operator[string, lattice.Nat] { return natWarrow() }, zeroInit, cfg)
	assertCPWCertified(t, "ring64", ringSystem(64), ints,
		func() Operator[int, iv] { return Op[int](Warrow[iv](ints)) },
		func(int) iv { return lattice.EmptyInterval }, Config{MaxEvals: 2_000_000})

	r := rand.New(rand.NewSource(977))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(12)
		sys := randMonotoneSystem(r, n)
		assertCPWCertified(t, fmt.Sprintf("rand%d", trial), sys, ints,
			func() Operator[int, iv] { return Op[int](Warrow[iv](ints)) },
			func(int) iv { return lattice.EmptyInterval }, Config{MaxEvals: 2_000_000})
	}
}

// wantStores fails the test unless the value stores built under core hold
// raw words exactly when words is set — in both of buildCore's modes, the
// sequential solvers' store and CPW's shared one, each in the mode asked
// for. A cross-store test whose word-store column silently ran on boxed
// values would pass vacuously.
func wantStores[X comparable, D any](t *testing.T, sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, core Core, words bool) {
	t.Helper()
	for _, shared := range []bool{false, true} {
		vc, _ := buildCore(sys, l, op, init, Config{Core: core}, shared)
		vc.release()
		var isShared bool
		switch c := vc.(type) {
		case *rawCore[X, D]:
			isShared = c.shared
		case *boxedCore[X, D]:
			isShared = c.ptrs != nil
		}
		if _, ok := vc.(*rawCore[X, D]); ok != words || isShared != shared {
			t.Fatalf("core=%v shared=%v: buildCore returned %T (shared=%v), want words=%v", core, shared, vc, isShared, words)
		}
	}
}

// TestOpaqueOperatorStoresBoxed: the opaque Op(Warrow) has no word form, so
// CoreAuto stores boxed values for it — which is why the cross-store tests
// pass the structured WarrowOp.
func TestOpaqueOperatorStoresBoxed(t *testing.T) {
	l := lattice.Ints
	wantStores(t, ringSystem(8), l, Op[int](Warrow[iv](l)), func(int) iv { return lattice.EmptyInterval }, CoreAuto, false)
}

// TestCPWCertifiedAcrossCores: the same ring on both store selections —
// CoreAuto routes the structured WarrowOp to the shared word store,
// CoreDense to the shared boxed store — every run certified at every
// worker count.
func TestCPWCertifiedAcrossCores(t *testing.T) {
	l := lattice.Ints
	sys := ringSystem(48)
	init := func(int) iv { return lattice.EmptyInterval }
	for _, core := range []Core{CoreDense, CoreAuto} {
		wantStores(t, sys, l, WarrowOp[int, iv](l), init, core, core == CoreAuto)
		assertCPWCertified(t, fmt.Sprintf("ring/core=%v", core), sys, l,
			func() Operator[int, iv] { return WarrowOp[int, iv](l) },
			init, Config{MaxEvals: 2_000_000, Core: core})
	}
}

// TestCPWEmptySystem: zero unknowns is not a deadlock.
func TestCPWEmptySystem(t *testing.T) {
	sys := eqn.NewSystem[string, iv]()
	sigma, st, err := CPW(sys, lattice.Ints, Op[string](Warrow[iv](lattice.Ints)), ivInit, Config{Workers: 4})
	if err != nil || len(sigma) != 0 {
		t.Fatalf("σ = %v, err = %v", sigma, err)
	}
	if st.Strata != 0 {
		t.Errorf("Strata = %d, want 0", st.Strata)
	}
}

// TestCPWBudgetAbortIsResumable: workers hitting the shared budget surface
// ErrEvalBudget with a warm checkpoint attached and an eval count equal to
// the budget, because every reserved evaluation is performed; resuming the
// checkpoint (possibly through more budget exhaustions) eventually
// completes certified.
func TestCPWBudgetAbortIsResumable(t *testing.T) {
	l := lattice.Ints
	sys := ringSystem(40)
	init := func(int) iv { return lattice.EmptyInterval }
	for _, workers := range cpwWorkerMatrix {
		_, st, err := CPW(sys, l, Op[int](Warrow[iv](l)), init, Config{MaxEvals: 50, Workers: workers})
		if !errors.Is(err, ErrEvalBudget) {
			t.Fatalf("workers=%d: err = %v, want ErrEvalBudget", workers, err)
		}
		if st.Evals != 50 {
			t.Errorf("workers=%d: Evals = %d, want 50", workers, st.Evals)
		}
		cp, ok := CheckpointOf[int, iv](err)
		if !ok {
			t.Fatalf("workers=%d: budget abort carried no checkpoint", workers)
		}
		// Resume in bounded slices until completion.
		sigma := map[int]iv(nil)
		for slice := 0; ; slice++ {
			if slice > 10_000 {
				t.Fatalf("workers=%d: no completion after %d resume slices", workers, slice)
			}
			var rerr error
			sigma, _, rerr = CPW(sys, l, Op[int](Warrow[iv](l)), init,
				Config{MaxEvals: 997, Workers: workers, Resume: cp})
			if rerr == nil {
				break
			}
			if !errors.Is(rerr, ErrEvalBudget) {
				t.Fatalf("workers=%d: resume slice failed: %v", workers, rerr)
			}
			if cp, ok = CheckpointOf[int, iv](rerr); !ok {
				t.Fatalf("workers=%d: resumed abort carried no checkpoint", workers)
			}
		}
		if rep := certify.System(l, sys, sigma, init); !rep.OK() {
			t.Fatalf("workers=%d: resumed completion not certified: %s", workers, rep)
		}
	}
}

// TestCPWCheckpointCrossesCores: a checkpoint captured on one store
// resumes on the other — boxed→unboxed and unboxed→boxed — and completes
// certified, like every other solver's checkpoints.
func TestCPWCheckpointCrossesCores(t *testing.T) {
	l := lattice.Ints
	sys := ringSystem(40)
	init := func(int) iv { return lattice.EmptyInterval }
	for _, dir := range []struct {
		name     string
		from, to Core
	}{
		{"boxed->unboxed", CoreDense, CoreAuto},
		{"unboxed->boxed", CoreAuto, CoreDense},
	} {
		op := WarrowOp[int, iv](l)
		wantStores(t, sys, l, op, init, dir.from, dir.from == CoreAuto)
		_, _, err := CPW(sys, l, op, init,
			Config{MaxEvals: 60, Workers: 4, Core: dir.from})
		if !errors.Is(err, ErrEvalBudget) {
			t.Fatalf("%s: err = %v, want ErrEvalBudget", dir.name, err)
		}
		cp, ok := CheckpointOf[int, iv](err)
		if !ok {
			t.Fatalf("%s: no checkpoint", dir.name)
		}
		sigma, _, err := CPW(sys, l, op, init,
			Config{MaxEvals: 2_000_000, Workers: 4, Core: dir.to, Resume: cp})
		if err != nil {
			t.Fatalf("%s: resume failed: %v", dir.name, err)
		}
		if rep := certify.System(l, sys, sigma, init); !rep.OK() {
			t.Fatalf("%s: %s", dir.name, rep)
		}
	}
}

// TestCPWRejectsForeignCheckpoint: a checkpoint captured by another solver
// is refused with ErrBadCheckpoint, never silently reinterpreted.
func TestCPWRejectsForeignCheckpoint(t *testing.T) {
	l := lattice.Ints
	sys := ringSystem(24)
	init := func(int) iv { return lattice.EmptyInterval }
	_, _, err := SW(sys, l, Op[int](Warrow[iv](l)), init, Config{MaxEvals: 30})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("sw: err = %v, want ErrEvalBudget", err)
	}
	cp, ok := CheckpointOf[int, iv](err)
	if !ok {
		t.Fatal("sw abort carried no checkpoint")
	}
	_, _, err = CPW(sys, l, Op[int](Warrow[iv](l)), init, Config{Workers: 2, Resume: cp})
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("cpw resumed a %q checkpoint: err = %v, want ErrBadCheckpoint", cp.Solver, err)
	}
}

// TestCPWNonMonotoneBudgetEnvelope: on the divergent non-monotone
// oscillator farm CPW neither hangs nor lies — it exhausts the budget and
// aborts with a resumable checkpoint at every worker count, the same
// posture SW and PSW take.
func TestCPWNonMonotoneBudgetEnvelope(t *testing.T) {
	l := lattice.Ints
	sys := oscillatorFarm(6)
	for _, workers := range cpwWorkerMatrix {
		_, st, err := CPW(sys, l, Op[string](Warrow[iv](l)), ivInit,
			Config{MaxEvals: 5000, Workers: workers})
		if !errors.Is(err, ErrEvalBudget) {
			t.Fatalf("workers=%d: err = %v, want ErrEvalBudget", workers, err)
		}
		if st.Evals != 5000 {
			t.Errorf("workers=%d: Evals = %d, want 5000", workers, st.Evals)
		}
		if _, ok := CheckpointOf[string, iv](err); !ok {
			t.Fatalf("workers=%d: no checkpoint on non-monotone abort", workers)
		}
	}
}

// TestCPWMaxQueueIsMaxOverShards is the merge-semantics regression of the
// sharded worklist: on one giant SCC of n unknowns with S shards, home-shard
// pushing plus the claim protocol bound every shard's high-water mark by
// ⌈n/S⌉ — so the reported MaxQueue must respect that bound. An
// implementation that SUMMED shard marks (the bug this test pre-dates and
// pins) would report ≈n at seed time, when every shard is full at once.
func TestCPWMaxQueueIsMaxOverShards(t *testing.T) {
	l := lattice.Ints
	n, workers := 64, 4
	sys := ringSystem(n)
	init := func(int) iv { return lattice.EmptyInterval }
	sigma, st, err := CPW(sys, l, Op[int](Warrow[iv](l)), init,
		Config{MaxEvals: 2_000_000, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if rep := certify.System(l, sys, sigma, init); !rep.OK() {
		t.Fatal(rep)
	}
	bound := (n + workers - 1) / workers
	if st.MaxQueue <= 0 || st.MaxQueue > bound {
		t.Errorf("MaxQueue = %d, want in (0, %d]: shard marks must merge by max, not sum", st.MaxQueue, bound)
	}
}

// TestShardQueueMaxHigh: the merge helper itself — unbalanced pushes across
// shards report the largest stack, never the total.
func TestShardQueueMaxHigh(t *testing.T) {
	q := newShardQueue(10, 21, 3) // window [10,21], 3 shards
	// Home shards: (i-10)%3 — fill shard 0 with 4 elements, shard 1 with 2,
	// shard 2 with 1.
	for _, i := range []int{10, 13, 16, 19, 11, 14, 12} {
		q.push(i)
	}
	if got := q.maxShardHigh(); got != 4 {
		t.Fatalf("maxShardHigh = %d, want 4 (sum would be 7)", got)
	}
	// Draining does not lower the high-water mark.
	seen := map[int]bool{}
	for {
		i, ok := q.pop(0)
		if !ok {
			break
		}
		if seen[i] {
			t.Fatalf("index %d popped twice", i)
		}
		seen[i] = true
	}
	if len(seen) != 7 {
		t.Fatalf("drained %d elements, want 7", len(seen))
	}
	if got := q.maxShardHigh(); got != 4 {
		t.Fatalf("maxShardHigh after drain = %d, want 4", got)
	}
}

// TestShardQueueStealing: a worker whose own shard is empty steals from the
// others instead of reporting emptiness.
func TestShardQueueStealing(t *testing.T) {
	q := newShardQueue(0, 7, 4)
	q.push(1) // home shard 1
	if i, ok := q.pop(3); !ok || i != 1 {
		t.Fatalf("pop(3) = %d,%v, want stolen 1,true", i, ok)
	}
	if _, ok := q.pop(0); ok {
		t.Fatal("pop on empty queue reported an element")
	}
}

// TestCPWStatsShape: topology fields mirror PSW's, the per-worker eval
// histogram accounts for every configured worker, and the contention
// counter is wired (non-negative; usually positive is schedule-dependent,
// so only the histogram total is pinned).
func TestCPWStatsShape(t *testing.T) {
	l := lattice.Ints
	sys := ringSystem(32)
	init := func(int) iv { return lattice.EmptyInterval }
	_, st, err := CPW(sys, l, Op[int](Warrow[iv](l)), init, Config{MaxEvals: 2_000_000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.SCCs != 1 || st.Strata != 1 {
		t.Errorf("SCCs,Strata = %d,%d, want 1,1 (one giant SCC)", st.SCCs, st.Strata)
	}
	if st.Unknowns != 32 {
		t.Errorf("Unknowns = %d, want 32", st.Unknowns)
	}
	total := 0
	for _, c := range st.WorkerEvals {
		total += c
	}
	if total != 4 {
		t.Errorf("WorkerEvals accounts for %d workers, want 4 (hist %v)", total, st.WorkerEvals)
	}
	if st.Contention < 0 {
		t.Errorf("Contention = %d, want ≥ 0", st.Contention)
	}
	if st.WallNs <= 0 {
		t.Errorf("WallNs = %d, want > 0", st.WallNs)
	}
}

// TestCPWDegradingSingleWorker: the stateful Degrading operator remains
// usable at Workers == 1 (the documented requirement), where CPW is a
// chaotic-order but single-threaded iteration.
func TestCPWDegradingSingleWorker(t *testing.T) {
	l := lattice.Ints
	sys := ringSystem(16)
	init := func(int) iv { return lattice.EmptyInterval }
	sigma, _, err := CPW(sys, l, NewDegrading[int, iv](l, 2), init, Config{MaxEvals: 2_000_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep := certify.System(l, sys, sigma, init); !rep.OK() {
		t.Fatal(rep)
	}
}

// strataRecipe is the many-strata system BenchmarkCPW and BenchmarkPSW
// share: an eqgen interval system of 2,048 unknowns in mostly one-unknown
// strata.
var strataRecipe = eqgen.Config{Seed: 7, Dom: eqgen.Interval, N: 2048, FanIn: 3}

// BenchmarkCPW times warm CPW solves with two workers and the structured ⊟
// on the shared word store: strataRecipe, where the per-stratum costs
// (starting a worker for each stratum of more than one unknown, seeding
// the shard queue) dominate, and a recipe with 90% of its unknowns in one
// giant SCC, where the workers contend inside one stratum. The shape is
// memoized by a first solve, so each operation pays only the iteration and
// the per-run store. Run with -benchmem: allocs/op is the per-run cost.
func BenchmarkCPW(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  eqgen.Config
	}{
		{"strata/N=2048", strataRecipe},
		{"giant=0.9/N=2048", eqgen.Config{Seed: 7, Dom: eqgen.Interval, N: 2048, FanIn: 2, GiantSCC: 0.9, WidenDensity: 0.3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sys := eqgen.New(bc.cfg).Interval
			l, op, init := lattice.Ints, WarrowOp[int, lattice.Interval](lattice.Ints), eqn.ConstBottom[int, lattice.Interval](lattice.Ints)
			cfg := Config{Workers: 2}
			if _, _, err := CPW(sys, l, op, init, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			evals := 0
			for i := 0; i < b.N; i++ {
				_, st, err := CPW(sys, l, op, init, cfg)
				if err != nil {
					b.Fatal(err)
				}
				evals += st.Evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/solve")
		})
	}
}
