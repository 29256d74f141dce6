package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

type iv = lattice.Interval

func ivInit(string) iv { return lattice.EmptyInterval }

// loopSystem is the constraint system of the canonical counting loop
//
//	x = 0; while (x < 100) x = x+1;
//
// over unknowns for the loop head (h), body entry (b) and exit (e).
func loopSystem() *eqn.System[string, iv] {
	l := lattice.Ints
	s := eqn.NewSystem[string, iv]()
	s.Define("h", []string{"b"}, func(get func(string) iv) iv {
		return l.Join(lattice.Singleton(0), get("b").Add(lattice.Singleton(1)))
	})
	s.Define("b", []string{"h"}, func(get func(string) iv) iv {
		return get("h").RestrictLt(lattice.Singleton(100))
	})
	s.Define("e", []string{"h"}, func(get func(string) iv) iv {
		return get("h").RestrictGe(lattice.Singleton(100))
	})
	return s
}

func wantLoopInvariants(t *testing.T, sigma map[string]iv, solver string) {
	t.Helper()
	l := lattice.Ints
	if !l.Eq(sigma["h"], lattice.Range(0, 100)) {
		t.Errorf("%s: σ[h] = %s, want [0,100]", solver, sigma["h"])
	}
	if !l.Eq(sigma["b"], lattice.Range(0, 99)) {
		t.Errorf("%s: σ[b] = %s, want [0,99]", solver, sigma["b"])
	}
	if !l.Eq(sigma["e"], lattice.Singleton(100)) {
		t.Errorf("%s: σ[e] = %s, want [100,100]", solver, sigma["e"])
	}
}

// TestWarrowRecoversLoopBounds: on the counting loop every ⊟-solver
// computes the exact invariants in one go — the two-phase result with no
// separate narrowing phase.
func TestWarrowRecoversLoopBounds(t *testing.T) {
	l := lattice.Ints
	sys := loopSystem()
	op := Op[string](Warrow[iv](l))
	cfg := Config{MaxEvals: 100000}

	sigma, _, err := SRR(sys, l, op, ivInit, cfg)
	if err != nil {
		t.Fatalf("SRR: %v", err)
	}
	wantLoopInvariants(t, sigma, "SRR")

	sigma, _, err = SW(sys, l, op, ivInit, cfg)
	if err != nil {
		t.Fatalf("SW: %v", err)
	}
	wantLoopInvariants(t, sigma, "SW")

	res, err := SLR(sys.AsPure(), l, op, ivInit, "e", cfg)
	if err != nil {
		t.Fatalf("SLR: %v", err)
	}
	wantLoopInvariants(t, res.Values, "SLR")
}

// TestTwoPhaseMatchesOnMonotone: on the monotone loop system the classical
// two-phase iteration reaches the same result as ⊟.
func TestTwoPhaseMatchesOnMonotone(t *testing.T) {
	l := lattice.Ints
	sys := loopSystem()
	sigma, _, err := TwoPhase(sys, l, ivInit, Config{MaxEvals: 100000})
	if err != nil {
		t.Fatalf("TwoPhase: %v", err)
	}
	wantLoopInvariants(t, sigma, "TwoPhase")

	res, err := TwoPhaseLocal(sys.AsPure(), l, ivInit, "e", Config{MaxEvals: 100000})
	if err != nil {
		t.Fatalf("TwoPhaseLocal: %v", err)
	}
	wantLoopInvariants(t, res.Values, "TwoPhaseLocal")
}

// TestWideningOnlyLoop: with plain ∇ the loop head stays at [0,+inf],
// quantifying what narrowing recovers.
func TestWideningOnlyLoop(t *testing.T) {
	l := lattice.Ints
	sys := loopSystem()
	sigma, _, err := SW(sys, l, Op[string](Widen[iv](l)), ivInit, Config{MaxEvals: 100000})
	if err != nil {
		t.Fatalf("SW: %v", err)
	}
	if !l.Eq(sigma["h"], lattice.NewInterval(lattice.Fin(0), lattice.PosInf)) {
		t.Errorf("σ[h] = %s, want [0,+inf]", sigma["h"])
	}
}

// TestGenericSolversWithReplace: with ⊞ = replace, solvers compute ordinary
// solutions of acyclic systems exactly.
func TestGenericSolversWithReplace(t *testing.T) {
	l := lattice.Ints
	s := eqn.NewSystem[string, iv]()
	s.Define("a", nil, func(func(string) iv) iv { return lattice.Range(1, 2) })
	s.Define("b", []string{"a"}, func(get func(string) iv) iv {
		return get("a").Add(lattice.Singleton(10))
	})
	s.Define("c", []string{"a", "b"}, func(get func(string) iv) iv {
		return l.Join(get("a"), get("b"))
	})
	op := Op[string](Replace[iv]())
	for name, run := range map[string]func() (map[string]iv, Stats, error){
		"RR":  func() (map[string]iv, Stats, error) { return RR(s, l, op, ivInit, Config{}) },
		"W":   func() (map[string]iv, Stats, error) { return W(s, l, op, ivInit, Config{}) },
		"SRR": func() (map[string]iv, Stats, error) { return SRR(s, l, op, ivInit, Config{}) },
		"SW":  func() (map[string]iv, Stats, error) { return SW(s, l, op, ivInit, Config{}) },
	} {
		sigma, _, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !l.Eq(sigma["b"], lattice.Range(11, 12)) || !l.Eq(sigma["c"], lattice.Range(1, 12)) {
			t.Errorf("%s: b=%s c=%s", name, sigma["b"], sigma["c"])
		}
	}
}

// randMonotoneSystem generates a random finite monotone equation system
// over intervals: each right-hand side joins a constant with monotone
// transformations (shift, join, meet-with-constant) of other unknowns.
func randMonotoneSystem(r *rand.Rand, n int) *eqn.System[int, iv] {
	l := lattice.Ints
	s := eqn.NewSystem[int, iv]()
	for i := 0; i < n; i++ {
		var deps []int
		type term struct {
			dep   int
			shift int64
			cap   iv // meet with this constant interval (monotone)
		}
		terms := make([]term, 0, 3)
		for k := 0; k < 1+r.Intn(3); k++ {
			d := r.Intn(n)
			deps = append(deps, d)
			cap := lattice.FullInterval
			if r.Intn(2) == 0 {
				cap = lattice.Range(int64(-r.Intn(50)), int64(r.Intn(50)))
			}
			terms = append(terms, term{dep: d, shift: int64(r.Intn(5) - 2), cap: cap})
		}
		base := lattice.Range(int64(-r.Intn(5)), int64(r.Intn(5)))
		ts := terms
		s.Define(i, deps, func(get func(int) iv) iv {
			v := base
			for _, tm := range ts {
				v = l.Join(v, l.Meet(get(tm.dep).Add(lattice.Singleton(tm.shift)), tm.cap))
			}
			return v
		})
	}
	return s
}

// TestWarrowSolversReturnPostSolutions: property test for Lemma 1 +
// Theorems 1–3 — on random finite monotone systems, SRR, SW and SLR with ⊟
// terminate and return post-solutions.
func TestWarrowSolversReturnPostSolutions(t *testing.T) {
	l := lattice.Ints
	r := rand.New(rand.NewSource(42))
	init := func(int) iv { return lattice.EmptyInterval }
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(8)
		sys := randMonotoneSystem(r, n)
		op := Op[int](Warrow[iv](l))
		cfg := Config{MaxEvals: 2_000_000}

		sigma, _, err := SRR(sys, l, op, init, cfg)
		if err != nil {
			t.Fatalf("trial %d: SRR diverged on monotone system: %v", trial, err)
		}
		if x, ok := eqn.IsPostSolution(l, sys, sigma, init); !ok {
			t.Fatalf("trial %d: SRR result not a post-solution at %v", trial, x)
		}
		if x, ok := eqn.IsCombineSolution(l, Warrow[iv](l), sys, sigma, init); !ok {
			t.Fatalf("trial %d: SRR result not a ⊟-solution at %v", trial, x)
		}

		sigma, _, err = SW(sys, l, op, init, cfg)
		if err != nil {
			t.Fatalf("trial %d: SW diverged on monotone system: %v", trial, err)
		}
		if x, ok := eqn.IsPostSolution(l, sys, sigma, init); !ok {
			t.Fatalf("trial %d: SW result not a post-solution at %v", trial, x)
		}

		res, err := SLR(sys.AsPure(), l, op, init, 0, cfg)
		if err != nil {
			t.Fatalf("trial %d: SLR diverged on monotone system: %v", trial, err)
		}
		if x, ok := eqn.IsPartialPostSolution(l, sys.AsPure(), res.Values); !ok {
			t.Fatalf("trial %d: SLR result not a partial post-solution at %v", trial, x)
		}
	}
}

// TestWarrowPrecisionVsTwoPhase: on random monotone systems both ⊟ and the
// two-phase baseline return post-solutions; the solutions can be pointwise
// incomparable, but in aggregate intertwined ⊟ iteration should improve far
// more points than it loses — the trend behind the paper's Fig. 7.
func TestWarrowPrecisionVsTwoPhase(t *testing.T) {
	l := lattice.Ints
	r := rand.New(rand.NewSource(7))
	init := func(int) iv { return lattice.EmptyInterval }
	improved, worse := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(8)
		sys := randMonotoneSystem(r, n)
		cfg := Config{MaxEvals: 2_000_000}
		warrowed, _, err := SW(sys, l, Op[int](Warrow[iv](l)), init, cfg)
		if err != nil {
			t.Fatalf("SW ⊟ diverged: %v", err)
		}
		base, _, err := TwoPhase(sys, l, init, cfg)
		if err != nil {
			t.Fatalf("TwoPhase diverged: %v", err)
		}
		if x, ok := eqn.IsPostSolution(l, sys, warrowed, init); !ok {
			t.Fatalf("⊟ result not a post-solution at %v", x)
		}
		if x, ok := eqn.IsPostSolution(l, sys, base, init); !ok {
			t.Fatalf("two-phase result not a post-solution at %v", x)
		}
		for _, x := range sys.Order() {
			switch {
			case l.Eq(warrowed[x], base[x]):
			case l.Leq(warrowed[x], base[x]):
				improved++
			default:
				worse++
			}
		}
	}
	t.Logf("⊟ strictly better at %d points, worse/incomparable at %d points", improved, worse)
	if improved <= worse {
		t.Errorf("⊟ should improve more points than it loses: improved=%d worse=%d", improved, worse)
	}
}

// nonMonotoneOscillator is a single-unknown non-monotone system on which
// plain ⊟ oscillates forever: f(⊥)=[0,0]; f([0,+inf])=[0,5];
// f([0,h])=[0,h+1] otherwise.
func nonMonotoneOscillator() *eqn.System[string, iv] {
	s := eqn.NewSystem[string, iv]()
	s.Define("x", []string{"x"}, func(get func(string) iv) iv {
		v := get("x")
		if v.IsEmpty() {
			return lattice.Singleton(0)
		}
		if v.Hi.IsPosInf() {
			return lattice.Range(0, 5)
		}
		return lattice.NewInterval(lattice.Fin(0), v.Hi.Add(lattice.Fin(1)))
	})
	return s
}

// TestDegradingEnforcesTermination: the ⊟ₖ operator terminates the
// oscillating non-monotone system that plain ⊟ cannot, and still returns a
// post-solution.
func TestDegradingEnforcesTermination(t *testing.T) {
	l := lattice.Ints
	sys := nonMonotoneOscillator()
	init := func(string) iv { return lattice.EmptyInterval }

	_, _, err := SRR(sys, l, Op[string](Warrow[iv](l)), init, Config{MaxEvals: 10000})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("plain ⊟ should oscillate forever, got err=%v", err)
	}

	for k := 0; k <= 3; k++ {
		deg := NewDegrading[string, iv](l, k)
		sigma, _, err := SRR(sys, l, deg, init, Config{MaxEvals: 100000})
		if err != nil {
			t.Fatalf("⊟_%d diverged: %v", k, err)
		}
		if x, ok := eqn.IsPostSolution(l, sys, sigma, init); !ok {
			t.Fatalf("⊟_%d result not a post-solution at %v: %s", k, x, sigma["x"])
		}
		if k >= 1 && deg.Switches("x") == 0 {
			t.Errorf("⊟_%d observed no phase switches on an oscillator", k)
		}
	}
}

// TestDegradingZeroIsWideningOnly: ⊟₀ never narrows, so on the counting
// loop it matches the ∇-only result.
func TestDegradingZeroIsWideningOnly(t *testing.T) {
	l := lattice.Ints
	sys := loopSystem()
	deg := NewDegrading[string, iv](l, 0)
	sigma, _, err := SW(sys, l, deg, ivInit, Config{MaxEvals: 100000})
	if err != nil {
		t.Fatalf("SW: %v", err)
	}
	if !l.Eq(sigma["h"], lattice.NewInterval(lattice.Fin(0), lattice.PosInf)) {
		t.Errorf("σ[h] = %s, want [0,+inf]", sigma["h"])
	}
}

// TestRLDOnMonotoneJoin: RLD with plain join works on a monotone system
// with finite chains (its original setting) and agrees with SLR.
func TestRLDOnMonotoneJoin(t *testing.T) {
	l := lattice.NatInf
	sys := eqn.NewSystem[string, lattice.Nat]()
	sys.Define("a", []string{"b"}, func(get func(string) lattice.Nat) lattice.Nat {
		return l.Join(get("b"), lattice.NatOf(3))
	})
	sys.Define("b", []string{"c"}, func(get func(string) lattice.Nat) lattice.Nat {
		return get("c")
	})
	sys.Define("c", nil, func(func(string) lattice.Nat) lattice.Nat {
		return lattice.NatOf(7)
	})
	init := func(string) lattice.Nat { return lattice.NatOf(0) }
	op := Op[string](Join[lattice.Nat](l))

	rld, err := RLD(sys.AsPure(), l, op, init, "a", Config{MaxEvals: 10000})
	if err != nil {
		t.Fatalf("RLD: %v", err)
	}
	slr, err := SLR(sys.AsPure(), l, op, init, "a", Config{MaxEvals: 10000})
	if err != nil {
		t.Fatalf("SLR: %v", err)
	}
	for _, x := range []string{"a", "b", "c"} {
		if !l.Eq(rld.Values[x], slr.Values[x]) {
			t.Errorf("σ[%s]: RLD=%s SLR=%s", x, rld.Values[x], slr.Values[x])
		}
	}
	if rld.Values["a"] != lattice.NatOf(7) {
		t.Errorf("σ[a] = %s, want 7", rld.Values["a"])
	}
}

// TestSLRLocalization: SLR only explores unknowns reachable from the query.
func TestSLRLocalization(t *testing.T) {
	l := lattice.NatInf
	sys := eqn.NewSystem[int, lattice.Nat]()
	for i := 0; i < 100; i++ {
		i := i
		deps := []int{}
		if i > 0 && i < 50 {
			deps = []int{i - 1}
		}
		sys.Define(i, deps, func(get func(int) lattice.Nat) lattice.Nat {
			if i == 0 || i >= 50 {
				return lattice.NatOf(uint64(i))
			}
			return get(i - 1)
		})
	}
	init := func(int) lattice.Nat { return lattice.NatOf(0) }
	res, err := SLR(sys.AsPure(), l, Op[int](Join[lattice.Nat](l)), init, 10, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unknowns != 11 { // 10, 9, ..., 0
		t.Errorf("explored %d unknowns, want 11 (dom: %v)", res.Stats.Unknowns, res.Values)
	}
}

// TestSLRNoEquation: unknowns without an equation keep their initial value.
func TestSLRNoEquation(t *testing.T) {
	l := lattice.Ints
	sys := func(x string) eqn.RHS[string, iv] {
		if x == "a" {
			return func(get func(string) iv) iv {
				return get("free").Add(lattice.Singleton(1))
			}
		}
		return nil
	}
	init := func(x string) iv {
		if x == "free" {
			return lattice.Range(10, 20)
		}
		return lattice.EmptyInterval
	}
	res, err := SLR(sys, l, Op[string](Warrow[iv](l)), init, "a", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Eq(res.Values["free"], lattice.Range(10, 20)) {
		t.Errorf("σ[free] = %s, want [10,20]", res.Values["free"])
	}
	if !l.Eq(res.Values["a"], lattice.Range(11, 21)) {
		t.Errorf("σ[a] = %s, want [11,21]", res.Values["a"])
	}
}

// TestBudgetPartialResult: exceeding the budget returns the partial state
// and ErrEvalBudget rather than panicking or looping.
func TestBudgetPartialResult(t *testing.T) {
	sys := example1System()
	sigma, st, err := RR(sys, lattice.NatInf, natWarrow(), zeroInit, Config{MaxEvals: 7})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("err = %v", err)
	}
	if st.Evals != 7 {
		t.Errorf("Evals = %d, want exactly 7", st.Evals)
	}
	if len(sigma) != 3 {
		t.Errorf("partial assignment missing unknowns: %v", sigma)
	}
}

// TestSWEvaluationCountTheorem2: for ⊞ = ⊔ on a bounded-height lattice, SW
// started from bottom performs at most h·Σ(2+|dep_i|) evaluations.
func TestSWEvaluationCountTheorem2(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(10)
		// Random system over NatInf capped at height h via meet with a cap.
		const h = 12
		l := lattice.NatInf
		sys := eqn.NewSystem[int, lattice.Nat]()
		bound := uint64(h - 1)
		N := 0
		for i := 0; i < n; i++ {
			d := r.Intn(n)
			deps := []int{d}
			N += 2 + len(deps)
			sys.Define(i, deps, func(get func(int) lattice.Nat) lattice.Nat {
				v := get(d)
				if v.IsInf() || v.Val() >= bound {
					return lattice.NatOf(bound)
				}
				return lattice.NatOf(v.Val() + 1)
			})
		}
		init := func(int) lattice.Nat { return lattice.NatOf(0) }
		_, st, err := SW(sys, l, Op[int](Join[lattice.Nat](l)), init, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Evals > h*N {
			t.Errorf("trial %d: SW used %d evals, theorem bound %d", trial, st.Evals, h*N)
		}
	}
}

// TestPQOrdering: the priority queue pops in key order and dedups pushes.
func TestPQOrdering(t *testing.T) {
	var q idHeap
	q.push(2, 3)
	q.push(0, 1)
	q.push(1, 2)
	q.push(0, 1) // dup: no-op
	if q.len() != 3 {
		t.Fatalf("len = %d, want 3", q.len())
	}
	if q.minKey() != 1 {
		t.Fatalf("minKey = %d", q.minKey())
	}
	var got []int32
	for !q.empty() {
		got = append(got, q.popMin())
	}
	want := []int32{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	q.push(0, 5) // popped numbers may be queued again, under a new key
	if q.len() != 1 || q.minKey() != 5 || q.popMin() != 0 {
		t.Fatal("re-pushing a popped number failed")
	}
}

// TestPQRandom: heap property holds under random workloads.
func TestPQRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var q idHeap
	keys := map[int32]int{}
	for i := 0; i < 1000; i++ {
		x := int32(r.Intn(200))
		k := r.Intn(1000)
		if _, in := keys[x]; !in {
			keys[x] = k
			q.push(x, int64(k))
		}
		if r.Intn(3) == 0 && !q.empty() {
			x := q.popMin()
			k := keys[x]
			delete(keys, x)
			for _, kk := range keys {
				if kk < k {
					t.Fatalf("popped key %d but %d remains", k, kk)
				}
			}
		}
		if q.len() != len(keys) {
			t.Fatalf("len = %d, want %d", q.len(), len(keys))
		}
	}
	prev := -1
	for !q.empty() {
		x := q.popMin()
		if keys[x] < prev {
			t.Fatalf("out of order: %d after %d", keys[x], prev)
		}
		prev = keys[x]
	}
}

// TestDuplicateDefinePanics documents the single-assignment rule of
// eqn.System.
func TestDuplicateDefinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := eqn.NewSystem[string, iv]()
	f := func(func(string) iv) iv { return lattice.EmptyInterval }
	s.Define("x", nil, f)
	s.Define("x", nil, f)
}

// TestInflIncludesSelf documents the self-influence precaution for
// non-idempotent operators.
func TestInflIncludesSelf(t *testing.T) {
	s := eqn.NewSystem[string, iv]()
	f := func(func(string) iv) iv { return lattice.EmptyInterval }
	s.Define("x", []string{"y"}, f)
	s.Define("y", nil, f)
	infl := s.Infl()
	found := map[string]bool{}
	for _, z := range infl["y"] {
		found[z] = true
	}
	if !found["y"] || !found["x"] {
		t.Errorf("infl[y] = %v, want to contain x and y", infl["y"])
	}
}

// TestSLRPlusSelfSideEffectPanics documents the paper's assumption that a
// right-hand side never side-effects its own unknown.
func TestSLRPlusSelfSideEffectPanics(t *testing.T) {
	l := lattice.Ints
	sys := func(x string) eqn.SideRHS[string, iv] {
		if x != "a" {
			return nil
		}
		return func(_ func(string) iv, side func(string, iv)) iv {
			side("a", lattice.Singleton(1))
			return lattice.EmptyInterval
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = SLRPlus[string, iv](sys, l, Op[string](Warrow[iv](l)),
		func(string) iv { return lattice.EmptyInterval }, "a", Config{})
}

// TestSLRPlusMonotoneChain: a chain of contexts each contributing to a
// global must terminate with the join of all contributions.
func TestSLRPlusMonotoneChain(t *testing.T) {
	l := lattice.Ints
	const n = 50
	sys := func(x string) eqn.SideRHS[string, iv] {
		if x == "g" {
			return nil
		}
		var i int
		if _, err := fmt.Sscanf(x, "c%d", &i); err != nil {
			return nil
		}
		return func(get func(string) iv, side func(string, iv)) iv {
			side("g", lattice.Singleton(int64(i)))
			if i+1 < n {
				return get(fmt.Sprintf("c%d", i+1))
			}
			return lattice.Singleton(0)
		}
	}
	res, err := SLRPlus[string, iv](sys, l, Op[string](Warrow[iv](l)),
		func(string) iv { return lattice.EmptyInterval }, "c0", Config{MaxEvals: 100000})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Values["g"]
	if !l.Eq(g, lattice.Range(0, n-1)) {
		t.Errorf("σ[g] = %s, want [0,%d]", g, n-1)
	}
}
