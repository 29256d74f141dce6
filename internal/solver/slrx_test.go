package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// TestWideningPoints: widening points are the headers of the recursive SCC
// refinement — one per nontrivial component at every nesting level, the
// first-defined member of each. On the counting loop that is the loop head
// h; the exit e sits in its own trivial SCC and stays plain. On the triply
// nested loop system the refinement peels one loop per level and marks
// exactly the three loop heads oh/mh/ih.
func TestWideningPoints(t *testing.T) {
	sys := loopSystem() // order: h=0, b=1, e=2; SCC {h,b}, header h
	w := wpointsOf(sys)
	if !w.wp.has(0) {
		t.Errorf("loop head h is the component header and must be a widening point")
	}
	if w.wp.has(1) || w.wp.has(2) {
		t.Errorf("body/exit must not be widening points (wp = {h:%v b:%v e:%v})",
			w.wp.has(0), w.wp.has(1), w.wp.has(2))
	}
	if len(w.comps) != 1 || w.seq[w.comps[0].start] != 0 {
		t.Errorf("expected one component headed by h, got %v (seq %v)", w.comps, w.seq)
	}

	nested := nestedLoopSystem() // oh ob mh mb me ih ib ie (one SCC)
	nw := wpointsOf(nested)
	// Refinement: {all} headed by oh; remove oh → {ob} trivial and
	// {mh,mb,ih,ib,ie} headed by mh; remove mh → {mb} and {ie} trivial,
	// {ih,ib} headed by ih. Exactly the loop heads are marked.
	want := map[int]bool{0: true, 2: true, 5: true}
	for i, x := range nested.Order() {
		if nw.wp.has(i) != want[i] {
			t.Errorf("wpoint(%s) = %v, want %v", x, nw.wp.has(i), want[i])
		}
	}
	if len(nw.comps) != 3 {
		t.Errorf("expected three nested components (outer/middle/inner), got %v", nw.comps)
	}
}

// TestSLRFamilyLoopInvariants: all three solvers recover the exact counting
// loop invariants, like the ⊟-everywhere solvers.
func TestSLRFamilyLoopInvariants(t *testing.T) {
	l := lattice.Ints
	op := WarrowOp[string](l)
	cfg := Config{MaxEvals: 100000}
	for name, run := range slrFamily[string, iv]() {
		sigma, st, err := run(loopSystem(), l, op, ivInit, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantLoopInvariants(t, sigma, name)
		if name == "slr2" && st.Restarts != 0 {
			t.Errorf("slr2 must never restart, got %d", st.Restarts)
		}
	}
}

// slrFamily enumerates the three solvers under their checkpoint names.
func slrFamily[X comparable, D any]() map[string]func(*eqn.System[X, D], lattice.Lattice[D], Operator[X, D], func(X) D, Config) (map[X]D, Stats, error) {
	return map[string]func(*eqn.System[X, D], lattice.Lattice[D], Operator[X, D], func(X) D, Config) (map[X]D, Stats, error){
		"slr2": SLR2[X, D],
		"slr3": SLR3[X, D],
		"slr4": SLR4[X, D],
	}
}

// TestSLRFamilyCrossCoreIdentity: the boxed and word stores run the same
// iteration, so forcing each on the same system must produce identical
// values and identical work counters, including restarts.
func TestSLRFamilyCrossCoreIdentity(t *testing.T) {
	l := lattice.Ints
	r := rand.New(rand.NewSource(17))
	init := func(int) iv { return lattice.EmptyInterval }
	op := WarrowOp[int, iv](l)
	for trial := 0; trial < 25; trial++ {
		sys := randMonotoneSystem(r, 2+r.Intn(8))
		wantStores(t, sys, l, op, init, CoreAuto, true)
		for name, run := range slrFamily[int, iv]() {
			ref, refSt, err := run(sys, l, op, init, Config{MaxEvals: 2_000_000, Core: CoreDense})
			if err != nil {
				t.Fatalf("trial %d %s/dense: %v", trial, name, err)
			}
			got, gotSt, err := run(sys, l, op, init, Config{MaxEvals: 2_000_000})
			if err != nil {
				t.Fatalf("trial %d %s/auto: %v", trial, name, err)
			}
			for x, v := range ref {
				if !l.Eq(got[x], v) {
					t.Fatalf("trial %d %s: σ[%d] = %s on words, %s on boxed values", trial, name, x, got[x], v)
				}
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates || gotSt.Restarts != refSt.Restarts {
				t.Fatalf("trial %d %s: stats on words (evals %d, updates %d, restarts %d) diverge from boxed values (%d, %d, %d)",
					trial, name, gotSt.Evals, gotSt.Updates, gotSt.Restarts,
					refSt.Evals, refSt.Updates, refSt.Restarts)
			}
		}
	}
}

// TestSLRFamilyPrecisionVsSW is the precision gate of the family. The gate
// is deliberately NOT "bit-pinned to SW": selective widening moves where the
// ∇ jumps land, and on arbitrary (random soup) systems even the restarting
// members can settle on post-solutions incomparable to SW's — ∇ is not
// monotone in its iterates, so no pointwise theorem exists there. What IS
// guaranteed, and what the diffsolve matrix and the WCET benchmark enforce:
//   - every family member certifies (eqn.IsPostSolution) on every system;
//   - on structured loop systems — the shape the recursive refinement is
//     built for — SLR3/SLR4 are pointwise ≤ the ⊟-everywhere SW baseline.
//
// Random systems additionally log how often the restarting members are
// tighter/looser than SW, so precision drift is visible without pinning.
func TestSLRFamilyPrecisionVsSW(t *testing.T) {
	l := lattice.Ints
	r := rand.New(rand.NewSource(23))
	init := func(int) iv { return lattice.EmptyInterval }

	// Certification on random soup, including non-monotone jump placement.
	tighter, looser := 0, 0
	for trial := 0; trial < 60; trial++ {
		sys := randMonotoneSystem(r, 2+r.Intn(8))
		cfg := Config{MaxEvals: 2_000_000}
		base, _, err := SW(sys, l, WarrowOp[int](l), init, cfg)
		if err != nil {
			t.Fatalf("trial %d: SW: %v", trial, err)
		}
		for name, run := range slrFamily[int, iv]() {
			sigma, _, err := run(sys, l, WarrowOp[int](l), init, cfg)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if x, ok := eqn.IsPostSolution(l, sys, sigma, init); !ok {
				t.Fatalf("trial %d: %s result not a post-solution at %v", trial, name, x)
			}
			if name == "slr2" {
				continue
			}
			for _, x := range sys.Order() {
				switch {
				case l.Eq(sigma[x], base[x]):
				case l.Leq(sigma[x], base[x]):
					tighter++
				default:
					looser++
				}
			}
		}
	}
	t.Logf("random soup, SLR3/SLR4 vs SW: %d points strictly tighter, %d not ≤", tighter, looser)

	// The hard pointwise-≤ gate on structured loop systems.
	structured := map[string]*eqn.System[string, iv]{
		"loop":   loopSystem(),
		"nested": nestedLoopSystem(),
	}
	for sysName, sys := range structured {
		cfg := Config{MaxEvals: 100000}
		base, _, err := SW(sys, l, WarrowOp[string](l), ivInit, cfg)
		if err != nil {
			t.Fatalf("%s: SW: %v", sysName, err)
		}
		for name, run := range slrFamily[string, iv]() {
			if name == "slr2" {
				continue
			}
			sigma, _, err := run(sys, l, WarrowOp[string](l), ivInit, cfg)
			if err != nil {
				t.Fatalf("%s: %s: %v", sysName, name, err)
			}
			for _, x := range sys.Order() {
				if !l.Leq(sigma[x], base[x]) {
					t.Errorf("%s: %s σ[%s] = %s not ≤ SW's %s", sysName, name, x, sigma[x], base[x])
				}
			}
		}
	}
}

// nestedLoopSystem models the triply nested counting loop
//
//	for (x=0; x<2; x++) for (y=0; y<3; y++) for (z=0; z<5; z++) {}
//
// as one strongly connected system: each head re-enters through its loop's
// exit, so narrowing at an outer head invalidates the converged inner loops
// below it — the motivating shape for restarting narrowing (SLR3).
func nestedLoopSystem() *eqn.System[string, iv] {
	l := lattice.Ints
	seed := lattice.Singleton(0)
	one := lattice.Singleton(1)
	s := eqn.NewSystem[string, iv]()
	s.Define("oh", []string{"ob", "me"}, func(get func(string) iv) iv {
		inc := lattice.EmptyInterval
		if !get("me").IsEmpty() { // outer increment only after the middle loop exits
			inc = get("ob").Add(one)
		}
		return l.Join(seed, inc)
	})
	s.Define("ob", []string{"oh"}, func(get func(string) iv) iv {
		return get("oh").RestrictLt(lattice.Singleton(2))
	})
	s.Define("mh", []string{"ob", "mb", "ie"}, func(get func(string) iv) iv {
		v := lattice.EmptyInterval
		if !get("ob").IsEmpty() { // middle loop entered from the outer body
			v = seed
		}
		if !get("ie").IsEmpty() { // middle increment only after the inner loop exits
			v = l.Join(v, get("mb").Add(one))
		}
		return v
	})
	s.Define("mb", []string{"mh"}, func(get func(string) iv) iv {
		return get("mh").RestrictLt(lattice.Singleton(3))
	})
	s.Define("me", []string{"mh"}, func(get func(string) iv) iv {
		return get("mh").RestrictGe(lattice.Singleton(3))
	})
	s.Define("ih", []string{"mb", "ib"}, func(get func(string) iv) iv {
		v := lattice.EmptyInterval
		if !get("mb").IsEmpty() {
			v = seed
		}
		return l.Join(v, get("ib").Add(one))
	})
	s.Define("ib", []string{"ih"}, func(get func(string) iv) iv {
		return get("ih").RestrictLt(lattice.Singleton(5))
	})
	s.Define("ie", []string{"ih"}, func(get func(string) iv) iv {
		return get("ih").RestrictGe(lattice.Singleton(5))
	})
	return s
}

// TestSLR3RestartNotOscillation is the watchdog regression for restarting
// narrowing: on the nested loops, SLR3's restart cascade resets the inner
// heads after each outer narrowing, and the resets' re-ascension would read
// as narrow→widen oscillation if the watchdog did not erase phase history on
// PhaseRestart. With MaxFlips: 1 the pre-fix classification aborts with
// AbortOscillation; the restart-aware watchdog lets the run converge.
func TestSLR3RestartNotOscillation(t *testing.T) {
	l := lattice.Ints
	sys := nestedLoopSystem()
	cfg := Config{MaxEvals: 100000, MaxFlips: 1}
	sigma, st, err := SLR3(sys, l, WarrowOp[string](l), ivInit, cfg)
	if err != nil {
		t.Fatalf("SLR3 aborted on a convergent restarting run: %v", err)
	}
	if st.Restarts < 2 {
		t.Fatalf("expected a restart cascade through the nested loops, got %d resets", st.Restarts)
	}
	if x, ok := eqn.IsPostSolution(l, sys, sigma, ivInit); !ok {
		t.Fatalf("result not a post-solution at %v", x)
	}
	if !l.Eq(sigma["ih"], lattice.Range(0, 5)) {
		t.Errorf("σ[ih] = %s, want [0,5]", sigma["ih"])
	}
	if !l.Eq(sigma["oh"], lattice.Range(0, 2)) {
		t.Errorf("σ[oh] = %s, want [0,2]", sigma["oh"])
	}
}

// TestSLR2OscillationStillCaught: restart awareness must not blind the
// watchdog — a genuinely oscillating non-monotone unknown (which never emits
// PhaseRestart) still trips MaxFlips.
func TestSLR2OscillationStillCaught(t *testing.T) {
	l := lattice.Ints
	sys := nonMonotoneOscillator()
	_, _, err := SLR2(sys, l, WarrowOp[string](l), ivInit, Config{MaxEvals: 100000, MaxFlips: 3})
	rep, ok := ReportOf(err)
	if !ok || rep.Reason != AbortOscillation {
		t.Fatalf("want AbortOscillation, got %v", err)
	}
}

// deepChainSystem closes an n-long dependence chain through a counting
// widening point: w = 0 ⊔ (eₙ<100)+1, e₁ = w, eₖ = eₖ₋₁ — one giant cycle,
// so the whole chain lies inside w's component and is swept on every pass.
// The chain carries w's widened [0,+inf] when w narrows to [0,100], so
// SLR3's restart cascade must walk and reset the entire chain.
func deepChainSystem(n int) *eqn.System[int, iv] {
	l := lattice.Ints
	s := eqn.NewSystem[int, iv]()
	s.Define(0, []int{n}, func(get func(int) iv) iv {
		return l.Join(lattice.Singleton(0),
			get(n).RestrictLt(lattice.Singleton(100)).Add(lattice.Singleton(1)))
	})
	for k := 1; k <= n; k++ {
		k := k
		s.Define(k, []int{k - 1}, func(get func(int) iv) iv {
			return get(k - 1)
		})
	}
	return s
}

// TestSLR3RestartDeepChain is the deep-influence regression: the restart
// cascade is an explicit iterative worklist, so a 10⁵-long influence chain
// is reset without 10⁵ nested calls (a recursive cascade grows the
// goroutine stack by the chain length and dies on deeper systems). The
// whole chain carries the widened value when the head narrows, so every
// link must be reset exactly once.
func TestSLR3RestartDeepChain(t *testing.T) {
	const n = 100_000
	l := lattice.Ints
	sys := deepChainSystem(n)
	init := func(int) iv { return lattice.EmptyInterval }
	sigma, st, err := SLR3(sys, l, WarrowOp[int](l), init, Config{MaxEvals: 10_000_000})
	if err != nil {
		t.Fatalf("SLR3: %v", err)
	}
	if st.Restarts != n {
		t.Errorf("Restarts = %d, want %d (every chain link reset once)", st.Restarts, n)
	}
	if !l.Eq(sigma[0], lattice.Range(0, 100)) {
		t.Errorf("σ[w] = %s, want [0,100]", sigma[0])
	}
	if !l.Eq(sigma[n], lattice.Range(0, 100)) {
		t.Errorf("σ[e%d] = %s, want [0,100]", n, sigma[n])
	}
}

// TestSLR4LocalizesRestart: SLR4 must not reset converged unknowns outside
// the narrowing widening point's component. The system nests a gated
// counting loop {w,v} inside an outer feedback cycle a→g→w→t→a: on the
// first outer pass the gate g is empty, so the inner loop sits idle while
// the tail t converges; the second pass opens the gate, the inner loop
// ascends, widens and narrows — and its restart cascade reaches the
// already-converged t, which lies outside {w,v}. SLR3 resets t, SLR4 only
// reschedules it, so SLR4 records strictly fewer resets for the same final
// values.
func TestSLR4LocalizesRestart(t *testing.T) {
	l := lattice.Ints
	s := eqn.NewSystem[int, iv]()
	seed := lattice.Singleton(0)
	one := lattice.Singleton(1)
	s.Define(0, []int{4}, func(get func(int) iv) iv { // a = 0 ⊔ (t<3)
		return l.Join(seed, get(4).RestrictLt(lattice.Singleton(3)))
	})
	s.Define(1, []int{0}, func(get func(int) iv) iv { // g = a≥1: the gate
		return get(0).RestrictGe(one)
	})
	s.Define(2, []int{1, 3}, func(get func(int) iv) iv { // w: loop head, runs once gated
		v := lattice.EmptyInterval
		if !get(1).IsEmpty() {
			v = seed
		}
		return l.Join(v, get(3).Add(one))
	})
	s.Define(3, []int{2}, func(get func(int) iv) iv { // v = w<5: the loop body
		return get(2).RestrictLt(lattice.Singleton(5))
	})
	s.Define(4, []int{0, 2}, func(get func(int) iv) iv { // t = (a+1) ⊔ w: the tail
		return l.Join(get(0).Add(one), get(2))
	})
	init := func(int) iv { return lattice.EmptyInterval }
	cfg := Config{MaxEvals: 100000}
	_, st3, err := SLR3(s, l, WarrowOp[int](l), init, cfg)
	if err != nil {
		t.Fatalf("SLR3: %v", err)
	}
	_, st4, err := SLR4(s, l, WarrowOp[int](l), init, cfg)
	if err != nil {
		t.Fatalf("SLR4: %v", err)
	}
	if st4.Restarts >= st3.Restarts {
		t.Errorf("SLR4 restarts (%d) should be fewer than SLR3's (%d): the tail t is outside the inner loop's component", st4.Restarts, st3.Restarts)
	}
	if st4.Restarts == 0 {
		t.Errorf("SLR4 should still reset the inner loop body, got 0 restarts")
	}
	sig3, _, _ := SLR3(s, l, WarrowOp[int](l), init, cfg)
	sig4, _, _ := SLR4(s, l, WarrowOp[int](l), init, cfg)
	for x := 0; x <= 4; x++ {
		if !l.Eq(sig3[x], sig4[x]) {
			t.Errorf("σ[%d]: SLR3=%s SLR4=%s", x, sig3[x], sig4[x])
		}
	}
}

// TestSLRFamilyResume: abort at every feasible budget, resume from the
// attached checkpoint, and check the resumed run converges to the same
// certified values as the uninterrupted one. (Stats.Restarts is not part of
// the checkpoint wire format, so only values are compared.)
func TestSLRFamilyResume(t *testing.T) {
	l := lattice.Ints
	for name, run := range slrFamily[string, iv]() {
		ref, refSt, err := run(nestedLoopSystem(), l, WarrowOp[string](l), ivInit, Config{MaxEvals: 100000})
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		for budget := 1; budget < refSt.Evals; budget += 7 {
			_, _, err := run(nestedLoopSystem(), l, WarrowOp[string](l), ivInit, Config{MaxEvals: budget})
			if err == nil {
				t.Fatalf("%s: budget %d did not abort", name, budget)
			}
			cp, ok := CheckpointOf[string, iv](err)
			if !ok {
				t.Fatalf("%s: abort at budget %d carries no checkpoint: %v", name, budget, err)
			}
			got, _, err := run(nestedLoopSystem(), l, WarrowOp[string](l), ivInit, Config{Resume: cp})
			if err != nil {
				t.Fatalf("%s: resume from budget %d: %v", name, budget, err)
			}
			for x, v := range ref {
				if !l.Eq(got[x], v) {
					t.Fatalf("%s: resume from budget %d: σ[%s] = %s, want %s", name, budget, x, got[x], v)
				}
			}
		}
		// A checkpoint must not resume under a sibling solver's name.
		_, _, err = run(nestedLoopSystem(), l, WarrowOp[string](l), ivInit, Config{MaxEvals: 5})
		cp, _ := CheckpointOf[string, iv](err)
		other := "slr2"
		if name == "slr2" {
			other = "slr3"
		}
		if _, _, err := slrFamily[string, iv]()[other](nestedLoopSystem(), l, WarrowOp[string](l), ivInit, Config{Resume: cp}); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("%s checkpoint resumed under %s: err=%v", name, other, err)
		}
	}
}

// TestSLRFamilyFewerEvals: the point of widening-point selection — on a
// batch of random monotone systems the family needs no more total
// evaluations than ⊟-everywhere SW, and strictly fewer in aggregate.
func TestSLRFamilyFewerEvals(t *testing.T) {
	l := lattice.Ints
	r := rand.New(rand.NewSource(31))
	init := func(int) iv { return lattice.EmptyInterval }
	totals := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		sys := randMonotoneSystem(r, 4+r.Intn(10))
		cfg := Config{MaxEvals: 2_000_000}
		_, swSt, err := SW(sys, l, WarrowOp[int](l), init, cfg)
		if err != nil {
			t.Fatalf("SW: %v", err)
		}
		totals["sw"] += swSt.Evals
		for name, run := range slrFamily[int, iv]() {
			_, st, err := run(sys, l, WarrowOp[int](l), init, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			totals[name] += st.Evals
		}
	}
	t.Logf("total evals: %v", totals)
	if totals["slr2"] > totals["sw"] {
		t.Errorf("SLR2 used more evaluations than SW in aggregate: %v", totals)
	}
}

var _ = fmt.Sprint // keep fmt imported for debugging edits
