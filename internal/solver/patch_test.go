package solver

import (
	"reflect"
	"testing"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// patchChain builds a 20-unknown interval chain: unknown 0 is a constant,
// every other unknown copies its predecessor joined with a per-unknown
// constant — c(i) = i, or c(i) = edit[i] where edit has an entry.
func patchChain(edit map[int]int64) *eqn.System[int, lattice.Interval] {
	sys := eqn.NewSystem[int, lattice.Interval]()
	sys.Define(0, nil, func(func(int) lattice.Interval) lattice.Interval {
		return lattice.Singleton(0)
	})
	for i := 1; i < 20; i++ {
		i, c := i, int64(i)
		if v, ok := edit[i]; ok {
			c = v
		}
		sys.Define(i, []int{i - 1}, func(get func(int) lattice.Interval) lattice.Interval {
			return lattice.Ints.Join(get(i-1), lattice.Singleton(c))
		})
	}
	return sys
}

// TestRedefinePatchesDenseShape pins the reuse contract the incremental
// engine depends on: a same-dependences Redefine patches the memoized
// compiled shape in place — provably the same object, with only the edited
// right-hand-side slot replaced — while a dependence-list change rebuilds
// it. The eqn-side shape maps survive the same-deps edit by pointer
// identity too, so nothing downstream recompiles.
func TestRedefinePatchesDenseShape(t *testing.T) {
	sys := patchChain(nil)
	l := lattice.Ints
	op := WarrowOp[int](l)
	init := eqn.ConstBottom[int, lattice.Interval](l)
	cfg := Config{MaxEvals: 100_000, Core: CoreDense}

	before, _, err := SW(sys, l, op, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shAny := sys.ShapeMemo(denseShapeKey, func() any {
		t.Fatal("solve did not memoize the dense shape")
		return nil
	})
	sh := shAny.(*denseShape[int, lattice.Interval])
	idxPtr := reflect.ValueOf(sys.Index()).Pointer()
	inflPtr := reflect.ValueOf(sys.Infl()).Pointer()
	adjBefore := sys.DepGraph()

	// Same deps: raise unknown 5's constant.
	sys.Redefine(5, []int{4}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(4), lattice.Singleton(50))
	})

	again := sys.ShapeMemo(denseShapeKey, func() any {
		t.Fatal("same-deps Redefine dropped the dense shape")
		return nil
	}).(*denseShape[int, lattice.Interval])
	if again != sh {
		t.Fatal("same-deps Redefine replaced the dense shape object")
	}
	if got := sh.rhs[5](func(int) lattice.Interval { return l.Bottom() }); !l.Eq(got, lattice.Singleton(50)) {
		t.Fatalf("patched rhs slot evaluates to %s, want [50,50]", l.Format(got))
	}
	if sh.rawRHS[5] != nil {
		t.Fatal("patch did not clear the stale raw twin")
	}
	if reflect.ValueOf(sys.Index()).Pointer() != idxPtr {
		t.Fatal("same-deps Redefine rebuilt Index")
	}
	if reflect.ValueOf(sys.Infl()).Pointer() != inflPtr {
		t.Fatal("same-deps Redefine rebuilt Infl")
	}
	if &sys.DepGraph()[0] != &adjBefore[0] {
		t.Fatal("same-deps Redefine rebuilt DepGraph")
	}

	// The patched shape solves to the edited fixpoint, bit-identical to a
	// fresh compile of the edited chain.
	after, afterSt, err := SW(sys, l, op, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, freshSt, err := SW(patchChain(map[int]int64{5: 50}), l, op, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range sys.Order() {
		if !l.Eq(after[x], fresh[x]) {
			t.Fatalf("patched solve of %v = %s, fresh compile = %s", x, l.Format(after[x]), l.Format(fresh[x]))
		}
	}
	if afterSt != freshSt {
		t.Fatalf("patched solve stats %+v, fresh compile %+v", afterSt, freshSt)
	}
	if l.Eq(after[19], before[19]) {
		t.Fatalf("edit did not reach the chain tail: still %s", l.Format(after[19]))
	}

	// Changed deps: unknown 5 now also reads unknown 0. The shape rebuilds.
	sys.Redefine(5, []int{4, 0}, func(get func(int) lattice.Interval) lattice.Interval {
		return l.Join(get(4), get(0))
	})
	if _, _, err := SW(sys, l, op, init, cfg); err != nil {
		t.Fatal(err)
	}
	rebuilt := sys.ShapeMemo(denseShapeKey, func() any {
		t.Fatal("solve did not rebuild the dense shape")
		return nil
	}).(*denseShape[int, lattice.Interval])
	if rebuilt == sh {
		t.Fatal("deps-changed Redefine kept the stale dense shape")
	}
}
