package solver

import (
	"reflect"
	"strings"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// TestLiveConeRefusesGenericSolvers: a Live store solves the whole system
// with RR and W exactly as Run does, but refuses a cone for them with an
// error that names the solver, since no cone of theirs is exact; SRR, SW
// and PSW re-solve one.
func TestLiveConeRefusesGenericSolvers(t *testing.T) {
	l := lattice.Ints
	sys := eqgen.New(eqgen.Config{Seed: 3, Dom: eqgen.Interval, N: 48}).Interval
	init := eqn.ConstBottom[int, lattice.Interval](l)
	op := WarrowOp[int](l)
	members, _ := DecompositionOf(sys).Cone(nil, []int{sys.Len() - 1})
	for _, name := range []string{"rr", "w", "srr", "sw", "psw"} {
		lv, err := NewLive(sys, l, op, init, name)
		if err != nil {
			t.Fatal(err)
		}
		vals := map[int]lattice.Interval{}
		st, err := lv.Solve(Config{}, vals)
		want, wantSt, werr := Run(name, sys, l, op, init, Config{})
		st.WallNs, wantSt.WallNs = 0, 0
		if err != nil || werr != nil || st != wantSt || !reflect.DeepEqual(vals, want) {
			t.Errorf("%s: Solve answered %+v (%v), Run %+v (%v); values equal: %v", name, st, err, wantSt, werr, reflect.DeepEqual(vals, want))
		}
		_, err = lv.SolveCone(members, Config{}, vals)
		generic := name == "rr" || name == "w"
		if (err != nil) != generic || generic && !strings.Contains(err.Error(), name) {
			t.Errorf("%s: SolveCone error %v, want a refusal naming the solver exactly for rr and w", name, err)
		}
	}
	if _, err := NewLive(sys, l, op, init, "cpw"); err == nil {
		t.Error("NewLive accepted cpw")
	}
}
