package solver

import (
	"fmt"
	"slices"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// checkCSR holds every row of a compiled shape to eqn.Infl mapped through
// Index — the unknown itself first, then its readers in Infl's order, on
// which the bit identity of the compiled loops with Figs. 1–4 over maps
// rests (DESIGN.md §10).
func checkCSR[X comparable, D any](sys *eqn.System[X, D], sh *denseShape[X, D]) error {
	idx, infl := sys.Index(), sys.Infl()
	order := sys.Order()
	if len(sh.inflOff) != len(order)+1 {
		return fmt.Errorf("%d row offsets for %d unknowns", len(sh.inflOff), len(order))
	}
	for i, x := range order {
		want := make([]int32, 0, len(infl[x]))
		for _, y := range infl[x] {
			want = append(want, int32(idx[y]))
		}
		if got := sh.infl(i); len(got) == 0 || got[0] != int32(i) || !slices.Equal(got, want) {
			return fmt.Errorf("row %d (%v) = %v, want %v", i, x, got, want)
		}
	}
	if int(sh.inflOff[len(order)]) != len(sh.inflDat) {
		return fmt.Errorf("rows cover %d of %d entries", sh.inflOff[len(order)], len(sh.inflDat))
	}
	return nil
}

// memoShape is the shape a solve of sys would run on: the memoized one,
// patched in place or rebuilt after edits.
func memoShape[X comparable, D any](sys *eqn.System[X, D]) *denseShape[X, D] {
	return sys.ShapeMemo(denseShapeKey, func() any { return buildDenseShape(sys) }).(*denseShape[X, D])
}

// TestCSRMatchesInfl: the compiled shape's rows, taken from eqn.InflCSR,
// are eqn.Infl's lists mapped through Index on eqgen recipes
// (backward-only, forward-edged, giant-SCC) across chains of eqgen.Mutate
// batches, which patch or rebuild the memoized shape, and on hand-built
// systems with duplicate dependences, self-loops, dependences on undefined
// unknowns, non-identity int orders and string keys.
func TestCSRMatchesInfl(t *testing.T) {
	recipes := []eqgen.Config{
		{Seed: 1, N: 160},
		{Seed: 3, N: 160, ForwardDensity: 0.02},
		{Seed: 4, N: 160, ForwardDensity: 0.3, MaxSCC: 6},
		{Seed: 5, N: 160, GiantSCC: 0.25},
		{Seed: 6, N: 160, GiantSCC: 0.5, ForwardDensity: 0.05, FanIn: 3},
	}
	for ri, cfg := range recipes {
		g := eqgen.New(cfg)
		for gen := 0; gen < 8; gen++ {
			if err := checkCSR(g.Interval, memoShape(g.Interval)); err != nil {
				t.Fatalf("%s gen %d: %v", cfg, gen, err)
			}
			eqgen.Mutate(g, uint64(1000*ri+gen), 1+gen%5)
		}
	}

	nop := func(func(int) lattice.Interval) lattice.Interval { return lattice.EmptyInterval }
	ident := eqn.NewSystem[int, lattice.Interval]()
	ident.Define(0, []int{1, 1, 0, 7, -1}, nop)
	ident.Define(1, []int{0, 2, 0, 1}, nop)
	ident.Define(2, []int{2, 2, 9, 0, 0}, nop)
	ident.Define(3, []int{1, 0, 1, 2, 3}, nop)
	if sh := buildDenseShape(ident); !sh.identInt {
		t.Fatal("0..n-1 in order not recognized as identity-int")
	} else if err := checkCSR(ident, sh); err != nil {
		t.Fatalf("identity-int: %v", err)
	}

	perm := eqn.NewSystem[int, lattice.Interval]()
	perm.Define(5, []int{-2, 5, 40, -2}, nop)
	perm.Define(-2, []int{-2, 9, 5, 5}, nop)
	perm.Define(9, []int{5, -2, 9, 9}, nop)
	perm.Define(0, []int{9, 5, 1}, nop)
	if sh := buildDenseShape(perm); sh.identInt {
		t.Fatal("permuted int order taken for identity-int")
	} else if err := checkCSR(perm, sh); err != nil {
		t.Fatalf("permuted ints: %v", err)
	}

	snop := func(func(string) lattice.Interval) lattice.Interval { return lattice.EmptyInterval }
	str := eqn.NewSystem[string, lattice.Interval]()
	str.Define("head", []string{"body", "body", "head", "env"}, snop)
	str.Define("body", []string{"head", "body", "exit", "head"}, snop)
	str.Define("exit", []string{"exit", "env", "body", "body"}, snop)
	str.Define("", []string{"head", "", "env", "exit"}, snop)
	if err := checkCSR(str, buildDenseShape(str)); err != nil {
		t.Fatalf("string keys: %v", err)
	}

	if err := checkCSR(eqn.NewSystem[int, lattice.Interval](), buildDenseShape(eqn.NewSystem[int, lattice.Interval]())); err != nil {
		t.Fatalf("empty system: %v", err)
	}
}
