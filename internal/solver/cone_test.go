package solver

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// bruteCone is the reference dirty cone: the transitive readers of the seeds
// by naive fixpoint iteration over adj, rounded up to whole strata whose
// boundaries are found by testing every cut against every edge (a cut before
// b is a stratum boundary iff no edge i → j has i < b ≤ j). It shares no
// code with Decomposition.
func bruteCone(adj [][]int, seeds []int) ([]int, int) {
	n := len(adj)
	dirty := make([]bool, n)
	for _, s := range seeds {
		if s >= 0 && s < n {
			dirty[s] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i, row := range adj {
			for _, j := range row {
				if dirty[j] && !dirty[i] {
					dirty[i], changed = true, true
				}
			}
		}
	}
	boundary := func(b int) bool {
		for i := 0; i < b; i++ {
			for _, j := range adj[i] {
				if j >= b {
					return false
				}
			}
		}
		return true
	}
	var members []int
	strata := 0
	for lo := 0; lo < n; {
		hi := lo
		for hi+1 < n && !boundary(hi+1) {
			hi++
		}
		if slices.Contains(dirty[lo:hi+1], true) {
			strata++
			for i := lo; i <= hi; i++ {
				members = append(members, i)
			}
		}
		lo = hi + 1
	}
	return members, strata
}

// TestConeMatchesBruteForce: the memoized cone equals the brute-force
// reference on seeded eqgen recipes — backward-only, forward-edged and
// giant-SCC shapes — across chains of eqgen.Mutate batches, some of which
// change dependence lists (so a stale memo would show as a wrong cone). The
// unmemoized DirtyCone wrapper must agree too.
func TestConeMatchesBruteForce(t *testing.T) {
	recipes := []eqgen.Config{
		{Seed: 1, N: 160},
		{Seed: 2, N: 160, FanIn: 1, MaxSCC: 1},
		{Seed: 3, N: 160, ForwardDensity: 0.02},
		{Seed: 4, N: 160, ForwardDensity: 0.3, MaxSCC: 6},
		{Seed: 5, N: 160, GiantSCC: 0.25},
		{Seed: 6, N: 160, GiantSCC: 0.5, ForwardDensity: 0.05, FanIn: 3},
	}
	rebuilds := 0
	for ri, cfg := range recipes {
		g := eqgen.New(cfg)
		sys := g.Interval
		n := sys.Len()
		r := rand.New(rand.NewSource(int64(ri)))
		var edited []int
		var prev *Decomposition
		for gen := 0; gen < 8; gen++ {
			dec := DecompositionOf(sys)
			if prev != nil && dec != prev {
				rebuilds++
			}
			prev = dec
			adj := sys.DepGraph()
			random := make([]int, 1+r.Intn(4))
			for k := range random {
				random[k] = r.Intn(n)
			}
			for _, seeds := range [][]int{nil, edited, {0}, {n - 1}, {n / 2}, random, {-1, n}} {
				want, wantStrata := bruteCone(adj, seeds)
				got, gotStrata := dec.Cone(seeds)
				if !slices.Equal(got, want) || gotStrata != wantStrata {
					t.Fatalf("%s gen %d seeds %v: cone %v (%d strata), brute force %v (%d strata)",
						cfg, gen, seeds, got, gotStrata, want, wantStrata)
				}
				got, gotStrata = DirtyCone(adj, seeds)
				if !slices.Equal(got, want) || gotStrata != wantStrata {
					t.Fatalf("%s gen %d seeds %v: DirtyCone %v (%d strata), brute force %v (%d strata)",
						cfg, gen, seeds, got, gotStrata, want, wantStrata)
				}
			}
			edited = eqgen.Mutate(g, uint64(1000*ri+gen), 1+r.Intn(6))
		}
	}
	if rebuilds == 0 {
		t.Fatal("no Mutate batch changed a dependence list: the rebuild path went unexercised")
	}
}

// TestConeEpochWrap: the marking stamp wrapping around to zero clears the
// scratch instead of letting stale marks alias the new epoch.
func TestConeEpochWrap(t *testing.T) {
	sys := eqgen.New(eqgen.Config{Seed: 8, N: 64, ForwardDensity: 0.1}).Interval
	dec := DecompositionOf(sys)
	adj := sys.DepGraph()
	dec.Cone([]int{0})
	dec.scratch.Load().epoch = ^uint32(0) - 1
	for k, seeds := range [][]int{{63}, {0}, {31}, {0}} {
		want, wantStrata := bruteCone(adj, seeds)
		got, gotStrata := dec.Cone(seeds)
		if !slices.Equal(got, want) || gotStrata != wantStrata {
			t.Fatalf("cone %d after the wrap: %v (%d strata), want %v (%d strata)", k, got, gotStrata, want, wantStrata)
		}
	}
}

// TestDecompositionMemoLifetime pins the memo's lifetime by pointer
// identity, in the style of TestRedefinePatchesDenseShape: the
// decomposition depends only on dependence lists, so a same-dependences
// RedefineRaw keeps the very same object (and a PSW solve after it reuses
// it), while a dependence change or a Define rebuilds it.
func TestDecompositionMemoLifetime(t *testing.T) {
	g := eqgen.New(eqgen.Config{Seed: 3, N: 48, MaxSCC: 1, FanIn: 1})
	sys := g.Interval
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	dec := DecompositionOf(sys)
	if _, _, err := PSW(sys, l, WarrowOp[int](l), init, Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if DecompositionOf(sys) != dec {
		t.Fatal("PSW rebuilt the memoized decomposition")
	}

	sp := g.Shape.SpecOf(10)
	sp.Mat++
	rhs, raw := eqgen.IntervalRHS(sp)
	sys.RedefineRaw(10, sp.Deps, rhs, raw)
	if DecompositionOf(sys) != dec {
		t.Fatal("same-deps RedefineRaw dropped the decomposition")
	}
	if _, _, err := PSW(sys, l, WarrowOp[int](l), init, Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if DecompositionOf(sys) != dec {
		t.Fatal("PSW after a same-deps edit rebuilt the decomposition")
	}

	// A forward read 10 → 40 merges every stratum in between.
	sp.Deps = append(slices.Clone(sp.Deps), 40)
	rhs, _ = eqgen.IntervalRHS(sp)
	sys.Redefine(10, sp.Deps, rhs)
	rebuilt := DecompositionOf(sys)
	if rebuilt == dec {
		t.Fatal("deps-changing Redefine kept the stale decomposition")
	}
	if got, want := rebuilt.Strata(), Stratify(sys.DepGraph()); !slices.Equal(got, want) {
		t.Fatalf("rebuilt strata %v, want %v", got, want)
	}
	if rebuilt.NumStrata() >= dec.NumStrata() {
		t.Fatalf("forward edge left %d strata, had %d", rebuilt.NumStrata(), dec.NumStrata())
	}

	sys.Define(48, []int{47}, func(get func(int) lattice.Interval) lattice.Interval { return get(47) })
	grown := DecompositionOf(sys)
	if grown == rebuilt {
		t.Fatal("Define kept the stale decomposition")
	}
	if len(grown.stratumOf) != 49 || grown.NumStrata() != rebuilt.NumStrata()+1 {
		t.Fatalf("after Define: %d unknowns in %d strata, want 49 in %d",
			len(grown.stratumOf), grown.NumStrata(), rebuilt.NumStrata()+1)
	}
}

// refShapeStats recomputes the SCC and stratum statistics exactly as PSW and
// CPW did before they read the memoized decomposition.
func refShapeStats(adj [][]int) Stats {
	var st Stats
	comp, ncomp := tarjanSCC(adj)
	st.SCCs = ncomp
	st.Strata = len(stratify(adj))
	sizes := make([]int, ncomp)
	for _, c := range comp {
		sizes[c]++
	}
	for _, sz := range sizes {
		st.SCCSize.Observe(sz)
	}
	for _, d := range sccDepths(adj, comp, ncomp) {
		st.SCCDepth.Observe(d)
	}
	return st
}

// TestShapeStatsFromDecomposition: PSW and CPW report the same SCCs,
// Strata, SCCSize and SCCDepth as the per-solve computation they replaced,
// on a fresh memo, on a reused one, and after a same-deps edit.
func TestShapeStatsFromDecomposition(t *testing.T) {
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	for _, cfg := range []eqgen.Config{
		{Seed: 21, N: 300},
		{Seed: 22, N: 300, ForwardDensity: 0.05, MaxSCC: 6},
		{Seed: 23, N: 300, GiantSCC: 0.4, FanIn: 3},
		{Seed: 24, N: 300, MaxSCC: 1, FanIn: 1},
	} {
		g := eqgen.New(cfg)
		sys := g.Interval
		want := refShapeStats(sys.DepGraph())
		check := func(stage string) {
			t.Helper()
			for _, solver := range []string{"psw", "cpw"} {
				var st Stats
				var err error
				c := Config{Workers: 2}
				if solver == "psw" {
					_, st, err = PSW(sys, l, WarrowOp[int](l), init, c)
				} else {
					_, st, err = CPW(sys, l, WarrowOp[int](l), init, c)
				}
				if err != nil {
					t.Fatalf("%s %s %s: %v", cfg, stage, solver, err)
				}
				if st.SCCs != want.SCCs || st.Strata != want.Strata || st.SCCSize != want.SCCSize || st.SCCDepth != want.SCCDepth {
					t.Fatalf("%s %s %s: sccs/strata %d/%d size %v depth %v, want %d/%d size %v depth %v",
						cfg, stage, solver, st.SCCs, st.Strata, st.SCCSize, st.SCCDepth,
						want.SCCs, want.Strata, want.SCCSize, want.SCCDepth)
				}
			}
		}
		check("fresh")
		check("memoized")
		sp := g.Shape.SpecOf(sys.Len() - 1)
		sp.Mat++
		rhs, raw := eqgen.IntervalRHS(sp)
		sys.RedefineRaw(sys.Len()-1, sp.Deps, rhs, raw)
		check("after same-deps edit")
	}
}

// TestDecompositionConcurrentUse: one memoized decomposition serves
// concurrent cones (the reusable scratch is taken by at most one of them)
// and concurrent PSW/CPW solves (the component part is built once), every
// answer equal to the sequential one. Run it under -race. The solves use
// the boxed core: eqgen's fused interval right-hand sides keep a scratch
// buffer per equation, so two concurrent solves of one eqgen system on the
// unboxed core would race inside the equations themselves.
func TestDecompositionConcurrentUse(t *testing.T) {
	sys := eqgen.New(eqgen.Config{Seed: 31, N: 200, ForwardDensity: 0.05}).Interval
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	adj := sys.DepGraph()
	want := refShapeStats(adj)
	dec := DecompositionOf(sys)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 40; k++ {
				seeds := []int{r.Intn(200), r.Intn(200)}
				wantCone, wantStrata := bruteCone(adj, seeds)
				if got, gotStrata := dec.Cone(seeds); !slices.Equal(got, wantCone) || gotStrata != wantStrata {
					t.Errorf("worker %d seeds %v: cone %v (%d strata), want %v (%d strata)", w, seeds, got, gotStrata, wantCone, wantStrata)
					return
				}
			}
			var st Stats
			var err error
			if w%2 == 0 {
				_, st, err = PSW(sys, l, WarrowOp[int](l), init, Config{Workers: 2, Core: CoreDense})
			} else {
				_, st, err = CPW(sys, l, WarrowOp[int](l), init, Config{Workers: 2, Core: CoreDense})
			}
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if st.SCCs != want.SCCs || st.Strata != want.Strata || st.SCCSize != want.SCCSize || st.SCCDepth != want.SCCDepth {
				t.Errorf("worker %d: shape stats %d/%d %v %v, want %d/%d %v %v", w,
					st.SCCs, st.Strata, st.SCCSize, st.SCCDepth, want.SCCs, want.Strata, want.SCCSize, want.SCCDepth)
			}
		}(w)
	}
	wg.Wait()
}
