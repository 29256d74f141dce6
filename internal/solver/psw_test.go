package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/eqdsl"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/wcet"
)

// TestTarjanSCC: components and their reverse-topological numbering on a
// small graph with two cycles and a bridge:
//
//	0 ↔ 1 → 2 → 3 ↔ 4,  5 isolated
func TestTarjanSCC(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {3}, {4}, {3}, {}}
	comp, ncomp := tarjanSCC(adj)
	if ncomp != 4 {
		t.Fatalf("ncomp = %d, want 4", ncomp)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] {
		t.Errorf("cycles split: comp = %v", comp)
	}
	if comp[0] == comp[2] || comp[2] == comp[3] || comp[0] == comp[3] {
		t.Errorf("distinct components merged: comp = %v", comp)
	}
	// Reverse topological: every dependence has a smaller component id.
	for i, deps := range adj {
		for _, j := range deps {
			if comp[i] != comp[j] && comp[j] > comp[i] {
				t.Errorf("edge %d→%d: comp %d→%d not reverse-topological", i, j, comp[i], comp[j])
			}
		}
	}
	depth := sccDepths(adj, comp, ncomp)
	if d := depth[comp[3]]; d != 1 {
		t.Errorf("depth of {3,4} = %d, want 1 (reads nothing)", d)
	}
	if d := depth[comp[0]]; d != 3 {
		t.Errorf("depth of {0,1} = %d, want 3 (reads {2} which reads {3,4})", d)
	}
	if d := depth[comp[5]]; d != 1 {
		t.Errorf("depth of {5} = %d, want 1", d)
	}
}

// TestStratify: backward deps keep strata minimal; forward deps and cycles
// coarsen them until every external read points strictly backwards.
func TestStratify(t *testing.T) {
	cases := []struct {
		adj  [][]int
		want []stratum
	}{
		// Chain of backward reads: every unknown its own stratum.
		{[][]int{{}, {0}, {1}}, []stratum{{0, 0}, {1, 1}, {2, 2}}},
		// A cycle 1↔2 spans one stratum.
		{[][]int{{}, {2}, {1}}, []stratum{{0, 0}, {1, 2}}},
		// Forward cross-SCC read 0→2 merges everything in between.
		{[][]int{{2}, {}, {}}, []stratum{{0, 2}}},
		// Cycle over non-adjacent indices {0,2} swallows index 1.
		{[][]int{{2}, {}, {0}}, []stratum{{0, 2}}},
	}
	for i, c := range cases {
		got := stratify(eqn.InflOf(c.adj))
		if len(got) != len(c.want) {
			t.Errorf("case %d: strata %v, want %v", i, got, c.want)
			continue
		}
		for k := range got {
			if got[k] != c.want[k] {
				t.Errorf("case %d: strata %v, want %v", i, got, c.want)
				break
			}
		}
	}
	// Strata never split an SCC and all external reads point backwards.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		adj := make([][]int, n)
		for i := range adj {
			for k := 0; k < r.Intn(4); k++ {
				adj[i] = append(adj[i], r.Intn(n))
			}
		}
		strata := stratify(eqn.InflOf(adj))
		strat := make([]int, n)
		for si, s := range strata {
			for i := s.lo; i <= s.hi; i++ {
				strat[i] = si
			}
		}
		for i, deps := range adj {
			for _, j := range deps {
				if strat[j] > strat[i] {
					t.Fatalf("trial %d: forward cross-stratum read %d→%d in %v", trial, i, j, strata)
				}
			}
		}
		comp, _ := tarjanSCC(adj)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if comp[i] == comp[j] && strat[i] != strat[j] {
					t.Fatalf("trial %d: SCC of %d,%d split across strata %v", trial, i, j, strata)
				}
			}
		}
	}
}

// assertPSWMatchesSW runs SW and PSW (at several worker counts) on the same
// system and asserts per-unknown lattice equality, identical errors, and
// identical evaluation counts — the sequential-equivalence contract of PSW.
func assertPSWMatchesSW[X comparable, D any](t *testing.T, name string, sys *eqn.System[X, D], l lattice.Lattice[D], mkOp func() Operator[X, D], init func(X) D, cfg Config) {
	t.Helper()
	want, wantSt, wantErr := SW(sys, l, mkOp(), init, cfg)
	for _, workers := range []int{1, 2, 4, 8} {
		pcfg := cfg
		pcfg.Workers = workers
		got, st, err := PSW(sys, l, mkOp(), init, pcfg)
		if !errors.Is(err, wantErr) && !(err == nil && wantErr == nil) {
			t.Fatalf("%s/workers=%d: err = %v, SW err = %v", name, workers, err, wantErr)
		}
		if err != nil {
			continue // partial states are schedule-dependent
		}
		for _, x := range sys.Order() {
			if !l.Eq(got[x], want[x]) {
				t.Fatalf("%s/workers=%d: σ[%v] = %s, SW has %s",
					name, workers, x, l.Format(got[x]), l.Format(want[x]))
			}
		}
		if st.Evals != wantSt.Evals {
			t.Errorf("%s/workers=%d: Evals = %d, SW did %d", name, workers, st.Evals, wantSt.Evals)
		}
		if st.Updates != wantSt.Updates {
			t.Errorf("%s/workers=%d: Updates = %d, SW did %d", name, workers, st.Updates, wantSt.Updates)
		}
	}
}

// TestPSWMatchesSWOnTestSystems: bit-identity on every finite system the
// solver tests use — the counting loop, the paper's Examples 1–2, an
// acyclic system under replace, and a large batch of random monotone
// systems (whose definition orders are generally *not* topologically
// consistent, exercising the stratum-coarsening path).
func TestPSWMatchesSWOnTestSystems(t *testing.T) {
	ints := lattice.Ints
	nat := lattice.NatInf
	cfg := Config{MaxEvals: 100000}

	assertPSWMatchesSW(t, "loop", loopSystem(), ints,
		func() Operator[string, iv] { return Op[string](Warrow[iv](ints)) }, ivInit, cfg)
	assertPSWMatchesSW(t, "example1", example1System(), nat,
		func() Operator[string, lattice.Nat] { return natWarrow() }, zeroInit, cfg)
	assertPSWMatchesSW(t, "example2", example2System(), nat,
		func() Operator[string, lattice.Nat] { return natWarrow() }, zeroInit, cfg)
	assertPSWMatchesSW(t, "oscillator(budget)", nonMonotoneOscillator(), ints,
		func() Operator[string, iv] { return Op[string](Warrow[iv](ints)) }, ivInit, Config{MaxEvals: 2000})

	acyclic := eqn.NewSystem[string, iv]()
	acyclic.Define("a", nil, func(func(string) iv) iv { return lattice.Range(1, 2) })
	acyclic.Define("b", []string{"a"}, func(get func(string) iv) iv {
		return get("a").Add(lattice.Singleton(10))
	})
	acyclic.Define("c", []string{"a", "b"}, func(get func(string) iv) iv {
		return ints.Join(get("a"), get("b"))
	})
	assertPSWMatchesSW(t, "acyclic/replace", acyclic, ints,
		func() Operator[string, iv] { return Op[string](Replace[iv]()) },
		ivInit, Config{})

	r := rand.New(rand.NewSource(271))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(12)
		sys := randMonotoneSystem(r, n)
		assertPSWMatchesSW(t, fmt.Sprintf("rand%d", trial), sys, ints,
			func() Operator[int, iv] { return Op[int](Warrow[iv](ints)) },
			func(int) iv { return lattice.EmptyInterval }, Config{MaxEvals: 2_000_000})
	}
}

// TestPSWEmptySystem: zero unknowns is not a deadlock.
func TestPSWEmptySystem(t *testing.T) {
	sys := eqn.NewSystem[string, iv]()
	sigma, st, err := PSW(sys, lattice.Ints, Op[string](Warrow[iv](lattice.Ints)), ivInit, Config{Workers: 4})
	if err != nil || len(sigma) != 0 {
		t.Fatalf("σ = %v, err = %v", sigma, err)
	}
	if st.Strata != 0 {
		t.Errorf("Strata = %d, want 0", st.Strata)
	}
}

// TestPSWMatchesSWOnEqExamples: bit-identity on the textual example systems
// shipped in examples/systems.
func TestPSWMatchesSWOnEqExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "systems")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".eq" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := eqdsl.Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if f.Open {
			continue // edit overlay, not a closed system
		}
		cfg := Config{MaxEvals: 100000}
		switch f.Domain {
		case eqdsl.DomainNatInf:
			sys, err := f.NatSystem()
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			assertPSWMatchesSW(t, e.Name(), sys, lattice.NatInf,
				func() Operator[string, lattice.Nat] {
					return Op[string](Warrow[lattice.Nat](lattice.NatInf))
				},
				func(string) lattice.Nat { return lattice.NatOf(0) }, cfg)
		case eqdsl.DomainInterval:
			sys, err := f.IntervalSystem()
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			assertPSWMatchesSW(t, e.Name(), sys, lattice.Ints,
				func() Operator[string, iv] { return Op[string](Warrow[iv](lattice.Ints)) },
				func(string) iv { return lattice.EmptyInterval }, cfg)
		}
		ran++
	}
	if ran < 3 {
		t.Fatalf("only %d .eq examples found in %s", ran, dir)
	}
}

// cfgCountSystem derives a finite constraint system from a control-flow
// graph: the unknown of a node is an interval abstraction of "steps taken
// to reach it", joining pred+1 over all in-edges — a monotone system whose
// dependence structure (loops, branches, chains) is exactly the WCET
// benchmark's, ordered by the linearized WTO as the paper prescribes.
func cfgCountSystem(g *cfg.Graph) *eqn.System[*cfg.Node, iv] {
	l := lattice.Ints
	order := cfg.LinearizeWTO(g.WTO())
	inOrder := make(map[*cfg.Node]bool, len(order))
	for _, n := range order {
		inOrder[n] = true
	}
	sys := eqn.NewSystem[*cfg.Node, iv]()
	for _, n := range order {
		n := n
		var deps []*cfg.Node
		for _, e := range n.In {
			if inOrder[e.From] {
				deps = append(deps, e.From)
			}
		}
		preds := deps
		entry := n == g.Entry
		sys.Define(n, deps, func(get func(*cfg.Node) iv) iv {
			v := lattice.EmptyInterval
			if entry {
				v = lattice.Singleton(0)
			}
			for _, p := range preds {
				v = l.Join(v, get(p).Add(lattice.Singleton(1)))
			}
			return v
		})
	}
	return sys
}

// TestPSWMatchesSWOnWCETSystems: bit-identity on constraint systems derived
// from every function CFG of the WCET suite — realistic loop-nest SCC
// structure under WTO orders, where each stratum is exactly one SCC.
func TestPSWMatchesSWOnWCETSystems(t *testing.T) {
	l := lattice.Ints
	for _, b := range wcet.All() {
		ast, err := cint.Parse(b.Src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		prog := cfg.Build(ast)
		for _, fn := range prog.Order {
			g := prog.Graphs[fn]
			sys := cfgCountSystem(g)
			if sys.Len() == 0 {
				continue
			}
			assertPSWMatchesSW(t, b.Name+"/"+fn, sys, l,
				func() Operator[*cfg.Node, iv] { return Op[*cfg.Node](Warrow[iv](l)) },
				func(*cfg.Node) iv { return lattice.EmptyInterval },
				Config{MaxEvals: 5_000_000})
		}
	}
}

// TestPSWDeterminism: 20 repetitions with randomized worker counts produce
// identical solutions and identical post-solution verdicts vs SW — the
// race-detector-friendly determinism contract.
func TestPSWDeterminism(t *testing.T) {
	l := lattice.Ints
	r := rand.New(rand.NewSource(1234))
	init := func(int) iv { return lattice.EmptyInterval }
	sys := randMonotoneSystem(r, 30)
	cfg := Config{MaxEvals: 2_000_000}
	want, _, err := SW(sys, l, Op[int](Warrow[iv](l)), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, wantPost := eqn.IsPostSolution(l, sys, want, init)
	for rep := 0; rep < 20; rep++ {
		pcfg := cfg
		pcfg.Workers = 1 + r.Intn(8)
		got, _, err := PSW(sys, l, Op[int](Warrow[iv](l)), init, pcfg)
		if err != nil {
			t.Fatalf("rep %d (workers=%d): %v", rep, pcfg.Workers, err)
		}
		for _, x := range sys.Order() {
			if !l.Eq(got[x], want[x]) {
				t.Fatalf("rep %d (workers=%d): σ[%v] = %s, want %s",
					rep, pcfg.Workers, x, got[x], want[x])
			}
		}
		if _, post := eqn.IsPostSolution(l, sys, got, init); post != wantPost {
			t.Fatalf("rep %d: IsPostSolution = %v, SW verdict %v", rep, post, wantPost)
		}
	}
}

// oscillatorFarm builds k independent copies of the non-monotone
// oscillator on which plain ⊟ never stabilizes — k divergent strata that
// PSW runs concurrently.
func oscillatorFarm(k int) *eqn.System[string, iv] {
	s := eqn.NewSystem[string, iv]()
	for c := 0; c < k; c++ {
		x := fmt.Sprintf("x%d", c)
		s.Define(x, []string{x}, func(get func(string) iv) iv {
			v := get(x)
			if v.IsEmpty() {
				return lattice.Singleton(0)
			}
			if v.Hi.IsPosInf() {
				return lattice.Range(0, 5)
			}
			return lattice.NewInterval(lattice.Fin(0), v.Hi.Add(lattice.Fin(1)))
		})
	}
	return s
}

// TestPSWBudgetSurfacesFromWorkers: when workers hit the shared evaluation
// budget mid-flight, PSW reports ErrEvalBudget instead of deadlocking, for
// any pool size, and clamps the reported eval count to the budget.
func TestPSWBudgetSurfacesFromWorkers(t *testing.T) {
	l := lattice.Ints
	sys := oscillatorFarm(6)
	for _, workers := range []int{1, 2, 4, 8} {
		_, st, err := PSW(sys, l, Op[string](Warrow[iv](l)), ivInit,
			Config{MaxEvals: 5000, Workers: workers})
		if !errors.Is(err, ErrEvalBudget) {
			t.Fatalf("workers=%d: err = %v, want ErrEvalBudget", workers, err)
		}
		if st.Evals != 5000 {
			t.Errorf("workers=%d: Evals = %d, want clamped to 5000", workers, st.Evals)
		}
	}
}

// TestPSWStatsTopology: the stats expose the decomposition — SCC and
// stratum counts, size/depth histograms, worker count, wall time.
func TestPSWStatsTopology(t *testing.T) {
	l := lattice.Ints
	// Three independent copies of the counting loop: 3 SCCs of size 2
	// ({h,b}) plus 3 singleton exits, in 6 strata.
	sys := eqn.NewSystem[string, iv]()
	for c := 0; c < 3; c++ {
		h, b, e := fmt.Sprintf("h%d", c), fmt.Sprintf("b%d", c), fmt.Sprintf("e%d", c)
		sys.Define(h, []string{b}, func(get func(string) iv) iv {
			return l.Join(lattice.Singleton(0), get(b).Add(lattice.Singleton(1)))
		})
		sys.Define(b, []string{h}, func(get func(string) iv) iv {
			return get(h).RestrictLt(lattice.Singleton(100))
		})
		sys.Define(e, []string{h}, func(get func(string) iv) iv {
			return get(h).RestrictGe(lattice.Singleton(100))
		})
	}
	_, st, err := PSW(sys, l, Op[string](Warrow[iv](l)), ivInit, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.SCCs != 6 {
		t.Errorf("SCCs = %d, want 6", st.SCCs)
	}
	if st.Strata != 6 {
		t.Errorf("Strata = %d, want 6", st.Strata)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.WallNs <= 0 {
		t.Errorf("WallNs = %d, want > 0", st.WallNs)
	}
	if st.SCCSize[1] != 3 { // three SCCs of size 2 land in bucket 1
		t.Errorf("SCCSize = %v, want 3 components in bucket 1", st.SCCSize)
	}
	if st.SCCSize[0] != 3 { // three singleton exits
		t.Errorf("SCCSize = %v, want 3 components in bucket 0", st.SCCSize)
	}
	if st.SCCDepth[0] != 3 || st.SCCDepth[1] != 3 {
		// Loops at depth 1 (bucket 0), exits at depth 2 (bucket 1).
		t.Errorf("SCCDepth = %v, want 3 at depth 1 and 3 at depth 2", st.SCCDepth)
	}
	if st.MaxQueue <= 0 {
		t.Errorf("MaxQueue = %d, want > 0", st.MaxQueue)
	}
}

// TestAddStatsMaxQueue: addStats carries the queue high-water mark via max,
// not sum — two phases over the same system share one queue capacity.
func TestAddStatsMaxQueue(t *testing.T) {
	got := addStats(Stats{Evals: 2, MaxQueue: 7, Unknowns: 5}, Stats{Evals: 3, MaxQueue: 4, Unknowns: 5})
	if got.MaxQueue != 7 {
		t.Errorf("MaxQueue = %d, want 7", got.MaxQueue)
	}
	if got.Evals != 5 {
		t.Errorf("Evals = %d, want 5", got.Evals)
	}
	if got.Unknowns != 5 {
		t.Errorf("Unknowns = %d, want 5", got.Unknowns)
	}
}

// BenchmarkPSW times warm SW and PSW solves with the structured ⊟ on the
// word store, side by side: strataRecipe and an eqgen interval system of
// 4,096 unknowns (seed 7, fan-in 3, about 2,200 strata of a few
// evaluations each), where PSW's per-stratum costs dominate. PSW performs
// exactly SW's evaluations, so the rows differ only in scheduling. The
// shape is memoized by a first solve. Run with -benchmem: allocs/op is the
// per-run cost.
func BenchmarkPSW(b *testing.B) {
	l, op, init := lattice.Ints, WarrowOp[int, lattice.Interval](lattice.Ints), eqn.ConstBottom[int, lattice.Interval](lattice.Ints)
	type run func(*eqn.System[int, lattice.Interval]) (Stats, error)
	pswRow := func(workers int) run {
		return func(sys *eqn.System[int, lattice.Interval]) (Stats, error) {
			_, st, err := PSW(sys, l, op, init, Config{Workers: workers})
			return st, err
		}
	}
	for _, sc := range []struct {
		name string
		cfg  eqgen.Config
	}{
		{"strata/N=2048", strataRecipe},
		{"N=4096", eqgen.Config{Seed: 7, Dom: eqgen.Interval, N: 4096, FanIn: 3}},
	} {
		sys := eqgen.New(sc.cfg).Interval
		for _, row := range []struct {
			name string
			run  run
		}{
			{"sw", func(sys *eqn.System[int, lattice.Interval]) (Stats, error) {
				_, st, err := SW(sys, l, op, init, Config{})
				return st, err
			}},
			{"psw/workers=1", pswRow(1)},
			{"psw/workers=2", pswRow(2)},
		} {
			b.Run(sc.name+"/"+row.name, func(b *testing.B) {
				if _, err := row.run(sys); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				evals := 0
				for i := 0; i < b.N; i++ {
					st, err := row.run(sys)
					if err != nil {
						b.Fatal(err)
					}
					evals += st.Evals
				}
				b.ReportMetric(float64(evals)/float64(b.N), "evals/solve")
			})
		}
	}
}
