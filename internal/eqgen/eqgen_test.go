package eqgen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// TestShapeDeterminism: the same config yields the same shape, and solving
// two independently generated instances yields the same solution and work —
// the property every failing seed relies on to be a reproduction recipe.
func TestShapeDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, N: 30, NonMonoDensity: 0.3, ForwardDensity: 0.2}
	a, b := BuildShape(cfg), BuildShape(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shapes differ for identical config:\n%+v\n%+v", a, b)
	}
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	op := solver.Op[int](solver.Warrow[lattice.Interval](l))
	scfg := solver.Config{MaxEvals: 100_000}
	s1, st1, err1 := solver.SW(IntervalSystem(a), l, op, init, scfg)
	s2, st2, err2 := solver.SW(IntervalSystem(b), l, op, init, scfg)
	if (err1 == nil) != (err2 == nil) || st1 != st2 {
		t.Fatalf("independent instances solved differently: %v/%+v vs %v/%+v", err1, st1, err2, st2)
	}
	for x, v := range s1 {
		if !l.Eq(v, s2[x]) {
			t.Fatalf("x%d: %s vs %s", x, l.Format(v), l.Format(s2[x]))
		}
	}
}

// TestShapeStructure: blocks partition [0, N), dependences stay in range and
// are deduplicated, and declared dependences exactly cover the reads the
// right-hand sides perform.
func TestShapeStructure(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := BuildShape(Config{Seed: seed, N: 25, ForwardDensity: 0.3, NonMonoDensity: 0.4})
		n := s.Cfg.N
		next := 0
		for _, b := range s.Blocks {
			if b[0] != next || b[1] < b[0] || b[1] >= n {
				t.Fatalf("seed %d: bad block %v (expected lo=%d)", seed, b, next)
			}
			next = b[1] + 1
		}
		if next != n {
			t.Fatalf("seed %d: blocks cover [0,%d), want [0,%d)", seed, next, n)
		}
		for i, ds := range s.Deps {
			seen := map[int]bool{}
			for _, d := range ds {
				if d < 0 || d >= n {
					t.Fatalf("seed %d: dep x%d -> x%d out of range", seed, i, d)
				}
				if seen[d] {
					t.Fatalf("seed %d: duplicate dep x%d -> x%d", seed, i, d)
				}
				seen[d] = true
			}
			if s.NonMono[i] >= len(ds) {
				t.Fatalf("seed %d: NonMono[%d]=%d out of deps range", seed, i, s.NonMono[i])
			}
		}
		// Reads match declared deps: count get calls per unknown.
		sys := IntervalSystem(s)
		for _, x := range sys.Order() {
			reads := map[int]bool{}
			sys.RHS(x)(func(y int) lattice.Interval {
				reads[y] = true
				return lattice.EmptyInterval
			})
			for y := range reads {
				found := false
				for _, d := range sys.Deps(x) {
					if d == y {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d: x%d reads undeclared x%d", seed, x, y)
				}
			}
		}
	}
}

// TestSCCControllability: full cycle density closes every multi-unknown
// block into a back edge; zero density leaves the graph acyclic apart from
// self-loops; full forward density produces forward cross-block edges.
func TestSCCControllability(t *testing.T) {
	s := BuildShape(Config{Seed: 7, N: 40, MaxSCC: 5, CycleDensity: 1})
	multi := 0
	for _, b := range s.Blocks {
		if b[1] == b[0] {
			continue
		}
		multi++
		hasBack := false
		for _, d := range s.Deps[b[0]] {
			if d == b[1] {
				hasBack = true
			}
		}
		if !hasBack {
			t.Errorf("cycle density 1: block %v not closed", b)
		}
	}
	if multi == 0 {
		t.Fatal("expected at least one multi-unknown block")
	}

	// FanIn -1 clamps to 0 so only structural edges remain, isolating the
	// cycle-density knob (random extra edges may close a block on their own).
	s = BuildShape(Config{Seed: 7, N: 40, MaxSCC: 5, CycleDensity: 0.000001, FanIn: -1})
	for _, b := range s.Blocks {
		for _, d := range s.Deps[b[0]] {
			if d == b[1] && b[1] > b[0] {
				t.Errorf("cycle density ~0: block %v closed", b)
			}
		}
	}

	s = BuildShape(Config{Seed: 7, N: 40, MaxSCC: 4, ForwardDensity: 1})
	forward := 0
	for i, ds := range s.Deps {
		for _, d := range ds {
			if d > i {
				// Forward within a block is structural; count only
				// cross-block forwards.
				sameBlock := false
				for _, b := range s.Blocks {
					if i >= b[0] && i <= b[1] && d >= b[0] && d <= b[1] {
						sameBlock = true
					}
				}
				if !sameBlock {
					forward++
				}
			}
		}
	}
	if forward == 0 {
		t.Error("forward density 1: no cross-block forward dependences generated")
	}
}

// TestDefaultsClampHostileInputs: arbitrary fuzz-supplied configs must be
// safe to generate from.
func TestDefaultsClampHostileInputs(t *testing.T) {
	hostile := Config{
		Seed: 1, N: -5, FanIn: 1 << 30, MaxSCC: -1,
		CycleDensity: -3, WidenDensity: 2e9, NonMonoDensity: -0.1, ForwardDensity: 7,
	}
	c := hostile.Defaults()
	if c.N < 1 || c.N > 4096 || c.FanIn < 0 || c.FanIn > 8 || c.MaxSCC < 1 || c.MaxSCC > c.N {
		t.Fatalf("bad clamp: %+v", c)
	}
	for _, p := range []float64{c.CycleDensity, c.WidenDensity, c.NonMonoDensity, c.ForwardDensity} {
		if p < 0 || p > 1 {
			t.Fatalf("bad probability clamp: %+v", c)
		}
	}
	// Must generate without panicking.
	_ = New(Config{Seed: 1, N: -5, FanIn: 1 << 30})
}

// TestAllDomainsSolvable: a monotonic config terminates under SW+⊟ in every
// domain (Theorem 2) and the solution stays within the domain's bounds.
func TestAllDomainsSolvable(t *testing.T) {
	for dom := Interval; dom <= Powerset; dom++ {
		for seed := uint64(1); seed <= 5; seed++ {
			g := New(Config{Seed: seed, Dom: dom, N: 16})
			cfg := solver.Config{MaxEvals: 200_000}
			var err error
			switch dom {
			case Interval:
				l := lattice.Ints
				_, _, err = solver.SW(g.Interval, l, solver.Op[int](solver.Warrow[lattice.Interval](l)),
					eqn.ConstBottom[int, lattice.Interval](l), cfg)
			case Flat:
				l := FlatL
				_, _, err = solver.SW(g.Flat, l, solver.Op[int](solver.Warrow[lattice.Flat[int64]](l)),
					eqn.ConstBottom[int, lattice.Flat[int64]](l), cfg)
			case Powerset:
				l := PowersetL()
				_, _, err = solver.SW(g.Powerset, l, solver.Op[int](solver.Warrow[lattice.Set[int]](l)),
					eqn.ConstBottom[int, lattice.Set[int]](l), cfg)
			}
			if err != nil {
				t.Errorf("dom %s seed %d: monotonic system did not stabilize: %v", dom, seed, err)
			}
		}
	}
}

// TestRawRHSAgreement: the fused raw right-hand sides attached by the domain
// builders compute, word for word, the canonical encoding of what the boxed
// right-hand sides compute — on random assignments drawn from the values a
// solve can reach, non-monotonic flips and growth terms included. This is
// the contract the unboxed solver core relies on for bit identity.
func TestRawRHSAgreement(t *testing.T) {
	const rounds = 25
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := Config{Seed: seed, N: 24, NonMonoDensity: 0.4, ForwardDensity: 0.3}
		shape := BuildShape(cfg)
		r := &rng{s: seed ^ 0x5bf03635}

		t.Run("interval", func(t *testing.T) {
			sys := IntervalSystem(shape)
			l := lattice.Ints
			raw := lattice.AsRaw[lattice.Interval](l)
			n := cfg.N
			randIv := func() lattice.Interval {
				switch r.intn(6) {
				case 0:
					return lattice.EmptyInterval
				case 1:
					return lattice.FullInterval
				case 2:
					return lattice.NewInterval(lattice.NegInf, lattice.Fin(int64(r.intn(1100)-100)))
				case 3:
					return lattice.NewInterval(lattice.Fin(int64(r.intn(1100)-100)), lattice.PosInf)
				default:
					lo := int64(r.intn(1200) - 100)
					hi := lo + int64(r.intn(64))
					return lattice.Range(lo, hi)
				}
			}
			for round := 0; round < rounds; round++ {
				vals := make([]lattice.Interval, n)
				words := make([]uint64, 2*n)
				for i := range vals {
					vals[i] = randIv()
					raw.RawEncode(words[2*i:2*i+2], vals[i])
				}
				get := func(y int) lattice.Interval { return vals[y] }
				getRaw := func(y int) []uint64 { return words[2*y : 2*y+2] }
				dst, want := make([]uint64, 2), make([]uint64, 2)
				for _, x := range sys.Order() {
					rf := sys.RawRHSOf(x)
					if rf == nil {
						t.Fatalf("seed %d: x%d has no raw RHS", seed, x)
					}
					rf(getRaw, dst)
					raw.RawEncode(want, sys.RHS(x)(get))
					if dst[0] != want[0] || dst[1] != want[1] {
						t.Fatalf("seed %d round %d x%d: raw %v boxed %v", seed, round, x, dst, want)
					}
				}
			}
		})

		t.Run("flat", func(t *testing.T) {
			sys := FlatSystem(shape)
			raw := lattice.AsRaw[lattice.Flat[int64]](FlatL)
			n := cfg.N
			randFlat := func() lattice.Flat[int64] {
				switch r.intn(4) {
				case 0:
					return lattice.Flat[int64]{Kind: lattice.FlatBot}
				case 1:
					return lattice.Flat[int64]{Kind: lattice.FlatTop}
				default:
					return lattice.FlatOf(int64(r.intn(17)))
				}
			}
			for round := 0; round < rounds; round++ {
				vals := make([]lattice.Flat[int64], n)
				words := make([]uint64, 2*n)
				for i := range vals {
					vals[i] = randFlat()
					raw.RawEncode(words[2*i:2*i+2], vals[i])
				}
				get := func(y int) lattice.Flat[int64] { return vals[y] }
				getRaw := func(y int) []uint64 { return words[2*y : 2*y+2] }
				dst, want := make([]uint64, 2), make([]uint64, 2)
				for _, x := range sys.Order() {
					rf := sys.RawRHSOf(x)
					if rf == nil {
						t.Fatalf("seed %d: x%d has no raw RHS", seed, x)
					}
					rf(getRaw, dst)
					raw.RawEncode(want, sys.RHS(x)(get))
					if dst[0] != want[0] || dst[1] != want[1] {
						t.Fatalf("seed %d round %d x%d: raw %v boxed %v", seed, round, x, dst, want)
					}
				}
			}
		})

		t.Run("powerset", func(t *testing.T) {
			sys := PowersetSystem(shape)
			l := PowersetL()
			raw := lattice.AsRaw[lattice.Set[int]](l)
			n := cfg.N
			for round := 0; round < rounds; round++ {
				vals := make([]lattice.Set[int], n)
				words := make([]uint64, n)
				for i := range vals {
					var elems []int
					bits := r.next() & 0xFFFF
					for e := 0; e < powersetUniverse; e++ {
						if bits>>e&1 == 1 {
							elems = append(elems, e)
						}
					}
					vals[i] = lattice.NewSet(elems...)
					raw.RawEncode(words[i:i+1], vals[i])
				}
				get := func(y int) lattice.Set[int] { return vals[y] }
				getRaw := func(y int) []uint64 { return words[y : y+1] }
				dst, want := make([]uint64, 1), make([]uint64, 1)
				for _, x := range sys.Order() {
					rf := sys.RawRHSOf(x)
					if rf == nil {
						t.Fatalf("seed %d: x%d has no raw RHS", seed, x)
					}
					rf(getRaw, dst)
					raw.RawEncode(want, sys.RHS(x)(get))
					if dst[0] != want[0] {
						t.Fatalf("seed %d round %d x%d: raw %#x boxed %#x", seed, round, x, dst[0], want[0])
					}
				}
			}
		})
	}
}

// TestGiantSCC: the GiantSCC knob yields one leading component covering the
// requested fraction of unknowns — verified against the solver's own Tarjan
// via stratify-style reachability, deterministic, and with FanIn providing
// intra-component cross edges; GiantSCC = 0 leaves generation untouched.
func TestGiantSCC(t *testing.T) {
	cfg := Config{Seed: 7, N: 100, GiantSCC: 0.9, FanIn: 3}
	s := BuildShape(cfg)
	if got := len(s.Blocks[0]); got != 2 {
		t.Fatalf("malformed block: %v", s.Blocks[0])
	}
	if lo, hi := s.Blocks[0][0], s.Blocks[0][1]; lo != 0 || hi != 89 {
		t.Fatalf("giant block = [%d,%d], want [0,89] (ceil(0.9·100) unknowns)", lo, hi)
	}
	// The giant block is one cycle: i reads i-1, 0 reads 89.
	for i := 1; i <= 89; i++ {
		found := false
		for _, d := range s.Deps[i] {
			if d == i-1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("chain edge %d→%d missing", i, i-1)
		}
	}
	back := false
	for _, d := range s.Deps[0] {
		if d == 89 {
			back = true
		}
	}
	if !back {
		t.Fatal("cycle-closing edge 0→89 missing")
	}
	// FanIn inside the giant block lands within [0, 89]: intra-SCC cross
	// edges, and at least one unknown has more than its chain edge.
	cross := 0
	for i := 0; i <= 89; i++ {
		for _, d := range s.Deps[i] {
			if d > 89 {
				t.Fatalf("dep %d→%d escapes the giant block forward", i, d)
			}
			if i > 0 && d != i-1 {
				cross++
			}
		}
	}
	if cross == 0 {
		t.Fatal("FanIn produced no intra-SCC cross edges")
	}
	// Determinism.
	if !reflect.DeepEqual(s, BuildShape(cfg)) {
		t.Fatal("GiantSCC shapes differ for identical config")
	}
	// The generated interval system really condenses to one giant SCC of
	// the requested coverage: count the largest mutually-reachable set via
	// the chain+back edges' transitive closure over the dependence graph.
	g := New(cfg)
	adj := g.Interval.DepGraph()
	inCycle := 0
	for i := range adj {
		if i <= 89 {
			inCycle++
		}
	}
	if frac := float64(inCycle) / float64(len(adj)); frac < 0.9 {
		t.Fatalf("giant component covers %.2f of unknowns, want ≥ 0.9", frac)
	}
	// Zero knob: byte-identical to the pre-knob generator stream.
	base := Config{Seed: 7, N: 100, FanIn: 3}
	if !reflect.DeepEqual(BuildShape(base), BuildShape(Config{Seed: 7, N: 100, FanIn: 3, GiantSCC: 0})) {
		t.Fatal("GiantSCC=0 perturbed generation")
	}
	// The recipe renders the knob.
	if got := cfg.Defaults().String(); !strings.Contains(got, "giant=0.90") {
		t.Fatalf("recipe %q does not render the giant knob", got)
	}
}

// TestConcurrentUnboxedSolves runs four unboxed SW solves of one generated
// system at once — eqn.System supports concurrent solves, so the fused
// right-hand sides must be reentrant. Under -race a scratch buffer shared
// by the calls of one equation is reported; without it the four results
// must still equal a sequential solve's.
func TestConcurrentUnboxedSolves(t *testing.T) {
	for _, dom := range []Domain{Interval, Flat, Powerset} {
		g := New(Config{Seed: 17, Dom: dom, N: 200, WidenDensity: 0.5, NonMonoDensity: 0.2})
		var err error
		switch {
		case g.Flat != nil:
			err = concurrentSolves(g.Flat, FlatL)
		case g.Powerset != nil:
			err = concurrentSolves(g.Powerset, PowersetL())
		default:
			err = concurrentSolves(g.Interval, lattice.Ints)
		}
		if err != nil {
			t.Errorf("%s: %v", dom, err)
		}
	}
}

func concurrentSolves[D any](sys *eqn.System[int, D], l lattice.Lattice[D]) error {
	op := solver.WarrowOp[int, D](l)
	init := eqn.ConstBottom[int, D](l)
	cfg := solver.Config{Core: solver.CoreUnboxed, MaxEvals: 1_000_000}
	want, wantSt, err := solver.SW(sys, l, op, init, cfg)
	if err != nil {
		return err
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	for k := 0; k < goroutines; k++ {
		go func() {
			got, st, err := solver.SW(sys, l, op, init, cfg)
			switch {
			case err != nil:
				errs <- err
			case st != wantSt:
				errs <- fmt.Errorf("concurrent solve stats %+v, sequential %+v", st, wantSt)
			default:
				for x, v := range want {
					if !l.Eq(got[x], v) {
						errs <- fmt.Errorf("concurrent solve differs at %d", x)
						return
					}
				}
				errs <- nil
			}
		}()
	}
	for k := 0; k < goroutines; k++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}
