package eqn

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"warrow/internal/lattice"
)

type iv = lattice.Interval

func ivb(string) iv { return lattice.EmptyInterval }

func two() *System[string, iv] {
	s := NewSystem[string, iv]()
	s.Define("a", nil, func(func(string) iv) iv { return lattice.Range(1, 3) })
	s.Define("b", []string{"a"}, func(get func(string) iv) iv {
		return get("a").Add(lattice.Singleton(1))
	})
	return s
}

func TestSystemBasics(t *testing.T) {
	s := two()
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Order(); got[0] != "a" || got[1] != "b" {
		t.Fatalf("Order = %v", got)
	}
	if s.RHS("a") == nil || s.RHS("missing") != nil {
		t.Fatal("RHS lookup")
	}
	if d := s.Deps("b"); len(d) != 1 || d[0] != "a" {
		t.Fatalf("Deps(b) = %v", d)
	}
	if d := s.Deps("missing"); d != nil {
		t.Fatalf("Deps(missing) = %v", d)
	}
	s.AttachRaw("b", func(func(string) []uint64, []uint64) {})
	if s.RawRHSOf("b") == nil || s.RawRHSOf("a") != nil || s.RawRHSOf("missing") != nil {
		t.Fatal("RawRHSOf lookup")
	}
}

func TestEvalReadsInitForAbsent(t *testing.T) {
	s := two()
	v := s.Eval("b", map[string]iv{}, func(string) iv { return lattice.Range(10, 10) })
	if !lattice.Ints.Eq(v, lattice.Singleton(11)) {
		t.Fatalf("Eval(b) = %s", v)
	}
	v = s.Eval("b", map[string]iv{"a": lattice.Range(0, 1)}, ivb)
	if !lattice.Ints.Eq(v, lattice.Range(1, 2)) {
		t.Fatalf("Eval(b) = %s", v)
	}
}

func TestInflSets(t *testing.T) {
	s := two()
	infl := s.Infl()
	has := func(y, x string) bool {
		for _, z := range infl[y] {
			if z == x {
				return true
			}
		}
		return false
	}
	if !has("a", "a") || !has("a", "b") || !has("b", "b") {
		t.Fatalf("Infl = %v", infl)
	}
	if has("b", "a") {
		t.Fatalf("a does not depend on b: %v", infl)
	}

	// Duplicate dependences, self-dependences and dependences on undefined
	// unknowns: every set lists its unknown first (defined unknowns only),
	// then each reader once, by ascending position.
	odd := NewSystem[string, iv]()
	odd.Define("a", []string{"b", "b", "a", "zz"}, nil)
	odd.Define("b", []string{"a", "c", "a"}, nil)
	odd.Define("c", []string{"c", "c"}, nil)
	odd.Define("d", []string{"zz", "a", "zz", "b", "d"}, nil)
	want := map[string][]string{
		"a":  {"a", "b", "d"},
		"b":  {"b", "a", "d"},
		"c":  {"c", "b"},
		"d":  {"d"},
		"zz": {"a", "d"},
	}
	if got := odd.Infl(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Infl = %v, want %v", got, want)
	}

	// The same on random systems dense with such dependences, against the
	// relation's definition; every other system is identity-int, whose
	// build looks nothing up. InflOf over the index-space dependence graph
	// yields the same rows for the defined unknowns.
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		s := NewSystem[int, iv]()
		order := rng.Perm(n)
		if trial%2 == 0 {
			slices.Sort(order)
		}
		for _, x := range order {
			deps := make([]int, rng.IntN(6))
			for k := range deps {
				switch rng.IntN(4) {
				case 0:
					deps[k] = x // self
				case 1:
					deps[k] = n + rng.IntN(3) // undefined
				default:
					deps[k] = rng.IntN(n)
				}
			}
			if len(deps) > 1 && rng.IntN(2) == 0 {
				deps[1] = deps[0] // adjacent duplicate
			}
			s.Define(x, deps, nil)
		}
		if got, want := s.Infl(), inflReference(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Infl = %v, want %v", trial, got, want)
		}
		c := s.InflCSR()
		off, dat := InflOf(s.DepGraph())
		if !slices.Equal(off, c.Off[:n+1]) || !slices.Equal(dat, c.Dat[:c.Off[n]]) {
			t.Fatalf("trial %d: InflOf rows %v/%v, InflCSR %v/%v", trial, off, dat, c.Off, c.Dat)
		}
	}
}

// inflReference is the influence relation by its definition: y itself if
// defined, then every x (in order) whose dependence list mentions y.
func inflReference[X comparable, D any](s *System[X, D]) map[X][]X {
	want := map[X][]X{}
	for _, y := range s.Order() {
		want[y] = []X{y}
	}
	for _, x := range s.Order() {
		for _, y := range s.Deps(x) {
			if y == x {
				continue
			}
			if !slices.Contains(want[y], x) {
				want[y] = append(want[y], x)
			}
		}
	}
	return want
}

func TestIsPostSolution(t *testing.T) {
	s := two()
	good := map[string]iv{"a": lattice.Range(1, 3), "b": lattice.Range(2, 4)}
	if x, ok := IsPostSolution[string, iv](lattice.Ints, s, good, ivb); !ok {
		t.Fatalf("good solution rejected at %v", x)
	}
	bigger := map[string]iv{"a": lattice.Range(0, 5), "b": lattice.Range(1, 9)}
	if _, ok := IsPostSolution[string, iv](lattice.Ints, s, bigger, ivb); !ok {
		t.Fatal("larger post-solution rejected")
	}
	bad := map[string]iv{"a": lattice.Range(1, 3), "b": lattice.Range(2, 3)}
	if x, ok := IsPostSolution[string, iv](lattice.Ints, s, bad, ivb); ok || x != "b" {
		t.Fatalf("bad solution accepted (x=%v ok=%v)", x, ok)
	}
}

func TestIsCombineSolution(t *testing.T) {
	s := two()
	l := lattice.Ints
	exact := map[string]iv{"a": lattice.Range(1, 3), "b": lattice.Range(2, 4)}
	replace := func(_, new iv) iv { return new }
	if x, ok := IsCombineSolution[string, iv](l, replace, s, exact, ivb); !ok {
		t.Fatalf("exact solution rejected for ⊞=replace at %v", x)
	}
	slack := map[string]iv{"a": lattice.Range(1, 4), "b": lattice.Range(2, 5)}
	if _, ok := IsCombineSolution[string, iv](l, replace, s, slack, ivb); ok {
		t.Fatal("non-fixpoint accepted for ⊞=replace")
	}
	if _, ok := IsCombineSolution[string, iv](l, l.Join, s, slack, ivb); !ok {
		t.Fatal("post-solution rejected for ⊞=⊔")
	}
}

func TestIsPartialPostSolution(t *testing.T) {
	s := two()
	pure := s.AsPure()
	full := map[string]iv{"a": lattice.Range(1, 3), "b": lattice.Range(2, 4)}
	if x, ok := IsPartialPostSolution[string, iv](lattice.Ints, pure, full); !ok {
		t.Fatalf("full solution rejected at %v", x)
	}
	// b's right-hand side reads a, which is outside the domain: rejected.
	partial := map[string]iv{"b": lattice.Range(2, 4)}
	if _, ok := IsPartialPostSolution[string, iv](lattice.Ints, pure, partial); ok {
		t.Fatal("domain escape accepted")
	}
	// a alone is self-contained.
	aOnly := map[string]iv{"a": lattice.Range(1, 3)}
	if x, ok := IsPartialPostSolution[string, iv](lattice.Ints, pure, aOnly); !ok {
		t.Fatalf("self-contained partial solution rejected at %v", x)
	}
}

// TestDerivedViewsMemoized pins the memoization contract: Index, Infl and
// DepGraph return the cached storage on repeated calls, Define invalidates
// the Infl and DepGraph caches, and Index — the live position map — gains
// the new unknown in place.
func TestDerivedViewsMemoized(t *testing.T) {
	s := two()
	samePtr := func(a, b any) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	idx, infl, adj := s.Index(), s.Infl(), s.DepGraph()
	if !samePtr(idx, s.Index()) {
		t.Fatal("Index not memoized")
	}
	if !samePtr(infl, s.Infl()) {
		t.Fatal("Infl not memoized")
	}
	if !samePtr(adj, s.DepGraph()) {
		t.Fatal("DepGraph not memoized")
	}

	s.Define("c", []string{"b"}, func(get func(string) iv) iv { return get("b") })
	idx2, infl2, adj2 := s.Index(), s.Infl(), s.DepGraph()
	if samePtr(infl, infl2) || samePtr(adj, adj2) {
		t.Fatal("Define did not invalidate the caches")
	}
	if len(idx2) != 3 || idx2["a"] != 0 || idx2["b"] != 1 || idx2["c"] != 2 {
		t.Fatalf("Index = %v after Define", idx2)
	}
	found := false
	for _, x := range infl2["b"] {
		if x == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Infl[b] = %v misses the new reader c", infl2["b"])
	}
	if len(adj2) != 3 || len(adj2[2]) != 1 || adj2[2][0] != 1 {
		t.Fatalf("DepGraph = %v after Define", adj2)
	}
}

func TestInitHelpers(t *testing.T) {
	cb := ConstBottom[string, iv](lattice.Ints)
	if !cb("x").IsEmpty() {
		t.Fatal("ConstBottom")
	}
	c := Const[string](lattice.Singleton(5))
	if !lattice.Ints.Eq(c("y"), lattice.Singleton(5)) {
		t.Fatal("Const")
	}
}
