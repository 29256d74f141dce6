package eqn

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"
)

// shapeKey is a struct-typed unknown, rendered by ShapeHash through fmt.
type shapeKey struct {
	Fn  string
	Pos int
}

// goldenShapes are the systems whose fingerprints TestShapeHashGolden pins:
// one per rendering path (int, string, and the fmt fallback), with
// duplicate, self and undefined dependences, negative ints, and strings
// containing the separator bytes.
func goldenShapes() (*System[int, int], *System[string, int], *System[shapeKey, int]) {
	is := NewSystem[int, int]()
	is.Define(0, []int{1, 1, 99}, nil)
	is.Define(1, []int{0, 1, -7}, nil)
	is.Define(2, nil, nil)
	is.Define(-3, []int{2, -3, 0}, nil)
	ss := NewSystem[string, int]()
	ss.Define("entry", []string{"loop", "undefined"}, nil)
	ss.Define("loop", []string{"entry", "loop", "loop"}, nil)
	ss.Define("x,y;z", []string{"", "loop"}, nil)
	ss.Define("", nil, nil)
	ks := NewSystem[shapeKey, int]()
	ks.Define(shapeKey{"main", 0}, []shapeKey{{"main", 1}}, nil)
	ks.Define(shapeKey{"main", 1}, []shapeKey{{"main", 0}, {"f", 3}, {"main", 1}}, nil)
	ks.Define(shapeKey{"f", 3}, []shapeKey{{"main", 0}}, nil)
	return is, ss, ks
}

// TestShapeHashGolden pins the fingerprints checkpoints carry on the wire:
// a change of the hashed bytes would strand every checkpoint already
// handed out. The literals were computed by the original fmt.Fprintf
// rendering of the shape.
func TestShapeHashGolden(t *testing.T) {
	is, ss, ks := goldenShapes()
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"int", is.ShapeHash(), 0x430e64b123f2fc1b},
		{"string", ss.ShapeHash(), 0x9eafa9b3716bd105},
		{"struct", ks.ShapeHash(), 0x39f8e316e70dc1f7},
	} {
		if tc.got != tc.want {
			t.Errorf("%s-keyed ShapeHash = %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
}

// fprintfShapeHash is the reference rendering: two fmt.Fprintf calls per
// key, exactly the bytes ShapeHash must feed FNV.
func fprintfShapeHash[X comparable, D any](s *System[X, D]) uint64 {
	h := fnv.New64a()
	for _, x := range s.Order() {
		fmt.Fprintf(h, "%v;", x)
		for _, d := range s.Deps(x) {
			fmt.Fprintf(h, "%v,", d)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestShapeHashMatchesFprintf holds the fast renderings to the fmt one on
// random int and string systems, negative and out-of-system keys included.
func TestShapeHashMatchesFprintf(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(30)
		is := NewSystem[int, int]()
		ss := NewSystem[string, int]()
		for i := 0; i < n; i++ {
			x := i - n/2
			deps := make([]int, rng.IntN(5))
			sdeps := make([]string, len(deps))
			for k := range deps {
				deps[k] = rng.IntN(2*n+1) - n
				sdeps[k] = fmt.Sprintf("v%d;,%d", deps[k], k)
			}
			is.Define(x, deps, nil)
			ss.Define(fmt.Sprintf("v%d", x), sdeps, nil)
		}
		if got, want := is.ShapeHash(), fprintfShapeHash(is); got != want {
			t.Fatalf("trial %d: int ShapeHash %#x, fmt rendering %#x", trial, got, want)
		}
		if got, want := ss.ShapeHash(), fprintfShapeHash(ss); got != want {
			t.Fatalf("trial %d: string ShapeHash %#x, fmt rendering %#x", trial, got, want)
		}
	}
	_, _, ks := goldenShapes()
	if got, want := ks.ShapeHash(), fprintfShapeHash(ks); got != want {
		t.Fatalf("struct ShapeHash %#x, fmt rendering %#x", got, want)
	}
}

// defineAt builds the system Define makes from the unknowns of s at pos, in
// that order, with their full dependence lists.
func defineAt[X comparable, D any](s *System[X, D], pos []int) *System[X, D] {
	sub := NewSystem[X, D]()
	for _, i := range pos {
		x := s.Order()[i]
		sub.Define(x, s.Deps(x), s.RHS(x))
	}
	return sub
}

// TestShapeHashOf: the positions form hashes exactly the system Define
// builds from the unknowns at those positions — dependences on unknowns
// left out included — for every key rendering, and on all positions
// equals ShapeHash itself. No positions, nil or empty, is the empty
// system, as for an empty cone.
func TestShapeHashOf(t *testing.T) {
	is, ss, ks := goldenShapes()
	for _, pos := range [][]int{{0, 1, 2, 3}, {1, 3}, {2}, {}, nil, {3, 0}} {
		if got, want := is.ShapeHashOf(pos), defineAt(is, pos).ShapeHash(); got != want {
			t.Errorf("int positions %v: ShapeHashOf %#x, Define's system %#x", pos, got, want)
		}
		if got, want := ss.ShapeHashOf(pos), defineAt(ss, pos).ShapeHash(); got != want {
			t.Errorf("string positions %v: ShapeHashOf %#x, Define's system %#x", pos, got, want)
		}
		// The struct-keyed system has three unknowns.
		if !slices.Contains(pos, 3) {
			if got, want := ks.ShapeHashOf(pos), defineAt(ks, pos).ShapeHash(); got != want {
				t.Errorf("struct positions %v: ShapeHashOf %#x, Define's system %#x", pos, got, want)
			}
		}
	}
	if got, want := is.ShapeHashOf([]int{0, 1, 2, 3}), is.ShapeHash(); got != want {
		t.Fatalf("ShapeHashOf on every position = %#x, ShapeHash %#x", got, want)
	}
}
