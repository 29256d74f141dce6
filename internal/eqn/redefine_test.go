package eqn

import (
	"testing"

	"warrow/internal/lattice"
)

// chainSys builds 0 ← 1 ← 2 ← 3 over intervals: each unknown copies its
// predecessor, unknown 0 is the constant [c, c].
func chainSys(c int64) *System[int, lattice.Interval] {
	sys := NewSystem[int, lattice.Interval]()
	sys.Define(0, nil, func(get func(int) lattice.Interval) lattice.Interval {
		return lattice.Singleton(c)
	})
	for i := 1; i < 4; i++ {
		i := i
		sys.Define(i, []int{i - 1}, func(get func(int) lattice.Interval) lattice.Interval {
			return get(i - 1)
		})
	}
	return sys
}

func TestRedefineUndefinedPanics(t *testing.T) {
	sys := chainSys(1)
	for name, edit := range map[string]func(){
		"Redefine": func() {
			sys.Redefine(99, nil, func(get func(int) lattice.Interval) lattice.Interval {
				return lattice.Singleton(0)
			})
		},
		"AttachRaw": func() { sys.AttachRaw(99, func(func(int) []uint64, []uint64) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of an undefined unknown did not panic", name)
				}
			}()
			edit()
		}()
	}
	if sys.Len() != 4 || len(sys.Index()) != 4 || sys.RawRHSOf(99) != nil {
		t.Fatal("a rejected edit of an undefined unknown changed the system")
	}
}

func TestEditJournal(t *testing.T) {
	sys := chainSys(1)
	v0 := sys.Version()
	if v0 != 4 {
		t.Fatalf("Version after 4 Defines = %d, want 4", v0)
	}
	if got := sys.EditsSince(v0); len(got) != 0 {
		t.Fatalf("EditsSince(now) = %v, want empty", got)
	}

	sys.Redefine(2, []int{1}, func(get func(int) lattice.Interval) lattice.Interval {
		return get(1)
	})
	sys.Define(4, []int{3}, func(get func(int) lattice.Interval) lattice.Interval {
		return get(3)
	})
	if got := sys.Version(); got != v0+2 {
		t.Fatalf("Version after Redefine+Define = %d, want %d", got, v0+2)
	}
	edits := sys.EditsSince(v0)
	if len(edits) != 2 || edits[0] != 2 || edits[1] != 4 {
		t.Fatalf("EditsSince(%d) = %v, want [2 4]", v0, edits)
	}
	// A stale cursor sees the full journal; a future one sees nothing.
	if got := sys.EditsSince(0); len(got) != 6 {
		t.Fatalf("EditsSince(0) = %v, want all 6 edits", got)
	}
	if got := sys.EditsSince(1000); got != nil {
		t.Fatalf("EditsSince(1000) = %v, want nil", got)
	}
}

func TestRedefineSameDepsKeepsShape(t *testing.T) {
	sys := chainSys(1)
	fpBefore := sys.ShapeHash()
	idxBefore := sys.Index()
	inflBefore := sys.Infl()
	adjBefore := sys.DepGraph()

	sys.Redefine(1, []int{0}, func(get func(int) lattice.Interval) lattice.Interval {
		return lattice.Ints.Join(get(0), lattice.Singleton(7))
	})

	if got := sys.ShapeHash(); got != fpBefore {
		t.Fatalf("same-deps Redefine changed ShapeHash %x -> %x", fpBefore, got)
	}
	if !sameIntMap(sys.Index(), idxBefore) {
		t.Fatal("same-deps Redefine changed Index")
	}
	// The memoized maps themselves survive (no invalidation, not a rebuild).
	if len(sys.Infl()) != len(inflBefore) || len(sys.DepGraph()) != len(adjBefore) {
		t.Fatal("same-deps Redefine rebuilt Infl/DepGraph with different contents")
	}

	// The equation itself reflects the edit.
	got := sys.RHS(1)(func(int) lattice.Interval { return lattice.Singleton(1) })
	want := lattice.Ints.Join(lattice.Singleton(1), lattice.Singleton(7))
	if !lattice.Ints.Eq(got, want) {
		t.Fatalf("redefined RHS evaluates to %s, want %s", lattice.Ints.Format(got), lattice.Ints.Format(want))
	}
}

func TestRedefineDepsChangeInvalidatesShape(t *testing.T) {
	sys := chainSys(1)
	fpBefore := sys.ShapeHash()
	idxBefore := sys.Index()

	sys.Redefine(3, []int{2, 0}, func(get func(int) lattice.Interval) lattice.Interval {
		return lattice.Ints.Join(get(2), get(0))
	})

	if got := sys.ShapeHash(); got == fpBefore {
		t.Fatal("deps-changed Redefine kept ShapeHash")
	}
	if got := sys.Deps(3); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("Deps(3) = %v, want [2 0]", got)
	}
	adj := sys.DepGraph()
	if len(adj[3]) != 2 {
		t.Fatalf("DepGraph row 3 = %v, want two edges", adj[3])
	}
	// The linear order never changes, so Index is stable even here.
	if !sameIntMap(sys.Index(), idxBefore) {
		t.Fatal("deps-changed Redefine changed Index")
	}
	// Unknown 0 gained a reader: Infl reflects the new edge.
	found := false
	for _, y := range sys.Infl()[0] {
		if y == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Infl(0) = %v does not include the new reader 3", sys.Infl()[0])
	}
}

// TestRedefineMemoPatched pins the granular-invalidation contract: a
// same-deps Redefine hands memoized shape values implementing RHSPatcher the
// new equation in place, and drops values that don't, while a deps-changed
// Redefine drops everything.
func TestRedefineMemoPatched(t *testing.T) {
	sys := chainSys(1)

	p := &patchRecorder{}
	plain := "opaque"
	got := sys.ShapeMemo("test.patchable", func() any { return p })
	if got != any(p) {
		t.Fatal("ShapeMemo did not store the patchable value")
	}
	sys.ShapeMemo("test.plain", func() any { return plain })

	rhs := func(get func(int) lattice.Interval) lattice.Interval { return lattice.Singleton(9) }
	sys.Redefine(0, nil, rhs)

	if got := sys.ShapeMemo("test.patchable", func() any { return &patchRecorder{} }); got != any(p) {
		t.Fatal("same-deps Redefine dropped a patchable memo value")
	}
	if p.patched != 1 {
		t.Fatalf("patchable memo value patched %d times, want 1", p.patched)
	}
	if p.lastRHS == nil || !lattice.Ints.Eq(p.lastRHS(nil), lattice.Singleton(9)) {
		t.Fatal("patch did not carry the new right-hand side")
	}
	rebuilt := sys.ShapeMemo("test.plain", func() any { return "rebuilt" })
	if rebuilt != any("rebuilt") {
		t.Fatalf("same-deps Redefine kept a non-patchable memo value: %v", rebuilt)
	}

	sys.Redefine(0, []int{1}, func(get func(int) lattice.Interval) lattice.Interval {
		return get(1)
	})
	if got := sys.ShapeMemo("test.patchable", func() any { return "gone" }); got != any("gone") {
		t.Fatal("deps-changed Redefine kept the memo")
	}
}

// patchRecorder is a memoized shape value implementing RHSPatcher: it
// records every patch it receives.
type patchRecorder struct {
	patched int
	lastRHS RHS[int, lattice.Interval]
	lastRaw RawRHS[int]
}

func (p *patchRecorder) PatchRHS(i int, rhs RHS[int, lattice.Interval], raw RawRHS[int]) {
	p.patched++
	p.lastRHS = rhs
	p.lastRaw = raw
}

func sameIntMap(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
