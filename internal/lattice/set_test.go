package lattice

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetLaws(t *testing.T) {
	l := NewSetLattice("a", "b", "c")
	samples := []Set[string]{
		NewSet[string](), NewSet("a"), NewSet("b"), NewSet("a", "b"),
		NewSet("a", "b", "c"), NewSet("c"),
	}
	if err := CheckLaws[Set[string]](l, samples); err != nil {
		t.Fatal(err)
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4)
	if u := a.Union(b); u.Len() != 4 || !u.Has(4) || !u.Has(1) {
		t.Errorf("union: %v", u.Elems())
	}
	if i := a.Intersect(b); i.Len() != 1 || !i.Has(3) {
		t.Errorf("intersect: %v", i.Elems())
	}
	if !NewSet(1).Subset(a) || a.Subset(b) {
		t.Error("subset")
	}
	if NewSet[int]().Len() != 0 {
		t.Error("empty set")
	}
}

func TestSetKeyDeterministic(t *testing.T) {
	a := NewSet("x", "y", "z")
	b := NewSet("z", "y", "x")
	if a.Key() != b.Key() {
		t.Errorf("Key not order-independent: %s vs %s", a.Key(), b.Key())
	}
	if a.Key() != "{x,y,z}" {
		t.Errorf("Key = %s", a.Key())
	}
}

func TestSetTopPanicsWithoutUniverse(t *testing.T) {
	var l *SetLattice[int]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Top()
}

// Property: union is commutative, associative, and absorbs subsets.
func TestSetUnionProperties(t *testing.T) {
	mk := func(xs []uint8) Set[uint8] { return NewSet(xs...) }
	f := func(xs, ys, zs []uint8) bool {
		a, b, c := mk(xs), mk(ys), mk(zs)
		l := &SetLattice[uint8]{}
		if !l.Eq(a.Union(b), b.Union(a)) {
			return false
		}
		if !l.Eq(a.Union(b).Union(c), a.Union(b.Union(c))) {
			return false
		}
		return a.Subset(a.Union(b)) && l.Eq(a.Union(a), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapSet is the map-backed Set that the sorted slice replaced, transcribed
// as a test oracle.
type mapSet[T comparable] map[T]struct{}

func newMapSet[T comparable](elems ...T) mapSet[T] {
	m := make(mapSet[T], len(elems))
	for _, e := range elems {
		m[e] = struct{}{}
	}
	return m
}

func (s mapSet[T]) has(e T) bool {
	_, ok := s[e]
	return ok
}

func (s mapSet[T]) union(o mapSet[T]) mapSet[T] {
	m := make(mapSet[T], len(s)+len(o))
	for e := range s {
		m[e] = struct{}{}
	}
	for e := range o {
		m[e] = struct{}{}
	}
	return m
}

func (s mapSet[T]) intersect(o mapSet[T]) mapSet[T] {
	m := make(mapSet[T])
	for e := range s {
		if o.has(e) {
			m[e] = struct{}{}
		}
	}
	return m
}

func (s mapSet[T]) subset(o mapSet[T]) bool {
	for e := range s {
		if !o.has(e) {
			return false
		}
	}
	return true
}

func (s mapSet[T]) eq(o mapSet[T]) bool { return len(s) == len(o) && s.subset(o) }

func (s mapSet[T]) key() string {
	parts := make([]string, 0, len(s))
	for e := range s {
		parts = append(parts, fmt.Sprintf("%v", e))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// setBytes reads a fuzz input one byte at a time, yielding zeros once it
// runs out.
type setBytes []byte

func (b *setBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// setList decodes fewer than limit elements drawn from pick, sorted
// ascending for one input in four so that NewSet also meets sorted input,
// with or without duplicates.
func setList[T cmp.Ordered](b *setBytes, limit int, pick func(int) T) []T {
	xs := make([]T, b.next()%limit)
	for i := range xs {
		xs[i] = pick(b.next())
	}
	if b.next()%4 == 0 {
		slices.Sort(xs)
	}
	return xs
}

// setOpsStrings share prefixes, so that an order or a search comparing
// prefixes instead of whole strings would misplace them.
var setOpsStrings = []string{"", "a", "a\x00", "aa", "ab", "abc", "b", "ba", "bab"}

// checkSetOps decodes two int sets, two string sets and a raw bitset over
// an ascending, an unordered or a repeating universe from data, and checks
// every Set and SetLattice operation on them against the map oracle.
func checkSetOps(t testing.TB, data []byte) {
	t.Helper()
	in := setBytes(data)
	ints := func(c int) int { return c%21 - 10 }
	checkSetPair(t, setList(&in, 13, ints), setList(&in, 13, ints), ints)
	strs := func(c int) string { return setOpsStrings[c%len(setOpsStrings)] }
	checkSetPair(t, setList(&in, 9, strs), setList(&in, 9, strs), strs)
	checkSetRawDecode(t, &in)
}

// checkSetPair compares the sets of xs and ys, and every set the operations
// build from them, with the oracle. pick(0..31) spans the element domain,
// for membership probes.
func checkSetPair[T cmp.Ordered](t testing.TB, xs, ys []T, pick func(int) T) {
	t.Helper()
	xs0, ys0 := slices.Clone(xs), slices.Clone(ys)
	l := &SetLattice[T]{}
	a, b := NewSet(xs...), NewSet(ys...)
	ma, mb := newMapSet(xs...), newMapSet(ys...)
	aElems, bElems := a.Elems(), b.Elems()
	sets, maps := []Set[T]{{}}, []mapSet[T]{{}}
	same := func(what string, got Set[T], want mapSet[T]) {
		t.Helper()
		elems := got.Elems()
		if !strictlyAscending(elems) || got.Len() != len(want) || got.Key() != want.key() || l.Format(got) != want.key() {
			t.Fatalf("%s(%v, %v): got %v (len %d, key %s), oracle %s", what, xs, ys, elems, got.Len(), got.Key(), want.key())
		}
		for i, e := range elems {
			if !want.has(e) || got.At(i) != e {
				t.Fatalf("%s(%v, %v): element %v (At(%d) = %v) is not in the oracle %s", what, xs, ys, e, i, got.At(i), want.key())
			}
		}
		for c := 0; c < 32; c++ {
			if e := pick(c); got.Has(e) != want.has(e) {
				t.Fatalf("%s(%v, %v): Has(%v) = %v, oracle %v", what, xs, ys, e, got.Has(e), want.has(e))
			}
		}
		sets, maps = append(sets, got), append(maps, want)
	}
	same("NewSet", a, ma)
	same("NewSet", b, mb)
	same("Union", a.Union(b), ma.union(mb))
	same("Intersect", a.Intersect(b), ma.intersect(mb))
	same("Join", l.Join(a, b), ma.union(mb))
	same("Meet", l.Meet(b, a), mb.intersect(ma))
	same("Widen", l.Widen(b, a), mb.union(ma))
	same("Narrow", l.Narrow(a, b), mb)
	same("Union(a, a)", a.Union(a), ma)
	same("Intersect(a, ∅)", a.Intersect(Set[T]{}), mapSet[T]{})
	for i, x := range sets {
		for j, y := range sets {
			sub := maps[i].subset(maps[j])
			if x.Subset(y) != sub || l.Leq(x, y) != sub || l.Eq(x, y) != maps[i].eq(maps[j]) {
				t.Fatalf("Subset/Leq/Eq(%s, %s) disagree with the oracle", x.Key(), y.Key())
			}
		}
	}
	if !slices.Equal(a.Elems(), aElems) || !slices.Equal(b.Elems(), bElems) ||
		!slices.Equal(xs, xs0) || !slices.Equal(ys, ys0) {
		t.Fatalf("operations wrote an operand: %v, %v from %v, %v", a.Elems(), b.Elems(), xs, ys)
	}
	if len(xs) > 0 {
		xs[0], aElems[0] = pick(255), pick(254)
		if !slices.Equal(a.Elems(), NewSet(xs0...).Elems()) {
			t.Fatalf("NewSet(%v) or its Elems share storage with the set", xs0)
		}
	}
}

// checkSetRawDecode decodes a bitset over a universe of up to 70 elements
// (two words) that ascends, is a permutation of an ascending one, or
// repeats an element, and compares it with decoding by the oracle: every
// universe position whose bit is set, into a map.
func checkSetRawDecode(t testing.TB, in *setBytes) {
	t.Helper()
	kind, size := in.next()%3, in.next()%70+1
	universe := make([]int, size)
	for i := range universe {
		universe[i] = 3*i - 20
	}
	if kind > 0 {
		for i := size - 1; i > 0; i-- {
			j := in.next() % (i + 1)
			universe[i], universe[j] = universe[j], universe[i]
		}
	}
	if kind == 2 && size > 1 {
		universe[in.next()%size] = universe[in.next()%size]
	}
	l := NewSetLattice(universe...)
	src := make([]uint64, l.RawWords())
	for k := range src {
		for c := 0; c < 8; c++ {
			src[k] = src[k]<<8 | uint64(in.next())
		}
	}
	var members []int
	for i, e := range universe {
		if src[i>>6]&(uint64(1)<<uint(i&63)) != 0 {
			members = append(members, e)
		}
	}
	got, want := l.RawDecode(src), newMapSet(members...)
	if got.Len() != len(want) || got.Key() != want.key() || !strictlyAscending(got.Elems()) {
		t.Fatalf("RawDecode(%x) over %v: got %v, oracle %s", src, universe, got.Elems(), want.key())
	}
}

// strictlyAscending reports the representation invariant of Set: ascending
// and free of duplicates.
func strictlyAscending[T cmp.Ordered](xs []T) bool {
	for i := 1; i < len(xs); i++ {
		if !(xs[i-1] < xs[i]) {
			return false
		}
	}
	return true
}

// TestSetMatchesMapOracle compares the sorted-slice Set with the map oracle
// on random sets of small ints (negatives, duplicates, unsorted and sorted
// input) and of strings sharing prefixes, and RawDecode with it on random
// bitsets.
func TestSetMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	data := make([]byte, 96)
	for i := 0; i < 5000; i++ {
		r.Read(data)
		checkSetOps(t, data)
	}
}

// FuzzSetOps is TestSetMatchesMapOracle driven by the fuzzer; its seed
// corpus is testdata/fuzz/FuzzSetOps.
func FuzzSetOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkSetOps(t, data) })
}

// TestSetAllocs pins the allocations of the set operations: reads and
// comparisons allocate nothing, and every operation that builds a set
// allocates its element slice and nothing else — nothing at all when the
// result is an operand.
func TestSetAllocs(t *testing.T) {
	l := NewSetLattice(0, 1, 2, 3, 4, 5, 6, 7)
	unordered := NewSetLattice(6, 1, 7, 0, 3, 5, 2, 4)
	a, b := NewSet(1, 3, 5, 7), NewSet(0, 1, 2, 3)
	sub, top := NewSet(3, 7), l.Top()
	in := []int{5, 3, 5, 1}
	src := []uint64{0b1011_0110}
	var s Set[int]
	var ok bool
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Has", 0, func() { ok = a.Has(5) }},
		{"At", 0, func() { ok = a.At(2) == 5 }},
		{"Subset", 0, func() { ok = a.Subset(b) }},
		{"Leq", 0, func() { ok = l.Leq(a, b) }},
		{"Eq", 0, func() { ok = l.Eq(a, b) }},
		{"NewSet", 1, func() { s = NewSet(in...) }},
		{"Union", 1, func() { s = a.Union(b) }},
		{"Intersect", 1, func() { s = a.Intersect(b) }},
		{"RawDecode", 1, func() { s = l.RawDecode(src) }},
		{"RawDecode over an unordered universe", 1, func() { s = unordered.RawDecode(src) }},
		{"Union with a subset", 0, func() { s = a.Union(sub) }},
		{"Intersect with a superset", 0, func() { s = a.Intersect(top) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
	_, _ = s, ok
}
