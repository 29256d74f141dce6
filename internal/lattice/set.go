package lattice

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Set is an immutable finite set of ordered elements, an element of the
// powerset lattice ordered by inclusion. It holds its elements in one
// slice, ascending and free of duplicates, which no operation writes once
// the set is built: a value costs one allocation, membership is a binary
// search, and union, intersection and inclusion are merges. The zero value
// is the empty set. Sets are used by the points-to analysis and as context
// components.
//
// The order is that of < on T. A float NaN is not ordered against any
// element, so a float instantiation holding NaN would break it; no
// instantiation uses floats.
type Set[T cmp.Ordered] struct {
	e []T
}

// NewSet returns the set containing the given elements. It copies them
// once, sorting only input that is not already ascending.
func NewSet[T cmp.Ordered](elems ...T) Set[T] {
	if len(elems) == 0 {
		return Set[T]{}
	}
	return Set[T]{e: normalize(slices.Clone(elems))}
}

// normalize brings e into the form a Set holds, ascending and free of
// duplicates, in place: it sorts only e that is not already ascending,
// then drops repeats. Neither step allocates.
func normalize[T cmp.Ordered](e []T) []T {
	if !slices.IsSorted(e) {
		slices.Sort(e)
	}
	return slices.Compact(e)
}

// Len returns the number of elements.
func (s Set[T]) Len() int { return len(s.e) }

// Has reports membership of e.
func (s Set[T]) Has(e T) bool {
	_, ok := slices.BinarySearch(s.e, e)
	return ok
}

// Elems returns the elements in ascending order, in a slice of the
// caller's own.
func (s Set[T]) Elems() []T { return append(make([]T, 0, len(s.e)), s.e...) }

// At returns the element of rank i, counting from the smallest at 0. It
// reads the elements in order without copying them; i must be below Len.
func (s Set[T]) At(i int) T { return s.e[i] }

// Union returns s ∪ o. A union equal to an operand is that operand;
// any other is merged into one allocation.
func (s Set[T]) Union(o Set[T]) Set[T] {
	switch {
	case o.Subset(s):
		return s
	case s.Subset(o):
		return o
	}
	a, b := s.e, o.e
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return Set[T]{e: append(out, b...)}
}

// Intersect returns s ∩ o. An intersection equal to an operand is that
// operand; any other is merged into one allocation.
func (s Set[T]) Intersect(o Set[T]) Set[T] {
	switch {
	case s.Subset(o):
		return s
	case o.Subset(s):
		return o
	}
	a, b := s.e, o.e
	out := make([]T, 0, min(len(a), len(b)))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case b[0] < a[0]:
			b = b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	if len(out) == 0 {
		return Set[T]{}
	}
	return Set[T]{e: out}
}

// Subset reports s ⊆ o.
func (s Set[T]) Subset(o Set[T]) bool {
	if len(s.e) > len(o.e) {
		return false
	}
	j := 0
	for _, e := range s.e {
		for j < len(o.e) && o.e[j] < e {
			j++
		}
		if j == len(o.e) || o.e[j] != e {
			return false
		}
		j++
	}
	return true
}

// Key returns a deterministic string identifying the set's contents, usable
// as a comparable context component. It lists the elements' %v renderings
// sorted as strings, which for numbers is not their numeric order.
func (s Set[T]) Key() string {
	parts := make([]string, len(s.e))
	for i, e := range s.e {
		parts[i] = fmt.Sprintf("%v", e)
	}
	slices.Sort(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// SetLattice is the powerset lattice over T ordered by inclusion. Top is
// not representable for an unbounded universe; Top panics unless the
// lattice was built with a universe via NewSetLattice.
type SetLattice[T cmp.Ordered] struct {
	universe []T
	// elemIdx maps each universe element to its position (first occurrence
	// wins), fixing the bit layout of the raw bitset encoding (raw.go). It
	// is built eagerly so concurrent solvers never race on it.
	elemIdx map[T]int
}

// NewSetLattice returns a powerset lattice whose Top is the given universe.
func NewSetLattice[T cmp.Ordered](universe ...T) *SetLattice[T] {
	l := &SetLattice[T]{universe: slices.Clone(universe)}
	l.elemIdx = make(map[T]int, len(l.universe))
	for i, e := range l.universe {
		if _, ok := l.elemIdx[e]; !ok {
			l.elemIdx[e] = i
		}
	}
	return l
}

// Bottom returns the empty set.
func (*SetLattice[T]) Bottom() Set[T] { return Set[T]{} }

// Top returns the universe; it panics if none was supplied.
func (l *SetLattice[T]) Top() Set[T] {
	if l == nil || l.universe == nil {
		panic("lattice: SetLattice.Top without a universe")
	}
	return NewSet(l.universe...)
}

// Leq reports inclusion.
func (*SetLattice[T]) Leq(a, b Set[T]) bool { return a.Subset(b) }

// Eq reports set equality.
func (*SetLattice[T]) Eq(a, b Set[T]) bool { return slices.Equal(a.e, b.e) }

// Join returns the union.
func (*SetLattice[T]) Join(a, b Set[T]) Set[T] { return a.Union(b) }

// Meet returns the intersection.
func (*SetLattice[T]) Meet(a, b Set[T]) Set[T] { return a.Intersect(b) }

// Widen joins; sound as widening only for finite universes (finite
// ascending chains). Points-to universes are finite per program.
func (*SetLattice[T]) Widen(a, b Set[T]) Set[T] { return a.Union(b) }

// Narrow returns b.
func (*SetLattice[T]) Narrow(a, b Set[T]) Set[T] { return b }

// Format renders a set with sorted element strings.
func (*SetLattice[T]) Format(a Set[T]) string { return a.Key() }
