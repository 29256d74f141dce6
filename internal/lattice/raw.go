// Raw value encodings: fixed-width machine-word representations of lattice
// elements, the value-axis counterpart of the solver's dense index core.
//
// A lattice that implements Raw[D] can represent every element it will ever
// produce as RawWords() consecutive uint64 words, with all lattice
// operations running directly on word slices — no interface boxing, no
// per-operation heap allocation. The encodings are canonical: two elements
// are Eq exactly when their encodings are word-for-word equal, which is
// what lets RawEq be a plain word comparison and keeps the unboxed solver
// core bit-identical to the boxed ones (see DESIGN.md §11).
//
// Encodings:
//
//   - Interval: two words holding the bounds as int64 bit patterns, with
//     the sentinel patterns of Ext mapped order-preservingly — -∞ is
//     math.MinInt64, +∞ is math.MaxInt64, finite v is v itself. The empty
//     interval is the pair (+∞, -∞), i.e. lo > hi, which no non-empty
//     interval can exhibit. The two finite values MinInt64 and MaxInt64
//     collide with the sentinels and are unencodable; RawEncode panics on
//     them rather than corrupt values silently.
//   - Flat[int64]: two words, kind and value (value word is 0 unless the
//     kind is FlatVal, keeping the encoding canonical).
//   - Sign, Parity: one word holding the bitset.
//   - Set[T] (with a universe): ⌈|universe|/64⌉ words, bit i meaning
//     universe[i] is a member.
//
// All ternary operations tolerate dst aliasing a or b (they read their
// inputs before writing dst), so solvers can update values in place.
package lattice

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrUnencodable is the error every raw-layer panic over an unrepresentable
// value wraps: a finite interval bound at the int64 extremes (encoded, or
// produced by raw arithmetic where the boxed form would yield it), or a set
// element outside the universe. The solvers' recover barrier keeps the
// chain, so a caller can tell such an abort from a failing equation with
// errors.Is and redo the solve on a boxed core, which holds every value.
var ErrUnencodable = errors.New("lattice: value has no raw encoding")

// Raw is implemented by lattices whose elements admit a fixed-width word
// encoding. dst, a and b are always RawWords() long; dst may alias a or b.
type Raw[D any] interface {
	// RawWords is the number of uint64 words per element (the stride).
	RawWords() int
	// RawEncode writes the canonical encoding of d into dst. It panics on
	// elements the encoding cannot represent (see the package comment).
	RawEncode(dst []uint64, d D)
	// RawDecode reads an element back. Decode inverts Encode exactly.
	RawDecode(src []uint64) D
	// RawBottom writes the encoding of the bottom element.
	RawBottom(dst []uint64)
	// RawLeq, RawEq, RawJoin, RawMeet, RawWiden and RawNarrow mirror the
	// boxed lattice operations bit for bit on encoded arguments.
	RawLeq(a, b []uint64) bool
	RawEq(a, b []uint64) bool
	RawJoin(dst, a, b []uint64)
	RawMeet(dst, a, b []uint64)
	RawWiden(dst, a, b []uint64)
	RawNarrow(dst, a, b []uint64)
}

// rawGated lets a Raw implementation veto its own use for instances whose
// configuration the encoding cannot honor (an interval lattice with
// unencodable thresholds, a set lattice without a universe).
type rawGated interface {
	rawOK() bool
}

// AsRaw resolves the raw encoding of a lattice instance, or nil when the
// instance has none. It recognizes direct implementations, the
// FlatLattice[int64] instantiation, and JoinWiden wrappers around any of
// those (the wrapper's Widen = Join and Narrow = b are translated to the
// raw layer).
func AsRaw[D any](l Lattice[D]) Raw[D] {
	if r := asRawDirect[D](l); r != nil {
		return r
	}
	if jw, ok := any(l).(JoinWiden[D]); ok {
		if inner := asRawDirect[D](jw.Inner); inner != nil {
			return joinWidenRaw[D]{inner: inner}
		}
	}
	return nil
}

// asRawDirect resolves l itself, without unwrapping combinators.
func asRawDirect[D any](l any) Raw[D] {
	if l == nil {
		return nil
	}
	if _, ok := l.(FlatLattice[int64]); ok {
		// FlatLattice is generic and Go cannot attach methods to one
		// instantiation, so the int64 case routes through a dedicated
		// wrapper type.
		r, _ := any(flatInt64Raw{}).(Raw[D])
		return r
	}
	r, ok := l.(Raw[D])
	if !ok {
		return nil
	}
	if g, gated := l.(rawGated); gated && !g.rawOK() {
		return nil
	}
	return r
}

// joinWidenRaw adapts an inner raw encoding to the JoinWiden combinator.
type joinWidenRaw[D any] struct {
	inner Raw[D]
}

func (w joinWidenRaw[D]) RawWords() int                { return w.inner.RawWords() }
func (w joinWidenRaw[D]) RawEncode(dst []uint64, d D)  { w.inner.RawEncode(dst, d) }
func (w joinWidenRaw[D]) RawDecode(src []uint64) D     { return w.inner.RawDecode(src) }
func (w joinWidenRaw[D]) RawBottom(dst []uint64)       { w.inner.RawBottom(dst) }
func (w joinWidenRaw[D]) RawLeq(a, b []uint64) bool    { return w.inner.RawLeq(a, b) }
func (w joinWidenRaw[D]) RawEq(a, b []uint64) bool     { return w.inner.RawEq(a, b) }
func (w joinWidenRaw[D]) RawJoin(dst, a, b []uint64)   { w.inner.RawJoin(dst, a, b) }
func (w joinWidenRaw[D]) RawMeet(dst, a, b []uint64)   { w.inner.RawMeet(dst, a, b) }
func (w joinWidenRaw[D]) RawWiden(dst, a, b []uint64)  { w.inner.RawJoin(dst, a, b) }
func (w joinWidenRaw[D]) RawNarrow(dst, a, b []uint64) { copy(dst, b) }

// ---------------------------------------------------------------------------
// Interval: two words, bounds as order-preserving int64 bit patterns.

// rawExtEncode maps an Ext bound to its word: the mapping preserves order,
// so bound comparisons on words are plain signed comparisons.
func rawExtEncode(e Ext) int64 {
	if e.IsFinite() {
		v := e.Int()
		if v == math.MinInt64 || v == math.MaxInt64 {
			panic(fmt.Errorf("%w: finite interval bound %d collides with the ±∞ sentinel encoding; use the boxed core for values at the int64 extremes", ErrUnencodable, v))
		}
		return v
	}
	if e.IsNegInf() {
		return math.MinInt64
	}
	return math.MaxInt64
}

// rawExtDecode inverts rawExtEncode.
func rawExtDecode(w int64) Ext {
	switch w {
	case math.MinInt64:
		return NegInf
	case math.MaxInt64:
		return PosInf
	default:
		return Fin(w)
	}
}

// rawIntervalSetEmpty writes the canonical empty sentinel (+∞, -∞): the
// only encoding with lo > hi, so emptiness tests are a single comparison.
func rawIntervalSetEmpty(dst []uint64) {
	dst[0] = uint64(math.MaxInt64)
	dst[1] = uint64(1) << 63 // bit pattern of math.MinInt64
}

// RawWords implements Raw: an interval is a (lo, hi) word pair.
func (l *IntervalLattice) RawWords() int { return 2 }

// rawOK vetoes instances whose thresholds collide with the sentinels.
func (l *IntervalLattice) rawOK() bool {
	for _, t := range l.thresholds {
		if t == math.MinInt64 || t == math.MaxInt64 {
			return false
		}
	}
	return true
}

// RawEncode implements Raw.
func (l *IntervalLattice) RawEncode(dst []uint64, d Interval) {
	if d.IsEmpty() {
		rawIntervalSetEmpty(dst)
		return
	}
	dst[0] = uint64(rawExtEncode(d.Lo))
	dst[1] = uint64(rawExtEncode(d.Hi))
}

// RawDecode implements Raw.
func (l *IntervalLattice) RawDecode(src []uint64) Interval {
	lo, hi := int64(src[0]), int64(src[1])
	if lo > hi {
		return EmptyInterval
	}
	return Interval{Lo: rawExtDecode(lo), Hi: rawExtDecode(hi), nonEmpty: true}
}

// RawBottom implements Raw.
func (l *IntervalLattice) RawBottom(dst []uint64) { rawIntervalSetEmpty(dst) }

// RawLeq implements Raw.
func (l *IntervalLattice) RawLeq(a, b []uint64) bool { return RawIntervalLeq(a, b) }

// RawEq implements Raw: encodings are canonical, so equality is word
// equality.
func (l *IntervalLattice) RawEq(a, b []uint64) bool { return a[0] == b[0] && a[1] == b[1] }

// RawJoin implements Raw.
func (l *IntervalLattice) RawJoin(dst, a, b []uint64) { RawIntervalJoin(dst, a, b) }

// RawMeet implements Raw.
func (l *IntervalLattice) RawMeet(dst, a, b []uint64) { RawIntervalMeet(dst, a, b) }

// RawWiden implements Raw, honoring the instance's widening thresholds
// exactly like the boxed Widen.
func (l *IntervalLattice) RawWiden(dst, a, b []uint64) {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi {
		dst[0], dst[1] = b[0], b[1]
		return
	}
	if blo > bhi {
		dst[0], dst[1] = uint64(alo), uint64(ahi)
		return
	}
	lo := alo
	if blo < alo {
		lo = l.rawWidenLo(blo)
	}
	hi := ahi
	if ahi < bhi {
		hi = l.rawWidenHi(bhi)
	}
	dst[0], dst[1] = uint64(lo), uint64(hi)
}

// rawWidenLo mirrors widenLo on words: the largest threshold ≤ b, else -∞.
func (l *IntervalLattice) rawWidenLo(b int64) int64 {
	if b != math.MinInt64 && b != math.MaxInt64 {
		for i := len(l.thresholds) - 1; i >= 0; i-- {
			if l.thresholds[i] <= b {
				return l.thresholds[i]
			}
		}
	}
	return math.MinInt64
}

// rawWidenHi mirrors widenHi on words: the smallest threshold ≥ b, else +∞.
func (l *IntervalLattice) rawWidenHi(b int64) int64 {
	if b != math.MinInt64 && b != math.MaxInt64 {
		for _, t := range l.thresholds {
			if b <= t {
				return t
			}
		}
	}
	return math.MaxInt64
}

// RawNarrow implements Raw: only infinite bounds of a improve to b's.
func (l *IntervalLattice) RawNarrow(dst, a, b []uint64) {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi || blo > bhi {
		dst[0], dst[1] = b[0], b[1]
		return
	}
	lo := alo
	if alo == math.MinInt64 {
		lo = blo
	}
	hi := ahi
	if ahi == math.MaxInt64 {
		hi = bhi
	}
	if lo > hi {
		rawIntervalSetEmpty(dst)
		return
	}
	dst[0], dst[1] = uint64(lo), uint64(hi)
}

// The package-level interval helpers below are the fused-path entry points:
// eqgen/eqdsl right-hand sides call them directly (concrete functions, not
// interface methods), so the compiler keeps every operand on the stack.

// RawIntervalLeq reports inclusion on encoded intervals.
func RawIntervalLeq(a, b []uint64) bool {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi {
		return true
	}
	if blo > bhi {
		return false
	}
	return blo <= alo && ahi <= bhi
}

// RawIntervalJoin writes the smallest encoded interval containing a and b.
func RawIntervalJoin(dst, a, b []uint64) {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi {
		dst[0], dst[1] = uint64(blo), uint64(bhi)
		return
	}
	if blo > bhi {
		dst[0], dst[1] = uint64(alo), uint64(ahi)
		return
	}
	if blo < alo {
		alo = blo
	}
	if bhi > ahi {
		ahi = bhi
	}
	dst[0], dst[1] = uint64(alo), uint64(ahi)
}

// RawIntervalMeet writes the intersection of the encoded intervals.
func RawIntervalMeet(dst, a, b []uint64) {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi || blo > bhi {
		rawIntervalSetEmpty(dst)
		return
	}
	if blo > alo {
		alo = blo
	}
	if bhi < ahi {
		ahi = bhi
	}
	if alo > ahi {
		rawIntervalSetEmpty(dst)
		return
	}
	dst[0], dst[1] = uint64(alo), uint64(ahi)
}

// rawExtAdd mirrors Ext.Add on words: saturating addition with the same
// overflow-to-infinity behavior and the same panic (same value, so an
// eval-failure abort reads alike on every core) on opposite infinities.
// A non-overflowing sum that lands exactly on a sentinel value is
// unencodable and panics, where the boxed arithmetic would produce
// Fin(MinInt64) or Fin(MaxInt64).
func rawExtAdd(a, b int64) int64 {
	aInf := a == math.MinInt64 || a == math.MaxInt64
	bInf := b == math.MinInt64 || b == math.MaxInt64
	switch {
	case aInf && bInf:
		if a != b {
			panic("lattice: Ext addition of opposite infinities")
		}
		return a
	case aInf:
		return a
	case bInf:
		return b
	}
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return math.MaxInt64
	}
	if a < 0 && b < 0 && s >= 0 {
		return math.MinInt64
	}
	if s == math.MinInt64 || s == math.MaxInt64 {
		panic(fmt.Errorf("%w: interval bound sum %d collides with the ±∞ sentinel encoding", ErrUnencodable, s))
	}
	return s
}

// rawExtNeg mirrors Ext.Neg on words: infinities flip; a finite negation
// that lands on a sentinel is unencodable and panics.
func rawExtNeg(a int64) int64 {
	switch a {
	case math.MinInt64:
		return math.MaxInt64
	case math.MaxInt64:
		return math.MinInt64
	}
	if -a == math.MaxInt64 {
		panic(fmt.Errorf("%w: negated interval bound %d collides with the ±∞ sentinel encoding", ErrUnencodable, -a))
	}
	return -a
}

// RawIntervalAdd writes the abstract sum of the encoded intervals,
// mirroring Interval.Add.
func RawIntervalAdd(dst, a, b []uint64) {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi || blo > bhi {
		rawIntervalSetEmpty(dst)
		return
	}
	lo := rawExtAdd(alo, blo)
	hi := rawExtAdd(ahi, bhi)
	if lo > hi {
		rawIntervalSetEmpty(dst)
		return
	}
	dst[0], dst[1] = uint64(lo), uint64(hi)
}

// RawIntervalSub writes the abstract difference of the encoded intervals,
// mirroring Interval.Sub: [alo-bhi, ahi-blo].
func RawIntervalSub(dst, a, b []uint64) {
	alo, ahi := int64(a[0]), int64(a[1])
	blo, bhi := int64(b[0]), int64(b[1])
	if alo > ahi || blo > bhi {
		rawIntervalSetEmpty(dst)
		return
	}
	lo := rawExtAdd(alo, rawExtNeg(bhi))
	hi := rawExtAdd(ahi, rawExtNeg(blo))
	if lo > hi {
		rawIntervalSetEmpty(dst)
		return
	}
	dst[0], dst[1] = uint64(lo), uint64(hi)
}

// ---------------------------------------------------------------------------
// Flat[int64]: two words, kind and value.

// flatInt64Raw is the raw encoding of FlatLattice[int64]. The value word is
// zero unless the kind is FlatVal, keeping the encoding canonical.
type flatInt64Raw struct{}

func (flatInt64Raw) RawWords() int { return 2 }

func (flatInt64Raw) RawEncode(dst []uint64, d Flat[int64]) {
	dst[0] = uint64(d.Kind)
	if d.Kind == FlatVal {
		dst[1] = uint64(d.V)
	} else {
		dst[1] = 0
	}
}

func (flatInt64Raw) RawDecode(src []uint64) Flat[int64] {
	if FlatKind(src[0]) == FlatVal {
		return Flat[int64]{Kind: FlatVal, V: int64(src[1])}
	}
	return Flat[int64]{Kind: FlatKind(src[0])}
}

func (flatInt64Raw) RawBottom(dst []uint64) { dst[0], dst[1] = 0, 0 }

func (flatInt64Raw) RawLeq(a, b []uint64) bool {
	switch {
	case FlatKind(a[0]) == FlatBot || FlatKind(b[0]) == FlatTop:
		return true
	case FlatKind(a[0]) == FlatTop || FlatKind(b[0]) == FlatBot:
		return false
	default:
		return a[1] == b[1]
	}
}

func (flatInt64Raw) RawEq(a, b []uint64) bool { return a[0] == b[0] && a[1] == b[1] }

func (flatInt64Raw) RawJoin(dst, a, b []uint64) {
	switch {
	case FlatKind(a[0]) == FlatBot:
		dst[0], dst[1] = b[0], b[1]
	case FlatKind(b[0]) == FlatBot:
		dst[0], dst[1] = a[0], a[1]
	case FlatKind(a[0]) == FlatVal && FlatKind(b[0]) == FlatVal && a[1] == b[1]:
		dst[0], dst[1] = a[0], a[1]
	default:
		dst[0], dst[1] = uint64(FlatTop), 0
	}
}

func (flatInt64Raw) RawMeet(dst, a, b []uint64) {
	switch {
	case FlatKind(a[0]) == FlatTop:
		dst[0], dst[1] = b[0], b[1]
	case FlatKind(b[0]) == FlatTop:
		dst[0], dst[1] = a[0], a[1]
	case FlatKind(a[0]) == FlatVal && FlatKind(b[0]) == FlatVal && a[1] == b[1]:
		dst[0], dst[1] = a[0], a[1]
	default:
		dst[0], dst[1] = uint64(FlatBot), 0
	}
}

func (r flatInt64Raw) RawWiden(dst, a, b []uint64) { r.RawJoin(dst, a, b) }

func (flatInt64Raw) RawNarrow(dst, a, b []uint64) { dst[0], dst[1] = b[0], b[1] }

// ---------------------------------------------------------------------------
// Sign and Parity: one word holding the bitset.

// RawWords implements Raw.
func (SignLattice) RawWords() int { return 1 }

// RawEncode implements Raw.
func (SignLattice) RawEncode(dst []uint64, d Sign) { dst[0] = uint64(d) }

// RawDecode implements Raw.
func (SignLattice) RawDecode(src []uint64) Sign { return Sign(src[0]) }

// RawBottom implements Raw.
func (SignLattice) RawBottom(dst []uint64) { dst[0] = 0 }

// RawLeq implements Raw.
func (SignLattice) RawLeq(a, b []uint64) bool { return a[0]&^b[0] == 0 }

// RawEq implements Raw.
func (SignLattice) RawEq(a, b []uint64) bool { return a[0] == b[0] }

// RawJoin implements Raw.
func (SignLattice) RawJoin(dst, a, b []uint64) { dst[0] = a[0] | b[0] }

// RawMeet implements Raw.
func (SignLattice) RawMeet(dst, a, b []uint64) { dst[0] = a[0] & b[0] }

// RawWiden implements Raw (finite height: Widen = Join).
func (SignLattice) RawWiden(dst, a, b []uint64) { dst[0] = a[0] | b[0] }

// RawNarrow implements Raw (Narrow = b).
func (SignLattice) RawNarrow(dst, a, b []uint64) { dst[0] = b[0] }

// RawWords implements Raw.
func (ParityLattice) RawWords() int { return 1 }

// RawEncode implements Raw.
func (ParityLattice) RawEncode(dst []uint64, d Parity) { dst[0] = uint64(d) }

// RawDecode implements Raw.
func (ParityLattice) RawDecode(src []uint64) Parity { return Parity(src[0]) }

// RawBottom implements Raw.
func (ParityLattice) RawBottom(dst []uint64) { dst[0] = 0 }

// RawLeq implements Raw.
func (ParityLattice) RawLeq(a, b []uint64) bool { return a[0]&^b[0] == 0 }

// RawEq implements Raw.
func (ParityLattice) RawEq(a, b []uint64) bool { return a[0] == b[0] }

// RawJoin implements Raw.
func (ParityLattice) RawJoin(dst, a, b []uint64) { dst[0] = a[0] | b[0] }

// RawMeet implements Raw.
func (ParityLattice) RawMeet(dst, a, b []uint64) { dst[0] = a[0] & b[0] }

// RawWiden implements Raw (finite height: Widen = Join).
func (ParityLattice) RawWiden(dst, a, b []uint64) { dst[0] = a[0] | b[0] }

// RawNarrow implements Raw (Narrow = b).
func (ParityLattice) RawNarrow(dst, a, b []uint64) { dst[0] = b[0] }

// ---------------------------------------------------------------------------
// Set[T]: a bitset over the universe, ⌈|universe|/64⌉ words.

// RawWords implements Raw.
func (l *SetLattice[T]) RawWords() int { return (len(l.universe) + 63) / 64 }

// rawOK vetoes instances without a universe: the bitset needs a fixed,
// finite element-to-bit mapping. Lattices built by NewSetLattice always
// carry the index; zero-valued instances never do.
func (l *SetLattice[T]) rawOK() bool {
	return l != nil && len(l.universe) > 0 && l.elemIdx != nil
}

// RawEncode implements Raw. It panics on elements outside the universe —
// such sets are not elements of this lattice instance (Top would not bound
// them).
func (l *SetLattice[T]) RawEncode(dst []uint64, d Set[T]) {
	for i := range dst {
		dst[i] = 0
	}
	for _, e := range d.e {
		i, ok := l.elemIdx[e]
		if !ok {
			panic(fmt.Errorf("%w: set element %v is outside the lattice universe", ErrUnencodable, e))
		}
		dst[i>>6] |= uint64(1) << uint(i&63)
	}
}

// RawDecode implements Raw. It counts the members, allocates once and emits
// them in universe order, then normalizes them as NewSet does: under an
// ascending universe that is two scans, under any other a sort. Bits past
// the universe are not members.
func (l *SetLattice[T]) RawDecode(src []uint64) Set[T] {
	n := 0
	for _, w := range src {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return Set[T]{}
	}
	e := make([]T, 0, n)
	for k, w := range src {
		for ; w != 0; w &= w - 1 {
			if i := k<<6 | bits.TrailingZeros64(w); i < len(l.universe) {
				e = append(e, l.universe[i])
			}
		}
	}
	return Set[T]{e: normalize(e)}
}

// RawBottom implements Raw.
func (l *SetLattice[T]) RawBottom(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

// RawLeq implements Raw: inclusion is a ⊆ b, i.e. a AND-NOT b is empty.
func (l *SetLattice[T]) RawLeq(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// RawEq implements Raw.
func (l *SetLattice[T]) RawEq(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RawJoin implements Raw: union.
func (l *SetLattice[T]) RawJoin(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// RawMeet implements Raw: intersection.
func (l *SetLattice[T]) RawMeet(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// RawWiden implements Raw (finite universe: Widen = Join).
func (l *SetLattice[T]) RawWiden(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// RawNarrow implements Raw (Narrow = b).
func (l *SetLattice[T]) RawNarrow(dst, a, b []uint64) {
	copy(dst, b)
}
