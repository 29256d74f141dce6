// Package ckptcodec provides solver checkpoint codecs for the value domains
// of generated constraint systems (internal/eqgen): int unknowns over the
// interval, flat and powerset lattices. It lives outside eqgen so the
// solver's own tests can import eqgen without an import cycle.
package ckptcodec

import (
	"fmt"
	"strconv"
	"strings"

	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// This file provides the checkpoint codecs for the generator's three value
// domains, so solver checkpoints over generated systems round-trip through
// the versioned wire format (solver.MarshalCheckpoint). Every encoding is
// canonical — one string per abstract value — which the round-trip and
// golden-format tests rely on.

// IntCodec encodes the unknowns of generated systems (plain ints).
func encodeInt(x int) string { return strconv.Itoa(x) }

func decodeInt(s string) (int, error) { return strconv.Atoi(s) }

// encodeExt renders an extended integer bound.
func encodeExt(e lattice.Ext) string {
	switch {
	case e.IsNegInf():
		return "-inf"
	case e.IsPosInf():
		return "+inf"
	default:
		return strconv.FormatInt(e.Int(), 10)
	}
}

func decodeExt(s string) (lattice.Ext, error) {
	switch s {
	case "-inf":
		return lattice.NegInf, nil
	case "+inf":
		return lattice.PosInf, nil
	default:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return lattice.Ext{}, fmt.Errorf("bad bound %q", s)
		}
		return lattice.Fin(v), nil
	}
}

// EncodeInterval renders an interval as "empty" or "lo..hi" with -inf/+inf
// bounds. It is the value half of IntervalCodec, exported so string-keyed
// callers (the eqsolve CLI) share the exact wire rendering.
func EncodeInterval(v lattice.Interval) string {
	if v.IsEmpty() {
		return "empty"
	}
	return encodeExt(v.Lo) + ".." + encodeExt(v.Hi)
}

// DecodeInterval inverts EncodeInterval.
func DecodeInterval(s string) (lattice.Interval, error) {
	if s == "empty" {
		return lattice.EmptyInterval, nil
	}
	lo, hi, ok := strings.Cut(s, "..")
	if !ok {
		return lattice.Interval{}, fmt.Errorf("bad interval %q", s)
	}
	l, err := decodeExt(lo)
	if err != nil {
		return lattice.Interval{}, err
	}
	h, err := decodeExt(hi)
	if err != nil {
		return lattice.Interval{}, err
	}
	iv := lattice.NewInterval(l, h)
	if iv.IsEmpty() {
		return lattice.Interval{}, fmt.Errorf("bad interval %q: empty bounds", s)
	}
	return iv, nil
}

// IntervalCodec round-trips checkpoints of interval-domain systems.
// Intervals render as "empty" or "lo..hi" with -inf/+inf bounds.
func IntervalCodec() solver.Codec[int, lattice.Interval] {
	return solver.Codec[int, lattice.Interval]{
		EncodeX: encodeInt,
		DecodeX: decodeInt,
		EncodeD: EncodeInterval,
		DecodeD: DecodeInterval,
	}
}

// FlatCodec round-trips checkpoints of flat-domain systems. Values render
// as "bot", "top" or the decimal constant.
func FlatCodec() solver.Codec[int, lattice.Flat[int64]] {
	return solver.Codec[int, lattice.Flat[int64]]{
		EncodeX: encodeInt,
		DecodeX: decodeInt,
		EncodeD: func(v lattice.Flat[int64]) string {
			switch v.Kind {
			case lattice.FlatBot:
				return "bot"
			case lattice.FlatTop:
				return "top"
			default:
				return strconv.FormatInt(v.V, 10)
			}
		},
		DecodeD: func(s string) (lattice.Flat[int64], error) {
			switch s {
			case "bot":
				return lattice.Flat[int64]{Kind: lattice.FlatBot}, nil
			case "top":
				return lattice.Flat[int64]{Kind: lattice.FlatTop}, nil
			default:
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return lattice.Flat[int64]{}, fmt.Errorf("bad flat value %q", s)
				}
				return lattice.FlatOf(v), nil
			}
		},
	}
}

// NatCodec round-trips checkpoints of string-keyed ℕ ∪ {∞} systems (the
// eqdsl natinf domain). Values render as "inf" or the decimal value. Shared
// by the eqsolve CLI and the eqsolved daemon, so a checkpoint written by one
// resumes under the other.
func NatCodec() solver.Codec[string, lattice.Nat] {
	return solver.Codec[string, lattice.Nat]{
		EncodeX: func(x string) string { return x },
		DecodeX: func(s string) (string, error) { return s, nil },
		EncodeD: func(v lattice.Nat) string {
			if v.IsInf() {
				return "inf"
			}
			return strconv.FormatUint(v.Val(), 10)
		},
		DecodeD: func(s string) (lattice.Nat, error) {
			if s == "inf" {
				return lattice.NatInfElem, nil
			}
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return lattice.Nat{}, fmt.Errorf("bad nat value %q", s)
			}
			return lattice.NatOf(v), nil
		},
	}
}

// StringIntervalCodec round-trips checkpoints of string-keyed interval
// systems (the eqdsl interval domain), with the same value rendering as the
// int-keyed IntervalCodec.
func StringIntervalCodec() solver.Codec[string, lattice.Interval] {
	return solver.Codec[string, lattice.Interval]{
		EncodeX: func(x string) string { return x },
		DecodeX: func(s string) (string, error) { return s, nil },
		EncodeD: EncodeInterval,
		DecodeD: DecodeInterval,
	}
}

// PowersetCodec round-trips checkpoints of powerset-domain systems. Sets
// render as their sorted elements separated by spaces; the empty set is the
// empty string.
func PowersetCodec() solver.Codec[int, lattice.Set[int]] {
	return solver.Codec[int, lattice.Set[int]]{
		EncodeX: encodeInt,
		DecodeX: decodeInt,
		EncodeD: func(v lattice.Set[int]) string {
			// Elements come ascending. Two digits and a separator each
			// cover eqgen's universe; longer renderings grow the buffer.
			var b strings.Builder
			b.Grow(3 * v.Len())
			var num [20]byte
			for i := 0; i < v.Len(); i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.Write(strconv.AppendInt(num[:0], int64(v.At(i)), 10))
			}
			return b.String()
		},
		DecodeD: func(s string) (lattice.Set[int], error) {
			if s == "" {
				return lattice.NewSet[int](), nil
			}
			var elems []int
			for _, p := range strings.Fields(s) {
				e, err := strconv.Atoi(p)
				if err != nil {
					return lattice.Set[int]{}, fmt.Errorf("bad set element %q", p)
				}
				elems = append(elems, e)
			}
			return lattice.NewSet(elems...), nil
		},
	}
}
