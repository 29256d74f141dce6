package lattice

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// rawIntervalSamples builds a seeded sample set that covers every sentinel
// shape: empty, full, half-open rays, ±∞ singletons, and random finite
// intervals (bounds drawn away from the unencodable int64 extremes).
func rawIntervalSamples(seed int64) []Interval {
	rng := rand.New(rand.NewSource(seed))
	samples := []Interval{
		EmptyInterval,
		FullInterval,
		AtLeast(-3),
		AtMost(7),
		Singleton(0),
		Singleton(-1),
		NewInterval(PosInf, PosInf),
		NewInterval(NegInf, NegInf),
		Range(-100, 100),
	}
	for i := 0; i < 40; i++ {
		lo := rng.Int63n(2_000_001) - 1_000_000
		hi := lo + rng.Int63n(5_000)
		samples = append(samples, Range(lo, hi))
		if i%4 == 0 {
			samples = append(samples, AtLeast(lo), AtMost(hi))
		}
	}
	return samples
}

func TestRawIntervalAgreement(t *testing.T) {
	lattices := map[string]*IntervalLattice{
		"plain":      Ints,
		"thresholds": NewIntervalLattice(-64, -1, 0, 10, 100, 4096),
	}
	for name, l := range lattices {
		r := AsRaw[Interval](l)
		if r == nil {
			t.Fatalf("%s: AsRaw returned nil for the interval lattice", name)
		}
		if err := CheckRawAgreement[Interval](l, r, rawIntervalSamples(11)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRawIntervalArithmeticAgreement(t *testing.T) {
	samples := rawIntervalSamples(13)
	enc := func(iv Interval) []uint64 {
		w := make([]uint64, 2)
		Ints.RawEncode(w, iv)
		return w
	}
	// catch runs f and returns what it panicked with, if anything.
	catch := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	// Where the boxed operation panics (opposite infinities) the raw one
	// panics with the same value, so eval-failure aborts read alike on every
	// core. Where the boxed result is a bound at the int64 extremes the raw
	// one panics with ErrUnencodable. It may also do so a little early:
	// RawIntervalSub negates first, and negating MinInt64+1 already lands
	// on a sentinel. Callers redo such solves on a boxed core, so that costs
	// speed, not answers. Everywhere else the results agree.
	unencodable := func(r any) bool {
		err, ok := r.(error)
		return ok && errors.Is(err, ErrUnencodable)
	}
	check := func(name string, a, b Interval, boxed func() Interval, raw func(dst, a, b []uint64)) {
		var want Interval
		bp := catch(func() { want = boxed() })
		dst := make([]uint64, 2)
		rp := catch(func() { raw(dst, enc(a), enc(b)) })
		switch {
		case bp != nil:
			if rp != bp {
				t.Errorf("%s(%s, %s): raw panicked with %v, boxed with %v", name, a, b, rp, bp)
			}
		case unencodable(rp):
		case catch(func() { enc(want) }) != nil:
			t.Errorf("%s(%s, %s) = %s is unencodable, raw panicked with %v", name, a, b, want, rp)
		case rp != nil:
			t.Errorf("%s(%s, %s): raw panicked with %v, boxed returned %s", name, a, b, rp, want)
		default:
			if got := Ints.RawDecode(dst); !Ints.Eq(got, want) {
				t.Errorf("%s(%s, %s) = %s, boxed %s", name, a, b, got, want)
			}
		}
	}
	// Operands next to the extremes, whose sums and differences land on them.
	samples = append(samples, Singleton(math.MaxInt64-1), Singleton(math.MinInt64+1), Singleton(1), Singleton(-1))
	for _, a := range samples {
		for _, b := range samples {
			check("RawIntervalAdd", a, b, func() Interval { return a.Add(b) }, RawIntervalAdd)
			check("RawIntervalSub", a, b, func() Interval { return a.Sub(b) }, RawIntervalSub)
		}
	}
}

func TestRawIntervalEncodePanicsOnSentinelCollision(t *testing.T) {
	for _, v := range []int64{math.MinInt64, math.MaxInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RawEncode(Singleton(%d)) did not panic", v)
				}
			}()
			var w [2]uint64
			Ints.RawEncode(w[:], Singleton(v))
		}()
	}
}

func TestRawFlatAgreement(t *testing.T) {
	l := FlatLattice[int64]{}
	r := AsRaw[Flat[int64]](l)
	if r == nil {
		t.Fatal("AsRaw returned nil for FlatLattice[int64]")
	}
	samples := []Flat[int64]{
		{Kind: FlatBot}, {Kind: FlatTop},
		FlatOf[int64](0), FlatOf[int64](1), FlatOf[int64](-5),
		FlatOf[int64](math.MaxInt64), FlatOf[int64](math.MinInt64),
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 30; i++ {
		samples = append(samples, FlatOf(rng.Int63()-rng.Int63()))
	}
	if err := CheckRawAgreement[Flat[int64]](l, r, samples); err != nil {
		t.Fatal(err)
	}
}

func TestRawJoinWidenWrapperAgreement(t *testing.T) {
	// The eqgen flat domain wraps FlatLattice in JoinWiden; AsRaw must see
	// through the wrapper and translate Widen/Narrow to Join/copy-b.
	l := JoinWiden[Flat[int64]]{Inner: FlatLattice[int64]{}}
	r := AsRaw[Flat[int64]](l)
	if r == nil {
		t.Fatal("AsRaw returned nil for JoinWiden over FlatLattice[int64]")
	}
	samples := []Flat[int64]{
		{Kind: FlatBot}, {Kind: FlatTop}, FlatOf[int64](3), FlatOf[int64](-3), FlatOf[int64](16),
	}
	if err := CheckRawAgreement[Flat[int64]](l, r, samples); err != nil {
		t.Fatal(err)
	}
}

func TestRawSignAgreement(t *testing.T) {
	r := AsRaw[Sign](Signs)
	if r == nil {
		t.Fatal("AsRaw returned nil for the sign lattice")
	}
	samples := []Sign{SignBot, SignNeg, SignZero, SignPos, SignLe0, SignGe0, SignNe0, SignTop}
	if err := CheckRawAgreement[Sign](Signs, r, samples); err != nil {
		t.Fatal(err)
	}
}

func TestRawParityAgreement(t *testing.T) {
	r := AsRaw[Parity](Parities)
	if r == nil {
		t.Fatal("AsRaw returned nil for the parity lattice")
	}
	samples := []Parity{ParityBot, ParityEven, ParityOdd, ParityTop}
	if err := CheckRawAgreement[Parity](Parities, r, samples); err != nil {
		t.Fatal(err)
	}
}

func TestRawSetAgreement(t *testing.T) {
	// A 70-element universe forces the bitset across a word boundary.
	for _, size := range []int{16, 70} {
		universe := make([]int, size)
		for i := range universe {
			universe[i] = i
		}
		l := NewSetLattice(universe...)
		r := AsRaw[Set[int]](l)
		if r == nil {
			t.Fatalf("AsRaw returned nil for a %d-element set lattice", size)
		}
		wantStride := (size + 63) / 64
		if got := r.RawWords(); got != wantStride {
			t.Fatalf("RawWords() = %d, want %d", got, wantStride)
		}
		rng := rand.New(rand.NewSource(int64(size)))
		samples := []Set[int]{{}, l.Top(), NewSet(0), NewSet(size - 1)}
		for i := 0; i < 25; i++ {
			var elems []int
			for _, e := range universe {
				if rng.Intn(3) == 0 {
					elems = append(elems, e)
				}
			}
			samples = append(samples, NewSet(elems...))
		}
		if err := CheckRawAgreement[Set[int]](l, r, samples); err != nil {
			t.Fatalf("universe %d: %v", size, err)
		}
	}
}

func TestRawSetEncodeRejectsForeignElements(t *testing.T) {
	l := NewSetLattice(0, 1, 2)
	r := AsRaw[Set[int]](l)
	defer func() {
		if recover() == nil {
			t.Error("RawEncode of an out-of-universe element did not panic")
		}
	}()
	var w [1]uint64
	r.RawEncode(w[:], NewSet(99))
}

func TestAsRawUnsupported(t *testing.T) {
	if r := AsRaw[Set[int]](&SetLattice[int]{}); r != nil {
		t.Error("AsRaw accepted a set lattice without a universe")
	}
	if r := AsRaw[Flat[string]](FlatLattice[string]{}); r != nil {
		t.Error("AsRaw accepted FlatLattice[string]")
	}
	if r := AsRaw[Interval](NewIntervalLattice(math.MaxInt64)); r != nil {
		t.Error("AsRaw accepted an interval lattice with a sentinel-colliding threshold")
	}
}
