// Package eqgen generates seeded random constraint systems for the
// differential fuzzing harness (internal/diffsolve) and the fuzz targets.
//
// Unlike internal/synth, which generates mini-C *programs* for the paper's
// Table 1, eqgen generates equation *systems* directly — over the interval,
// flat and powerset lattices — with controllable fan-in, SCC shape,
// widening-point density and an adjustable dose of deliberate
// non-monotonicity. The same Seed always produces the same system
// (the generator uses its own splitmix64 stream, independent of math/rand),
// so every fuzz input and every failing seed is a complete reproduction
// recipe.
//
// The generator works in two layers. BuildShape derives a domain-independent
// Shape from the Config: a partition of the unknowns into consecutive blocks
// (the intended SCCs — closed into cycles with probability CycleDensity),
// extra dependence edges (FanIn per unknown; ForwardDensity of them point
// forward, past the block, producing linear orders that are *not*
// topologically consistent with the condensation — the stratify-coarsening
// path of PSW), plus per-unknown flags: growth (a +1-style self-feeding term
// that forces widening), a bound (a meet with constants that gives narrowing
// something to recover), and a non-monotonic flip (a right-hand side that
// *decreases* when a chosen dependency grows — the systems of the paper's
// Sec. 4 on which plain ⊟ may oscillate). The domain constructors then
// interpret the same Shape over a concrete lattice.
package eqgen

import (
	"fmt"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// Domain selects the value domain of a generated system.
type Domain int

// Supported domains.
const (
	Interval Domain = iota
	Flat
	Powerset
)

// String renders the domain name.
func (d Domain) String() string {
	switch d {
	case Interval:
		return "interval"
	case Flat:
		return "flat"
	case Powerset:
		return "powerset"
	default:
		return "?"
	}
}

// Config controls the generator. The zero value is usable: Defaults fills
// every unset knob.
type Config struct {
	// Seed determines the system completely.
	Seed uint64
	// Dom selects the value domain.
	Dom Domain
	// N is the number of unknowns (default 12, clamped to [1, 4096]).
	N int
	// FanIn is the number of extra dependence edges per unknown on top of
	// the structural chain/cycle edges (default 2, clamped to [0, 8]; pass
	// a negative value for an explicit zero).
	FanIn int
	// MaxSCC is the maximum block size of the SCC partition (default 4,
	// clamped to [1, N]); blocks are 1..MaxSCC unknowns long.
	MaxSCC int
	// CycleDensity is the probability that a block of size ≥ 2 is closed
	// into a cycle, i.e. becomes a genuine SCC (default 0.75).
	CycleDensity float64
	// WidenDensity is the probability that an unknown carries a growth term
	// (a widening point; default 0.5).
	WidenDensity float64
	// NonMonoDensity is the probability that an unknown carries a
	// non-monotonic flip (default 0 — monotonic system).
	NonMonoDensity float64
	// ForwardDensity is the probability that an extra dependence points
	// forward past the unknown's block (default 0), making the linear order
	// inconsistent with the condensation.
	ForwardDensity float64
	// GiantSCC, when positive, is the fraction of unknowns fused into one
	// leading giant component (clamped to [0, 1]): the first
	// ceil(GiantSCC·N) unknowns form a single block that is closed into a
	// cycle unconditionally, with the remaining unknowns partitioned as
	// usual. FanIn edges drawn inside the giant block become intra-SCC
	// cross edges, so FanIn doubles as the cross-edge density knob of the
	// cycle-heavy regime PSW cannot parallelize (one giant SCC is one
	// stratum) and CPW targets (default 0 — no giant component).
	GiantSCC float64
}

// Defaults returns the config with unset knobs replaced by defaults and all
// knobs clamped to their legal ranges, so arbitrary fuzz inputs are safe.
func (c Config) Defaults() Config {
	if c.N == 0 {
		c.N = 12
	}
	c.N = clamp(c.N, 1, 4096)
	if c.FanIn == 0 {
		c.FanIn = 2
	}
	c.FanIn = clamp(c.FanIn, 0, 8)
	if c.MaxSCC == 0 {
		c.MaxSCC = 4
	}
	c.MaxSCC = clamp(c.MaxSCC, 1, c.N)
	if c.CycleDensity == 0 {
		c.CycleDensity = 0.75
	}
	if c.WidenDensity == 0 {
		c.WidenDensity = 0.5
	}
	c.CycleDensity = clampF(c.CycleDensity)
	c.WidenDensity = clampF(c.WidenDensity)
	c.NonMonoDensity = clampF(c.NonMonoDensity)
	c.ForwardDensity = clampF(c.ForwardDensity)
	c.GiantSCC = clampF(c.GiantSCC)
	return c
}

// String renders the config as a reproduction recipe.
func (c Config) String() string {
	return fmt.Sprintf("eqgen{seed=%d dom=%s n=%d fanin=%d maxscc=%d cyc=%.2f wid=%.2f nonmono=%.2f fwd=%.2f giant=%.2f}",
		c.Seed, c.Dom, c.N, c.FanIn, c.MaxSCC,
		c.CycleDensity, c.WidenDensity, c.NonMonoDensity, c.ForwardDensity, c.GiantSCC)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v float64) float64 {
	if v < 0 || v != v { // negative or NaN
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// rng is a splitmix64 stream: tiny, fast, and stable across Go releases
// (math/rand makes no cross-version stream guarantees).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) prob(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}

// Shape is the domain-independent skeleton of a generated system.
type Shape struct {
	// Cfg is the (defaulted) generating config.
	Cfg Config
	// Deps lists the dependence targets of each unknown, deduplicated, in
	// generation order. Deps[i] is exactly the set the right-hand side of
	// unknown i reads.
	Deps [][]int
	// Blocks partitions [0, N) into consecutive [lo, hi] index ranges, the
	// intended SCCs.
	Blocks [][2]int
	// Grow marks widening points: unknowns whose right-hand side includes a
	// strictly increasing term over their first dependency.
	Grow []bool
	// Bound marks unknowns whose right-hand side is capped by a meet with
	// constants, giving narrowing precision to recover after widening.
	Bound []bool
	// NonMono is the position in Deps[i] of the dependency driving a
	// non-monotonic flip, or -1 for a monotonic right-hand side.
	NonMono []int
	// Mat is per-unknown constant material the domain builders draw
	// literals from.
	Mat []uint64
}

// BuildShape derives the deterministic Shape for a config.
func BuildShape(cfg Config) *Shape {
	cfg = cfg.Defaults()
	n := cfg.N
	r := &rng{s: cfg.Seed ^ 0xda3e39cb94b95bdb}
	s := &Shape{
		Cfg:     cfg,
		Deps:    make([][]int, n),
		Grow:    make([]bool, n),
		Bound:   make([]bool, n),
		NonMono: make([]int, n),
		Mat:     make([]uint64, n),
	}

	// Giant component first, when configured: one leading block of
	// ceil(GiantSCC·n) unknowns closed into a cycle unconditionally. It
	// consumes no rng draws, so configs with GiantSCC = 0 generate exactly
	// the systems they always did (the committed fuzz corpora stay valid).
	start := 0
	if cfg.GiantSCC > 0 {
		g := int(cfg.GiantSCC * float64(n))
		if float64(g) < cfg.GiantSCC*float64(n) {
			g++ // ceil
		}
		g = clamp(g, 1, n)
		s.Blocks = append(s.Blocks, [2]int{0, g - 1})
		for i := 1; i < g; i++ {
			s.Deps[i] = append(s.Deps[i], i-1)
		}
		if g > 1 {
			s.Deps[0] = append(s.Deps[0], g-1)
		}
		start = g
	}

	// Partition into blocks and lay the structural chain/cycle edges.
	for lo := start; lo < n; {
		hi := lo + 1 + r.intn(cfg.MaxSCC)
		if hi > n {
			hi = n
		}
		hi--
		s.Blocks = append(s.Blocks, [2]int{lo, hi})
		for i := lo + 1; i <= hi; i++ {
			s.Deps[i] = append(s.Deps[i], i-1)
		}
		if hi > lo && r.prob(cfg.CycleDensity) {
			s.Deps[lo] = append(s.Deps[lo], hi)
		}
		lo = hi + 1
	}

	// Extra edges, flags and constant material.
	blockOf := make([]int, n)
	for bi, b := range s.Blocks {
		for i := b[0]; i <= b[1]; i++ {
			blockOf[i] = bi
		}
	}
	for i := 0; i < n; i++ {
		hi := s.Blocks[blockOf[i]][1]
		for k := 0; k < cfg.FanIn; k++ {
			var j int
			if r.prob(cfg.ForwardDensity) && hi < n-1 {
				j = hi + 1 + r.intn(n-hi-1)
			} else {
				j = r.intn(hi + 1)
			}
			dup := false
			for _, d := range s.Deps[i] {
				if d == j {
					dup = true
					break
				}
			}
			if !dup {
				s.Deps[i] = append(s.Deps[i], j)
			}
		}
		s.Grow[i] = r.prob(cfg.WidenDensity)
		s.Bound[i] = r.prob(0.7)
		s.NonMono[i] = -1
		if len(s.Deps[i]) > 0 && r.prob(cfg.NonMonoDensity) {
			s.NonMono[i] = r.intn(len(s.Deps[i]))
		}
		s.Mat[i] = r.next()
	}
	return s
}

// System builds the equation system for the config's domain as a uniform
// tagged result: exactly one of the three system fields is non-nil.
type System struct {
	Shape    *Shape
	Interval *eqn.System[int, lattice.Interval]
	Flat     *eqn.System[int, lattice.Flat[int64]]
	Powerset *eqn.System[int, lattice.Set[int]]
}

// New generates the system for cfg.
func New(cfg Config) System {
	sh := BuildShape(cfg)
	out := System{Shape: sh}
	switch sh.Cfg.Dom {
	case Flat:
		out.Flat = FlatSystem(sh)
	case Powerset:
		out.Powerset = PowersetSystem(sh)
	default:
		out.Interval = IntervalSystem(sh)
	}
	return out
}

// Spec is the per-unknown material a domain builder interprets: the
// dependence list, the widening/bound/flip flags and the constant material,
// copied out of the Shape (or freshly drawn by Mutate). Right-hand sides
// capture a Spec by value, never the Shape itself, so redefining one unknown
// can draw new material without aliasing the equations of any other.
type Spec struct {
	Deps    []int
	Grow    bool
	Bound   bool
	NonMono int
	Mat     uint64
}

// SpecOf extracts unknown i's spec from the shape.
func (s *Shape) SpecOf(i int) Spec {
	return Spec{Deps: s.Deps[i], Grow: s.Grow[i], Bound: s.Bound[i], NonMono: s.NonMono[i], Mat: s.Mat[i]}
}

// IntervalSystem interprets the shape over integer intervals. Growth points
// add +1 around the cycle (the loop-counter pattern that forces widening);
// bounds are meets with small constant ranges (the precision ⊟ recovers by
// narrowing); a non-monotonic flip returns a large constant while the chosen
// dependency is under a threshold and caps the result once it grows past it.
func IntervalSystem(s *Shape) *eqn.System[int, lattice.Interval] {
	sys := eqn.NewSystem[int, lattice.Interval]()
	for i := 0; i < len(s.Deps); i++ {
		rhs, raw := IntervalRHS(s.SpecOf(i))
		sys.Define(i, s.Deps[i], rhs)
		sys.AttachRaw(i, raw)
	}
	return sys
}

// IntervalRHS builds the interval right-hand side a spec describes, together
// with its fused unboxed twin. The twin encodes the constants once and never
// materializes a boxed Interval; reads are consumed before the next get
// call, and its scratch lives on the stack of each call, so concurrent
// solves of one system (and PSW strata) never share it. The raw-vs-boxed
// agreement test pins the bit identity of the two forms.
func IntervalRHS(sp Spec) (eqn.RHS[int, lattice.Interval], eqn.RawRHS[int]) {
	ds := sp.Deps
	mat := sp.Mat
	base := lattice.Singleton(int64(mat % 8))
	boundLo := int64(mat >> 3 % 4)
	boundHi := boundLo + int64(8+mat>>5%96)
	flip := lattice.Range(0, int64(4+mat>>12%32))
	big := lattice.Singleton(int64(mat >> 17 % 1000))
	rhs := func(get func(int) lattice.Interval) lattice.Interval {
		vals := make([]lattice.Interval, len(ds))
		for k, d := range ds {
			vals[k] = get(d)
		}
		v := base
		for k := range vals {
			t := vals[k]
			if sp.Grow && k == 0 {
				t = t.Add(lattice.Singleton(1))
			}
			v = lattice.Ints.Join(v, t)
		}
		if sp.Bound {
			v = lattice.Ints.Meet(v, lattice.Range(boundLo, boundHi))
		}
		if nm := sp.NonMono; nm >= 0 {
			// Antitone in vals[nm]: while the dependency is still inside
			// flip, the result includes big; once it grows past, the
			// result is capped instead — strictly smaller.
			if lattice.Ints.Leq(vals[nm], flip) {
				v = lattice.Ints.Join(v, big)
			} else {
				v = lattice.Ints.Meet(v, flip)
			}
		}
		return v
	}
	encIv := func(v lattice.Interval) []uint64 {
		w := make([]uint64, 2)
		lattice.Ints.RawEncode(w, v)
		return w
	}
	rawBase := encIv(base)
	rawBound := encIv(lattice.Range(boundLo, boundHi))
	rawFlip := encIv(flip)
	rawBig := encIv(big)
	rawOne := encIv(lattice.Singleton(1))
	raw := func(get func(int) []uint64, dst []uint64) {
		var tmp [2]uint64
		copy(dst, rawBase)
		for k, d := range ds {
			t := get(d)
			if sp.Grow && k == 0 {
				lattice.RawIntervalAdd(tmp[:], t, rawOne)
				t = tmp[:]
			}
			lattice.RawIntervalJoin(dst, dst, t)
		}
		if sp.Bound {
			lattice.RawIntervalMeet(dst, dst, rawBound)
		}
		if nm := sp.NonMono; nm >= 0 {
			if lattice.RawIntervalLeq(get(ds[nm]), rawFlip) {
				lattice.RawIntervalJoin(dst, dst, rawBig)
			} else {
				lattice.RawIntervalMeet(dst, dst, rawFlip)
			}
		}
	}
	return rhs, raw
}

// FlatL is the flat constant-propagation lattice the generated flat systems
// use; its two-level height makes join a sound widening.
var FlatL = lattice.JoinWiden[lattice.Flat[int64]]{Inner: lattice.FlatLattice[int64]{}}

// FlatSystem interprets the shape over the flat lattice on int64. Monotone
// terms are joins of dependencies mapped through lifted arithmetic; a
// non-monotonic flip collapses the result to a constant once the chosen
// dependency reaches ⊤.
func FlatSystem(s *Shape) *eqn.System[int, lattice.Flat[int64]] {
	sys := eqn.NewSystem[int, lattice.Flat[int64]]()
	for i := 0; i < len(s.Deps); i++ {
		rhs, raw := FlatRHS(s.SpecOf(i))
		sys.Define(i, s.Deps[i], rhs)
		sys.AttachRaw(i, raw)
	}
	return sys
}

// FlatRHS builds the flat right-hand side a spec describes, with its fused
// unboxed twin: flat values are (kind, value) word pairs with the value word
// zero unless the kind is FlatVal, and the join is inlined. All values in a
// generated flat system are non-negative, so the int64 modular arithmetic
// matches the boxed form exactly.
func FlatRHS(sp Spec) (eqn.RHS[int, lattice.Flat[int64]], eqn.RawRHS[int]) {
	ds := sp.Deps
	mat := sp.Mat
	base := lattice.FlatOf(int64(mat % 5))
	mul := int64(1 + mat>>3%3)
	add := int64(mat >> 5 % 7)
	reset := lattice.FlatOf(int64(mat >> 8 % 5))
	rhs := func(get func(int) lattice.Flat[int64]) lattice.Flat[int64] {
		vals := make([]lattice.Flat[int64], len(ds))
		for k, d := range ds {
			vals[k] = get(d)
		}
		v := base
		for _, t := range vals {
			if t.Kind == lattice.FlatVal {
				t = lattice.FlatOf((t.V*mul + add) % 17)
			}
			v = FlatL.Join(v, t)
		}
		if nm := sp.NonMono; nm >= 0 && vals[nm].Kind == lattice.FlatTop {
			return reset // antitone: a dependency reaching ⊤ shrinks the result
		}
		return v
	}
	rawBase := [2]uint64{uint64(lattice.FlatVal), uint64(base.V)}
	rawReset := [2]uint64{uint64(lattice.FlatVal), uint64(reset.V)}
	raw := func(get func(int) []uint64, dst []uint64) {
		dst[0], dst[1] = rawBase[0], rawBase[1]
		for _, d := range ds {
			t := get(d)
			tk, tv := t[0], t[1]
			if lattice.FlatKind(tk) == lattice.FlatVal {
				tv = uint64((int64(tv)*mul + add) % 17)
			}
			switch {
			case lattice.FlatKind(tk) == lattice.FlatBot:
				// join with ⊥: keep dst
			case lattice.FlatKind(dst[0]) == lattice.FlatBot:
				dst[0], dst[1] = tk, tv
			case lattice.FlatKind(dst[0]) == lattice.FlatVal && lattice.FlatKind(tk) == lattice.FlatVal && dst[1] == tv:
				// equal values: keep dst
			default:
				dst[0], dst[1] = uint64(lattice.FlatTop), 0
			}
		}
		if nm := sp.NonMono; nm >= 0 && lattice.FlatKind(get(ds[nm])[0]) == lattice.FlatTop {
			dst[0], dst[1] = rawReset[0], rawReset[1]
		}
	}
	return rhs, raw
}

// powersetUniverse is the element universe of generated powerset systems.
const powersetUniverse = 16

// PowersetL returns the powerset lattice over the generator's universe
// {0, …, 15}; finite, so join is a sound widening.
func PowersetL() *lattice.SetLattice[int] {
	u := make([]int, powersetUniverse)
	for i := range u {
		u[i] = i
	}
	return lattice.NewSetLattice(u...)
}

// powersetL is PowersetL's lattice, shared read-only by powersetOf.
var powersetL = PowersetL()

// powersetOf returns the subset of {0, …, 15} whose members are the set
// bits of the mask, in one allocation: PowersetL's universe ascends, so its
// raw decoding emits the elements in set order.
func powersetOf(mask uint64) lattice.Set[int] { return powersetL.RawDecode([]uint64{mask}) }

// PowersetSystem interprets the shape over the powerset of {0, …, 15}.
// Monotone terms are unions of (rotated) dependencies; bounds intersect
// with a constant mask; a non-monotonic flip removes an element once the
// chosen dependency has acquired a trigger element.
func PowersetSystem(s *Shape) *eqn.System[int, lattice.Set[int]] {
	sys := eqn.NewSystem[int, lattice.Set[int]]()
	for i := 0; i < len(s.Deps); i++ {
		rhs, raw := PowersetRHS(s.SpecOf(i))
		sys.Define(i, s.Deps[i], rhs)
		sys.AttachRaw(i, raw)
	}
	return sys
}

// PowersetRHS builds the powerset right-hand side a spec describes, with its
// fused unboxed twin: PowersetL's universe is 0..15 in order, so the raw
// encoding maps element e to bit e and every set is one word. Rotating every
// element by +rot mod 16 is a 16-bit rotate of the mask; union, intersection
// and membership are single bit operations.
func PowersetRHS(sp Spec) (eqn.RHS[int, lattice.Set[int]], eqn.RawRHS[int]) {
	ds := sp.Deps
	mat := sp.Mat
	rot := int(mat >> 8 % 3)
	trigger := int(mat >> 27 % powersetUniverse)
	drop := int(mat >> 31 % powersetUniverse)
	baseBits := uint64(1)<<(mat%powersetUniverse) | uint64(1)<<(mat>>4%powersetUniverse)
	maskBits := mat>>11%0xFFFF | uint64(mat%powersetUniverse)<<1 | 1
	boundBits := maskBits&0xFFFF | baseBits
	dropBits := uint64(0xFFFF) &^ (uint64(1) << drop)
	triggerBit := uint64(1) << trigger
	// The boxed form's constants are the raw twin's masks, decoded once:
	// the bound is the mask joined with the base.
	base, bound, dropMask := powersetOf(baseBits), powersetOf(boundBits), powersetOf(dropBits)
	rhs := func(get func(int) lattice.Set[int]) lattice.Set[int] {
		vals := make([]lattice.Set[int], len(ds))
		for k, d := range ds {
			vals[k] = get(d)
		}
		v := base
		for k, t := range vals {
			if sp.Grow && k == 0 && rot > 0 {
				rotated := make([]int, 0, t.Len())
				for _, e := range t.Elems() {
					rotated = append(rotated, (e+rot)%powersetUniverse)
				}
				t = t.Union(lattice.NewSet(rotated...))
			}
			v = v.Union(t)
		}
		if sp.Bound {
			v = v.Intersect(bound)
		}
		if nm := sp.NonMono; nm >= 0 && vals[nm].Has(trigger) {
			v = v.Intersect(dropMask) // antitone: gaining trigger drops an element
		}
		return v
	}
	raw := func(get func(int) []uint64, dst []uint64) {
		v := baseBits
		for k, d := range ds {
			t := get(d)[0]
			if sp.Grow && k == 0 && rot > 0 {
				t |= (t<<rot | t>>(powersetUniverse-rot)) & 0xFFFF
			}
			v |= t
		}
		if sp.Bound {
			v &= boundBits
		}
		if nm := sp.NonMono; nm >= 0 && get(ds[nm])[0]&triggerBit != 0 {
			v &= dropBits
		}
		dst[0] = v
	}
	return rhs, raw
}
