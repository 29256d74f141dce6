package solver

import (
	"fmt"
	"strings"
	"testing"

	"warrow/internal/eqdsl"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// The unboxed core's perf claim is structural: once the stepper exists, an
// evaluation of a fused right-hand side touches only preallocated word
// slices. These guards pin that claim with testing.AllocsPerRun so a future
// change that reintroduces boxing on the hot path fails a test, not a
// benchmark eyeball.

// rawStepper builds the unboxed core for sys and fails the test if buildCore
// falls back to boxed values — an alloc measurement of the wrong core would
// pass vacuously.
func rawStepper[X comparable, D any](t *testing.T, sys *eqn.System[X, D], l lattice.Lattice[D]) (func(i int) (bool, int, *EvalError), int) {
	t.Helper()
	vc, _ := buildCore(sys, l, WarrowOp[X, D](l), eqn.ConstBottom[X, D](l), Config{})
	t.Cleanup(vc.release)
	if _, ok := vc.(*rawCore[X, D]); !ok {
		t.Fatalf("buildCore returned %T, want *rawCore (raw gate regressed)", vc)
	}
	return vc.stepper(), len(vc.shape().order)
}

// passAllocs measures steady-state allocations per evaluation: a few warm-up
// passes first (widening transients, pool growth), then AllocsPerRun over
// full passes.
func passAllocs(step func(i int) (bool, int, *EvalError), n int) float64 {
	for r := 0; r < 4; r++ {
		for i := 0; i < n; i++ {
			step(i)
		}
	}
	perPass := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			step(i)
		}
	})
	return perPass / float64(n)
}

func TestUnboxedIntervalEvalAllocFree(t *testing.T) {
	g := eqgen.New(eqgen.Config{Seed: 5, Dom: eqgen.Interval, N: 256, FanIn: 3, NonMonoDensity: 0.3})
	step, n := rawStepper(t, g.Interval, lattice.Ints)
	if a := passAllocs(step, n); a != 0 {
		t.Fatalf("unboxed interval hot path allocates %.2f/eval, want 0", a)
	}
}

// TestUnboxedEqdslIntervalEvalAllocFree: the postfix programs eqdsl
// attaches to parsed interval systems keep their operand stack on the
// stack of each evaluation.
func TestUnboxedEqdslIntervalEvalAllocFree(t *testing.T) {
	var b strings.Builder
	b.WriteString("domain interval\n")
	const n = 64
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "x%d = meet(join([0,0], x%d + [1,1]), [-inf,%d]) - (x%d - join(x%d, [1,2]))\n",
			i, (i+n-1)%n, 50+i, (i+3)%n, (i+5)%n)
	}
	f, err := eqdsl.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	step, nn := rawStepper(t, sys, lattice.Lattice[lattice.Interval](lattice.Ints))
	if a := passAllocs(step, nn); a != 0 {
		t.Fatalf("unboxed eqdsl interval hot path allocates %.2f/eval, want 0", a)
	}
}

func TestUnboxedSignEvalAllocFree(t *testing.T) {
	// A handwritten ring over the sign domain with manually attached raw
	// right-hand sides: the fused form recomputes the boxed one on Sign
	// values pulled straight out of the word store.
	l := lattice.Signs
	sys := eqn.NewSystem[int, lattice.Sign]()
	const n = 64
	for i := 0; i < n; i++ {
		i := i
		a, b := (i+1)%n, (i+n-1)%n
		sys.Define(i, []int{a, b}, func(get func(int) lattice.Sign) lattice.Sign {
			s := get(a).Add(get(b).Neg())
			if i%7 == 0 {
				s = l.Join(s, lattice.SignPos)
			}
			if i%5 == 0 {
				s = l.Meet(s, lattice.SignGe0)
			}
			return s
		})
		sys.AttachRaw(i, func(get func(int) []uint64, dst []uint64) {
			s := lattice.Sign(get(a)[0]).Add(lattice.Sign(get(b)[0]).Neg())
			if i%7 == 0 {
				s |= lattice.SignPos
			}
			if i%5 == 0 {
				s &= lattice.SignGe0
			}
			dst[0] = uint64(s)
		})
	}
	step, nn := rawStepper(t, sys, lattice.Lattice[lattice.Sign](l))
	if a := passAllocs(step, nn); a != 0 {
		t.Fatalf("unboxed sign hot path allocates %.2f/eval, want 0", a)
	}
}

func TestUnboxedPowersetEvalAllocFloor(t *testing.T) {
	// Fused powerset right-hand sides (eqgen attaches them) are pure bitset
	// arithmetic: zero allocations, same as interval and sign.
	g := eqgen.New(eqgen.Config{Seed: 7, Dom: eqgen.Powerset, N: 256, FanIn: 3, NonMonoDensity: 0.3})
	pl := eqgen.PowersetL()
	step, n := rawStepper(t, g.Powerset, lattice.Lattice[lattice.Set[int]](pl))
	if a := passAllocs(step, n); a != 0 {
		t.Fatalf("fused powerset hot path allocates %.2f/eval, want 0", a)
	}

	// The allocation floor of the powerset domain lives in the boundary
	// adapter: a right-hand side with no fused form reads boxed Sets, and
	// every read decodes the bitset into a fresh map (plus the Union/encode
	// traffic of the boxed evaluation). That cost is per unfused RHS, not a
	// property of the word store — DESIGN.md §11 documents it. The guard
	// below only keeps the adapter from regressing into something
	// pathological.
	adapter := eqn.NewSystem[int, lattice.Set[int]]()
	seedSet := lattice.NewSet(1, 3)
	for i := 0; i < 64; i++ {
		a, b := (i+1)%64, (i+63)%64
		adapter.Define(i, []int{a, b}, func(get func(int) lattice.Set[int]) lattice.Set[int] {
			return pl.Join(pl.Join(get(a), get(b)), seedSet)
		})
	}
	step, n = rawStepper(t, adapter, lattice.Lattice[lattice.Set[int]](pl))
	a := passAllocs(step, n)
	t.Logf("powerset boundary-adapter floor: %.2f allocs/eval", a)
	if a == 0 {
		t.Fatalf("boundary adapter reports zero allocs/eval — the measurement is broken")
	}
	if a > 32 {
		t.Fatalf("powerset boundary adapter allocates %.2f/eval, want <= 32", a)
	}
}
