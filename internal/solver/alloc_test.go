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
func rawStepper[X comparable, D any](t *testing.T, sys *eqn.System[X, D], l lattice.Lattice[D]) (func(i int, accel bool) (Phase, bool, int, *EvalError), int) {
	t.Helper()
	vc, _ := buildCore(sys, l, WarrowOp[X, D](l), eqn.ConstBottom[X, D](l), Config{})
	t.Cleanup(vc.release)
	if _, ok := vc.(*rawCore[X, D]); !ok {
		t.Fatalf("buildCore returned %T, want *rawCore (raw gate regressed)", vc)
	}
	return vc.stepper(false), len(vc.shape().order)
}

// passAllocs measures steady-state allocations per evaluation: a few warm-up
// passes first (widening transients, pool growth), then AllocsPerRun over
// full passes.
func passAllocs(step func(i int, accel bool) (Phase, bool, int, *EvalError), n int) float64 {
	for r := 0; r < 4; r++ {
		for i := 0; i < n; i++ {
			step(i, true)
		}
	}
	perPass := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			step(i, true)
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

// boundedRing is an n-unknown interval ring whose right-hand sides allocate
// nothing: x0 = [0,0] ⊔ (x[n-1] + 1) and x[i] = x[i-1] for i > 0, each
// clamped to [0, k]. Under plain join every trip around the ring raises
// each unknown's upper bound by one, so a solve performs about n·k updates
// over the same n unknowns. Unknown n is a sink: every x[i] side-effects
// its value onto it, and x0 also reads it, for SLR⁺. The right-hand sides
// are built once, so sys and sides return existing closures.
func boundedRing(n int, k int64) (eqn.Pure[int, lattice.Interval], eqn.Sides[int, lattice.Interval]) {
	l := lattice.Ints
	clamp := lattice.NewInterval(lattice.Fin(0), lattice.Fin(k))
	pure := make([]eqn.RHS[int, lattice.Interval], n)
	sides := make([]eqn.SideRHS[int, lattice.Interval], n)
	for i := 0; i < n; i++ {
		prev := (i + n - 1) % n
		step := lattice.Singleton(0)
		if i == 0 {
			step = lattice.Singleton(1)
		}
		pure[i] = func(get func(int) lattice.Interval) lattice.Interval {
			return l.Meet(l.Join(lattice.Singleton(0), get(prev).Add(step)), clamp)
		}
		sides[i] = func(get func(int) lattice.Interval, side func(int, lattice.Interval)) lattice.Interval {
			v := l.Meet(l.Join(lattice.Singleton(0), get(prev).Add(step)), clamp)
			if i == 0 {
				v = l.Meet(l.Join(v, get(n).Add(step)), clamp)
			}
			side(n, v)
			return v
		}
	}
	return func(x int) eqn.RHS[int, lattice.Interval] {
			if x < n {
				return pure[x]
			}
			return nil
		}, func(x int) eqn.SideRHS[int, lattice.Interval] {
			if x < n {
				return sides[x]
			}
			return nil
		}
}

// TestLocalSolverAllocsFlatInUpdates pins that SLR's and SLR⁺'s
// bookkeeping allocates per discovered unknown, never per update: on the
// same ring, ten times the updates must not cost more allocations. The
// numbered store resets influence rows in place and queues numbers in a
// reused heap, so only discovery and the final Values map allocate.
func TestLocalSolverAllocsFlatInUpdates(t *testing.T) {
	const n = 200
	l := lattice.Lattice[lattice.Interval](lattice.Ints)
	op := JoinOp[int, lattice.Interval](l)
	init := func(int) lattice.Interval { return lattice.EmptyInterval }
	solvers := []struct {
		name string
		run  func(k int64) Stats
	}{
		{"slr", func(k int64) Stats {
			pure, _ := boundedRing(n, k)
			res, err := SLR(pure, l, op, init, 0, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
		{"slr+", func(k int64) Stats {
			_, sides := boundedRing(n, k)
			res, err := SLRPlus(sides, l, op, init, 0, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			measure := func(k int64) (float64, Stats) {
				st := s.run(k)
				// boundedRing's own closures are counted too; they are the
				// same for every k.
				return testing.AllocsPerRun(5, func() { s.run(k) }), st
			}
			few, stFew := measure(4)
			many, stMany := measure(40)
			extra := stMany.Updates - stFew.Updates
			if extra < 10*n {
				t.Fatalf("ring did not scale its updates: %d at k=4, %d at k=40", stFew.Updates, stMany.Updates)
			}
			t.Logf("k=4: %d updates, %.0f allocs; k=40: %d updates, %.0f allocs",
				stFew.Updates, few, stMany.Updates, many)
			if per := (many - few) / float64(extra); per > 0.01 {
				t.Fatalf("%.3f allocs per extra update (%.0f → %.0f allocs for %d extra updates), want none",
					per, few, many, extra)
			}
		})
	}
}
