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

// testCore builds the store and the core Run builds for one run of sys,
// shared (CPW's) or not, with the store reset to σ₀; the store goes back
// to the shape's pools when the test ends.
func testCore[X comparable, D any](t *testing.T, sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config, shared bool) execCore[X, D] {
	t.Helper()
	s := newStore(sys, init, wordsFor(l, op, cfg), shared)
	t.Cleanup(s.release)
	if err := s.reset(); err != nil {
		t.Fatal(err)
	}
	vc, _ := newCore(s, l, op, cfg)
	return vc
}

// rawStepper builds the unboxed core for sys, shared (CPW's) or not, and
// fails the test if the store falls back to boxed values — an alloc
// measurement of the wrong core would pass vacuously.
func rawStepper[X comparable, D any](t *testing.T, sys *eqn.System[X, D], l lattice.Lattice[D], shared bool) (func(i int, accel bool) (Phase, bool, int, *EvalError), int) {
	t.Helper()
	vc := testCore(t, sys, l, WarrowOp[X, D](l), eqn.ConstBottom[X, D](l), Config{}, shared)
	if rc, ok := vc.(*rawCore[X, D]); !ok || rc.shared != shared {
		t.Fatalf("got a %T, want a *rawCore with shared=%v (raw gate regressed)", vc, shared)
	}
	return vc.stepper(false), vc.scope().n
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
	step, n := rawStepper(t, g.Interval, lattice.Ints, false)
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
	step, nn := rawStepper(t, sys, lattice.Lattice[lattice.Interval](lattice.Ints), false)
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
	step, nn := rawStepper(t, sys, lattice.Lattice[lattice.Sign](l), false)
	if a := passAllocs(step, nn); a != 0 {
		t.Fatalf("unboxed sign hot path allocates %.2f/eval, want 0", a)
	}
}

func TestUnboxedPowersetEvalAllocFloor(t *testing.T) {
	// Fused powerset right-hand sides (eqgen attaches them) are pure bitset
	// arithmetic: zero allocations, same as interval and sign.
	g := eqgen.New(eqgen.Config{Seed: 7, Dom: eqgen.Powerset, N: 256, FanIn: 3, NonMonoDensity: 0.3})
	pl := eqgen.PowersetL()
	step, n := rawStepper(t, g.Powerset, lattice.Lattice[lattice.Set[int]](pl), false)
	if a := passAllocs(step, n); a != 0 {
		t.Fatalf("fused powerset hot path allocates %.2f/eval, want 0", a)
	}

	// The allocation floor of the powerset domain lives in the boundary
	// adapter: a right-hand side with no fused form reads boxed Sets, and
	// every read decodes the bitset into a fresh element slice (plus any
	// Union of the boxed evaluation that equals neither operand). That
	// cost is per unfused RHS, not a property of the word store —
	// DESIGN.md §11 documents it. The floor measures 2 (one decode per
	// read); the bound leaves it a slack of 2.
	adapter := eqn.NewSystem[int, lattice.Set[int]]()
	seedSet := lattice.NewSet(1, 3)
	for i := 0; i < 64; i++ {
		a, b := (i+1)%64, (i+63)%64
		adapter.Define(i, []int{a, b}, func(get func(int) lattice.Set[int]) lattice.Set[int] {
			return pl.Join(pl.Join(get(a), get(b)), seedSet)
		})
	}
	step, n = rawStepper(t, adapter, lattice.Lattice[lattice.Set[int]](pl), false)
	a := passAllocs(step, n)
	t.Logf("powerset boundary-adapter floor: %.2f allocs/eval", a)
	if a == 0 {
		t.Fatalf("boundary adapter reports zero allocs/eval — the measurement is broken")
	}
	if a > 4 {
		t.Fatalf("powerset boundary adapter allocates %.2f/eval, want <= 4", a)
	}
}

// TestBoxedPowersetRHSAllocs pins what eqgen's boxed powerset right-hand
// sides allocate per evaluation, the cost every boxed powerset solve pays
// (CoreDense, the dense half of the differential and golden tests): over
// the 512 equations of seed 7, each evaluated against the system's
// solution, 264 of them with a growth term. The dependencies are read
// into a per-call stack buffer and a growth term is built as one set, so
// what remains is that set and the unions that equal neither operand:
// 1.41 per evaluation, where reading into a fresh slice and building the
// growth term through Elems, a rotated slice, NewSet and a Union cost 3.35.
func TestBoxedPowersetRHSAllocs(t *testing.T) {
	g := eqgen.New(eqgen.Config{Seed: 7, Dom: eqgen.Powerset, N: 512})
	pl := eqgen.PowersetL()
	sys := g.Powerset
	sigma, _, err := SW(sys, pl, WarrowOp[int](pl), eqn.ConstBottom[int, lattice.Set[int]](pl), Config{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(x int) lattice.Set[int] { return sigma[x] }
	order := sys.Order()
	per := testing.AllocsPerRun(10, func() {
		for _, x := range order {
			sys.RHS(x)(get)
		}
	}) / float64(len(order))
	t.Logf("boxed powerset right-hand sides: %.2f allocs/eval", per)
	if per > 1.5 {
		t.Fatalf("boxed powerset right-hand sides allocate %.2f/eval, want <= 1.5", per)
	}
}

// TestCPWSharedStoreAllocFree: the shared word store CPW's workers run on
// keeps the hot path allocation-free too — every read snapshots into the
// step function's own scratch — both under the seqlock (intervals, two
// words per unknown) and with plain atomic words (powersets of eqgen's
// 16-element universe, one word).
func TestCPWSharedStoreAllocFree(t *testing.T) {
	ig := eqgen.New(eqgen.Config{Seed: 5, Dom: eqgen.Interval, N: 256, FanIn: 3, NonMonoDensity: 0.3})
	pg := eqgen.New(eqgen.Config{Seed: 7, Dom: eqgen.Powerset, N: 256, FanIn: 3, NonMonoDensity: 0.3})
	pl := eqgen.PowersetL()
	if w := lattice.AsRaw[lattice.Interval](lattice.Ints).RawWords(); w != 2 {
		t.Fatalf("interval stride = %d, want 2 (the seqlock case)", w)
	}
	if w := lattice.AsRaw[lattice.Set[int]](pl).RawWords(); w != 1 {
		t.Fatalf("powerset stride = %d, want 1 (the plain atomic case)", w)
	}
	step, n := rawStepper(t, ig.Interval, lattice.Ints, true)
	if a := passAllocs(step, n); a != 0 {
		t.Errorf("shared interval store allocates %.2f/eval, want 0", a)
	}
	step, n = rawStepper(t, pg.Powerset, lattice.Lattice[lattice.Set[int]](pl), true)
	if a := passAllocs(step, n); a != 0 {
		t.Errorf("shared powerset store allocates %.2f/eval, want 0", a)
	}
}

// TestPSWAllocsIndependentOfStrata pins that PSW pays for its workers once
// per run, not once per stratum: a warm run on 2,048 one-unknown strata
// allocates as often as one on a single stratum of the same 2,048
// unknowns, at one worker and at two. The allowance covers what a run of
// two workers sets up once — the second worker's step function and queue,
// the goroutine, the ready list — since the single stratum runs at one
// worker either way. CPW runs one-unknown strata on the calling goroutine,
// so its allocations do not grow with their number either.
func TestPSWAllocsIndependentOfStrata(t *testing.T) {
	l := lattice.Lattice[lattice.Interval](lattice.Ints)
	op, init := WarrowOp[int, lattice.Interval](l), eqn.ConstBottom[int, lattice.Interval](l)
	strata := eqgen.New(eqgen.Config{Seed: 1, Dom: eqgen.Interval, N: 2048, MaxSCC: 1}).Interval
	single := eqgen.New(eqgen.Config{Seed: 1, Dom: eqgen.Interval, N: 2048, GiantSCC: 1}).Interval
	if got := DecompositionOf(strata).NumStrata(); got != 2048 {
		t.Fatalf("MaxSCC 1 recipe has %d strata, want 2048", got)
	}
	if got := DecompositionOf(single).NumStrata(); got != 1 {
		t.Fatalf("GiantSCC 1 recipe has %d strata, want 1", got)
	}
	type solver func(*eqn.System[int, lattice.Interval], lattice.Lattice[lattice.Interval], Operator[int, lattice.Interval], func(int) lattice.Interval, Config) (map[int]lattice.Interval, Stats, error)
	allocs := func(solve solver, sys *eqn.System[int, lattice.Interval], cfg Config) float64 {
		// The first solve memoizes the shape and the stratum DAG.
		if _, _, err := solve(sys, l, op, init, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { solve(sys, l, op, init, cfg) })
	}
	const allowance = 16
	for _, workers := range []int{1, 2} {
		cfg := Config{Workers: workers}
		many, one := allocs(PSW[int, lattice.Interval], strata, cfg), allocs(PSW[int, lattice.Interval], single, cfg)
		t.Logf("psw workers=%d: %.0f allocs on 2048 strata, %.0f on one", workers, many, one)
		if many > one+allowance || one > many+allowance {
			t.Errorf("psw workers=%d: %.0f allocs on 2048 strata, %.0f on one stratum, want equal within %d", workers, many, one, allowance)
		}
		many, one = allocs(CPW[int, lattice.Interval], strata, cfg), allocs(CPW[int, lattice.Interval], single, cfg)
		t.Logf("cpw workers=%d: %.0f allocs on 2048 strata, %.0f on one", workers, many, one)
		if many > one+allowance {
			t.Errorf("cpw workers=%d: %.0f allocs on 2048 strata, %.0f on one stratum, want at most %d more", workers, many, one, allowance)
		}
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
