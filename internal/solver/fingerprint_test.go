package solver

import (
	"strconv"
	"sync/atomic"
	"testing"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// renderedKeys counts renderings of countedKey. ShapeHash renders keys of
// types other than int and string through fmt, so for a system over
// countedKey the count says whether its fingerprint was computed.
var renderedKeys atomic.Int64

type countedKey int

func (k countedKey) String() string {
	renderedKeys.Add(1)
	return strconv.Itoa(int(k))
}

// countedRing is a 40-unknown cycle over intervals that every solver
// stabilizes without widening: x₀ = [0,3] ⊔ x₃₉, xᵢ = xᵢ₋₁.
func countedRing() *eqn.System[countedKey, lattice.Interval] {
	const n = 40
	sys := eqn.NewSystem[countedKey, lattice.Interval]()
	for i := 0; i < n; i++ {
		prev := countedKey((i + n - 1) % n)
		if i == 0 {
			sys.Define(0, []countedKey{prev}, func(get func(countedKey) lattice.Interval) lattice.Interval {
				return lattice.Ints.Join(lattice.Range(0, 3), get(prev))
			})
			continue
		}
		sys.Define(countedKey(i), []countedKey{prev}, func(get func(countedKey) lattice.Interval) lattice.Interval {
			return get(prev)
		})
	}
	return sys
}

// TestFreshSolveSkipsFingerprint: no global entry point hashes its system
// for a solve that neither resumes nor captures a checkpoint — on either
// value store, with the watchdog armed. A captured checkpoint and a resume still do.
func TestFreshSolveSkipsFingerprint(t *testing.T) {
	type solveFn = func(*eqn.System[countedKey, lattice.Interval], lattice.Lattice[lattice.Interval], Operator[countedKey, lattice.Interval], func(countedKey) lattice.Interval, Config) (map[countedKey]lattice.Interval, Stats, error)
	l := lattice.Ints
	op := WarrowOp[countedKey, lattice.Interval](l)
	init := eqn.ConstBottom[countedKey, lattice.Interval](l)
	for _, tc := range []struct {
		name  string
		solve solveFn
	}{
		{"rr", RR[countedKey, lattice.Interval]},
		{"w", W[countedKey, lattice.Interval]},
		{"srr", SRR[countedKey, lattice.Interval]},
		{"sw", SW[countedKey, lattice.Interval]},
		{"psw", PSW[countedKey, lattice.Interval]},
		{"cpw", CPW[countedKey, lattice.Interval]},
		{"slr2", SLR2[countedKey, lattice.Interval]},
		{"slr3", SLR3[countedKey, lattice.Interval]},
		{"slr4", SLR4[countedKey, lattice.Interval]},
	} {
		for _, core := range []Core{CoreAuto, CoreDense} {
			renderedKeys.Store(0)
			if _, _, err := tc.solve(countedRing(), l, op, init, Config{Core: core, Workers: 2, MaxEvals: 1_000_000}); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, core, err)
			}
			if n := renderedKeys.Load(); n != 0 {
				t.Errorf("%s/%s: a fresh solve rendered %d keys, want no fingerprint", tc.name, core, n)
			}
		}
	}

	// The counter is live: a captured checkpoint fingerprints the system,
	// and resuming it checks the fingerprint of the target.
	renderedKeys.Store(0)
	_, _, err := SW(countedRing(), l, op, init, Config{MaxEvals: 5})
	cp, ok := CheckpointOf[countedKey, lattice.Interval](err)
	if !ok {
		t.Fatalf("budget abort carries no checkpoint: %v", err)
	}
	if renderedKeys.Load() == 0 {
		t.Fatal("capturing a checkpoint did not fingerprint the system")
	}
	renderedKeys.Store(0)
	if _, _, err := SW(countedRing(), l, op, init, Config{Resume: cp}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if renderedKeys.Load() == 0 {
		t.Fatal("resuming did not check the fingerprint")
	}
}
