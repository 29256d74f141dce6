package diffsolve

import (
	"testing"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// TestSLRFamilyGeneratedSystems is the widening-point family's property
// test: 60 seeded eqgen interval systems — monotonic and non-monotonic,
// with and without order-inconsistent forward edges — solved by SLR2, SLR3
// and SLR4 on both value stores (boxed, and raw words under the structured
// WarrowOp). The gates:
//
//   - every terminating run certifies via internal/certify (Lemma 1 — the
//     universal guarantee of the family);
//   - the two stores are bit-identical per solver: same values, same
//     Evals/Updates/Restarts;
//   - a non-terminating run aborts with a classified watchdog report.
//
// The precision partial order against the ⊟-everywhere baseline is
// *recorded*, not gated: selective ∇ placement can land the family on
// post-solutions incomparable to (or locally coarser than) the baseline's
// on arbitrary generated systems — the order is a property of structured
// loop programs, where the WCET experiment and diffsolve's StrictOrder
// option enforce it (see Options.StrictOrder).
func TestSLRFamilyGeneratedSystems(t *testing.T) {
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	op := solver.WarrowOp[int](l)
	family := map[string]func(*eqn.System[int, lattice.Interval], lattice.Lattice[lattice.Interval], solver.Operator[int, lattice.Interval], func(int) lattice.Interval, solver.Config) (map[int]lattice.Interval, solver.Stats, error){
		"slr2": solver.SLR2[int, lattice.Interval],
		"slr3": solver.SLR3[int, lattice.Interval],
		"slr4": solver.SLR4[int, lattice.Interval],
	}

	var leq, above, aborted int
	for _, recipe := range recipes(eqgen.Interval, 60) {
		g := eqgen.New(recipe)
		sys := g.Interval
		base, _, baseErr := solver.SW(sys, l, op, init, solver.Config{MaxEvals: 30_000})
		for fname, run := range family {
			ref, refSt, refErr := run(sys, l, op, init, solver.Config{MaxEvals: 30_000, Core: solver.CoreDense})
			if refErr != nil {
				if !acceptableAbort(refErr) {
					t.Fatalf("%s: %s/dense: unclassified error: %v", recipe, fname, refErr)
				}
				aborted++
			} else {
				if rep := certify.System(l, sys, ref, init); !rep.OK() {
					t.Fatalf("%s: %s/dense: %v", recipe, fname, rep.Err())
				}
				if baseErr == nil && (fname == "slr3" || fname == "slr4") {
					ok := true
					for _, x := range sys.Order() {
						if !l.Leq(ref[x], base[x]) {
							ok = false
							break
						}
					}
					if ok {
						leq++
					} else {
						above++
					}
				}
			}
			got, gotSt, err := run(sys, l, op, init, solver.Config{MaxEvals: 30_000})
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: %s/auto termination (err=%v) differs from dense (err=%v)", recipe, fname, err, refErr)
			}
			if err != nil {
				continue
			}
			if rep := certify.System(l, sys, got, init); !rep.OK() {
				t.Fatalf("%s: %s/auto: %v", recipe, fname, rep.Err())
			}
			for _, x := range sys.Order() {
				if !l.Eq(got[x], ref[x]) {
					t.Fatalf("%s: %s/auto: σ[%d]=%s differs from the boxed store's %s",
						recipe, fname, x, got[x], ref[x])
				}
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates || gotSt.Restarts != refSt.Restarts {
				t.Fatalf("%s: %s/auto: stats (%d/%d/%d) differ from the boxed store (%d/%d/%d)",
					recipe, fname, gotSt.Evals, gotSt.Updates, gotSt.Restarts,
					refSt.Evals, refSt.Updates, refSt.Restarts)
			}
		}
	}
	t.Logf("SLR3/SLR4 vs SW on generated systems: %d runs pointwise ≤, %d incomparable/coarser; %d aborted runs", leq, above, aborted)
}
