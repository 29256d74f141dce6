package eqgen

// Seeded mutation of generated systems: the edit-workload generator behind
// the incremental re-solve harness (internal/incr's tests,
// diffsolve.CheckIncremental and perfbench's edit-stream). A mutation
// redefines an unknown's equation in place — fresh constant material,
// re-rolled widening/bound/flip flags, and occasionally a changed
// dependence list — through eqn.RedefineRaw, so both
// the boxed right-hand side and its fused unboxed twin are replaced in one
// step and same-dependences edits patch compiled solver shapes instead of
// discarding them. The same (seed, k) always produces the same edit batch:
// a failing fuzz input is a complete reproduction recipe, exactly like the
// generator configs themselves.

// Mutate applies k seeded redefinitions to a generated system, each to a
// distinct unknown, and returns the edited unknowns' indices in application
// order. The Shape is never modified: it remains the record of the original
// generation, and every new right-hand side captures its own Spec. About a
// quarter of the edits also change the unknown's dependence list (dropping
// one dependence or adding a fresh one), exercising the full shape
// invalidation path; the rest keep the dependences, exercising in-place
// patching of memoized compiled shapes.
func Mutate(g System, seed uint64, k int) []int {
	s := g.Shape
	n := len(s.Deps)
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	r := &rng{s: seed ^ 0xa24baed4963ee407}
	edited := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(edited) < k {
		i := r.intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		edited = append(edited, i)

		sp := s.SpecOf(i)
		sp.Deps = append([]int(nil), sp.Deps...)
		if r.prob(0.25) {
			if len(sp.Deps) > 1 && r.prob(0.5) {
				// Drop one dependence.
				di := r.intn(len(sp.Deps))
				sp.Deps = append(sp.Deps[:di], sp.Deps[di+1:]...)
			} else {
				// Add a fresh one (any target: backward, forward, or a new
				// cycle — the cone is recomputed from the edited graph).
				j := r.intn(n)
				dup := false
				for _, d := range sp.Deps {
					if d == j {
						dup = true
						break
					}
				}
				if !dup {
					sp.Deps = append(sp.Deps, j)
				}
			}
		}
		sp.Mat = r.next()
		sp.Grow = r.prob(s.Cfg.WidenDensity)
		sp.Bound = r.prob(0.7)
		sp.NonMono = -1
		if len(sp.Deps) > 0 && r.prob(s.Cfg.NonMonoDensity) {
			sp.NonMono = r.intn(len(sp.Deps))
		}

		switch {
		case g.Interval != nil:
			rhs, raw := IntervalRHS(sp)
			g.Interval.RedefineRaw(i, sp.Deps, rhs, raw)
		case g.Flat != nil:
			rhs, raw := FlatRHS(sp)
			g.Flat.RedefineRaw(i, sp.Deps, rhs, raw)
		case g.Powerset != nil:
			rhs, raw := PowersetRHS(sp)
			g.Powerset.RedefineRaw(i, sp.Deps, rhs, raw)
		}
	}
	return edited
}
