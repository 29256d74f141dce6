package solver

import (
	"testing"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// TestAddStatsOverStrataMatchesSW replays SW stratum by stratum on a wide
// generated system and folds the per-stratum Stats with addStats: the fold
// must reproduce the whole-system SW run exactly on Evals and Updates, and
// its MaxQueue must equal PSW's documented semantics — the largest
// per-stratum queue high-water mark — rather than SW's global one. This
// pins down what addStats means for queue statistics: summing work counters
// while taking the maximum over scheduling units.
func TestAddStatsOverStrataMatchesSW(t *testing.T) {
	// A wide, order-consistent system: many small SCC blocks, no forward
	// cross-block edges, so stratify yields one stratum per block.
	g := eqgen.New(eqgen.Config{Seed: 11, Dom: eqgen.Interval, N: 120, MaxSCC: 3, FanIn: 2, WidenDensity: 0.6})
	sys := g.Interval
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	op := Op[int](Warrow[lattice.Interval](l))
	cfg := Config{MaxEvals: 2_000_000}

	swSigma, swSt, err := SW(sys, l, op, init, cfg)
	if err != nil {
		t.Fatalf("sw: %v", err)
	}
	pswSigma, pswSt, err := PSW(sys, l, op, init, Config{MaxEvals: cfg.MaxEvals, Workers: 4})
	if err != nil {
		t.Fatalf("psw: %v", err)
	}

	strata := stratify(eqn.InflOf(sys.DepGraph()))
	if len(strata) < 10 {
		t.Fatalf("system not wide enough for the test: %d strata", len(strata))
	}

	// Replay: solve each stratum as its own subsystem with SW, reading the
	// already-solved strata through init, and fold the Stats.
	order := sys.Order()
	acc := make(map[int]lattice.Interval, len(order))
	var merged Stats
	for _, s := range strata {
		sub := eqn.NewSystem[int, lattice.Interval]()
		for i := s.lo; i <= s.hi; i++ {
			x := order[i]
			var deps []int
			for _, d := range sys.Deps(x) {
				if d >= s.lo && d <= s.hi {
					deps = append(deps, d)
				}
			}
			sub.Define(x, deps, sys.RHS(x))
		}
		subInit := func(y int) lattice.Interval {
			if v, ok := acc[y]; ok {
				return v
			}
			return init(y)
		}
		sigma, st, err := SW(sub, l, op, subInit, cfg)
		if err != nil {
			t.Fatalf("stratum [%d,%d]: %v", s.lo, s.hi, err)
		}
		for x, v := range sigma {
			acc[x] = v
		}
		merged = addStats(merged, st)
	}

	if merged.Evals != swSt.Evals || merged.Updates != swSt.Updates {
		t.Errorf("merged evals/updates %d/%d, sw %d/%d", merged.Evals, merged.Updates, swSt.Evals, swSt.Updates)
	}
	if merged.Evals != pswSt.Evals || merged.Updates != pswSt.Updates {
		t.Errorf("merged evals/updates %d/%d, psw %d/%d", merged.Evals, merged.Updates, pswSt.Evals, pswSt.Updates)
	}
	if merged.MaxQueue != pswSt.MaxQueue {
		t.Errorf("merged MaxQueue %d, psw %d (largest per-stratum queue)", merged.MaxQueue, pswSt.MaxQueue)
	}
	if pswSt.MaxQueue > swSt.MaxQueue {
		t.Errorf("psw MaxQueue %d exceeds sw global MaxQueue %d", pswSt.MaxQueue, swSt.MaxQueue)
	}
	// The replayed values agree with both whole-system runs.
	for _, x := range order {
		if !l.Eq(acc[x], swSigma[x]) || !l.Eq(acc[x], pswSigma[x]) {
			t.Fatalf("replayed value of x%d = %s, sw %s, psw %s",
				x, l.Format(acc[x]), l.Format(swSigma[x]), l.Format(pswSigma[x]))
		}
	}
}
