package diffsolve

import (
	"testing"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// recipeFromWords decodes a fuzzer-chosen (seed, knobs) pair into an eqgen
// reproduction recipe. Every knob is carved from a bit field of knobs so the
// fuzzer can mutate them independently; eqgen's Defaults() clamps whatever
// comes out, so the full uint64 range is safe.
func recipeFromWords(seed, knobs uint64) eqgen.Config {
	pct := func(bits uint64) float64 { return float64(bits%101) / 100 }
	return eqgen.Config{
		Seed:           seed,
		Dom:            eqgen.Domain(knobs % 3),
		N:              4 + int((knobs>>2)%24),
		FanIn:          int((knobs >> 7) % 5),
		MaxSCC:         1 + int((knobs>>10)%6),
		CycleDensity:   pct(knobs >> 13),
		WidenDensity:   pct(knobs >> 20),
		NonMonoDensity: pct(knobs>>27) / 2,
		ForwardDensity: pct(knobs>>34) / 3,
	}
}

// FuzzSolvers feeds fuzzer-chosen generator recipes through the full
// differential matrix: every terminating solver must certify, and PSW must
// be bit-identical to SW. The same recipe then runs the cross-store
// verdict, which solves with the structured WarrowOp and so reaches the
// word store: RR, W, SRR, SW and PSW on both stores against the map
// transcription of Figs. 1–4. A crash here is a reproduction recipe — the
// failure message embeds the eqgen.Config that rebuilds the system.
func FuzzSolvers(f *testing.F) {
	f.Add(uint64(1), uint64(0))                      // defaults, interval
	f.Add(uint64(2), uint64(1))                      // flat domain
	f.Add(uint64(3), uint64(2))                      // powerset domain
	f.Add(uint64(7), uint64(0x00_40_00_00_00_28_54)) // non-monotonic interval
	f.Add(uint64(11), uint64(0x09_20_00_32_19_7d))   // forward edges, wide SCCs
	f.Add(uint64(24), uint64(73_424_976))            // slr3 post-solution incomparable to sw's
	f.Fuzz(func(t *testing.T, seed, knobs uint64) {
		cfg := recipeFromWords(seed, knobs)
		opt := Options{MaxEvals: 20_000, Workers: []int{1, 3}}
		if err := CheckGenerated(cfg, opt); err != nil {
			t.Fatal(err)
		}
		if err := CheckGeneratedCores(cfg, opt); err != nil {
			t.Fatal(err)
		}
	})
}

// certifyOracle cross-checks certify.System against the independent
// eqn.IsPostSolution oracle on a solver-produced candidate that the fuzzer
// may corrupt: same accept/reject verdict, and on reject the first
// counterexample names the oracle's first violated unknown with evidence
// that actually violates ⊑.
func certifyOracle[X comparable, D any](t *testing.T, l lattice.Lattice[D], sys *eqn.System[X, D], mut uint64, high, tweak D) {
	t.Helper()
	init := eqn.ConstBottom[X, D](l)
	op := solver.Op[X](solver.Warrow[D](l))
	sigma, _, _ := solver.SW(sys, l, op, init, solver.Config{MaxEvals: 20_000})
	order := sys.Order()
	if n := len(order); n > 0 {
		x := order[int(mut%uint64(n))]
		switch (mut >> 32) % 4 {
		case 1:
			sigma[x] = l.Bottom()
		case 2:
			sigma[x] = high
		case 3:
			sigma[x] = tweak
		}
	}
	rep := certify.System(l, sys, sigma, init)
	ox, ok := eqn.IsPostSolution(l, sys, sigma, init)
	if rep.OK() != ok {
		t.Fatalf("certifier says ok=%v, oracle says ok=%v (first bad unknown %v)", rep.OK(), ok, ox)
	}
	if ok {
		return
	}
	v := rep.Violations[0]
	if v.Unknown != ox {
		t.Fatalf("first counterexample names %v, oracle names %v", v.Unknown, ox)
	}
	if v.Kind != certify.NotPost {
		t.Fatalf("violation kind = %v, want NotPost", v.Kind)
	}
	if l.Leq(v.Got, v.Want) {
		t.Fatalf("evidence does not violate ⊑: got=%s want=%s", l.Format(v.Got), l.Format(v.Want))
	}
}

// FuzzCertify fuzzes the certifier itself: generate a system, solve it with
// SW+⊟, optionally corrupt one unknown (to ⊥, to a high element, or to an
// unrelated constant), and demand the certifier agree with the independent
// post-solution oracle — rejecting with precise, ⊑-violating evidence.
func FuzzCertify(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))               // untouched solution, must accept
	f.Add(uint64(2), uint64(0), uint64(1)<<32)           // lowered to ⊥
	f.Add(uint64(3), uint64(1), uint64(2)<<32|uint64(4)) // flat, raised high
	f.Add(uint64(5), uint64(2), uint64(3)<<32|uint64(7)) // powerset, tweaked
	f.Fuzz(func(t *testing.T, seed, knobs, mut uint64) {
		cfg := recipeFromWords(seed, knobs)
		g := eqgen.New(cfg)
		switch {
		case g.Interval != nil:
			certifyOracle[int, lattice.Interval](t, lattice.Ints, g.Interval, mut,
				lattice.FullInterval, lattice.Range(-3, 3))
		case g.Flat != nil:
			l := eqgen.FlatL
			certifyOracle[int, lattice.Flat[int64]](t, l, g.Flat, mut,
				l.Top(), lattice.FlatOf(int64(42)))
		case g.Powerset != nil:
			l := eqgen.PowersetL()
			certifyOracle[int, lattice.Set[int]](t, l, g.Powerset, mut,
				l.Top(), lattice.NewSet(3))
		}
	})
}
