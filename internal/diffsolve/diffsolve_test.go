package diffsolve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warrow/internal/certify"
	"warrow/internal/eqdsl"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// recipes returns the seeded reproduction recipes the property tests sweep:
// per domain, a spread of sizes, fan-ins, SCC shapes, non-monotonicity doses
// and order-inconsistent (forward-edge) systems.
func recipes(dom eqgen.Domain, seeds int) []eqgen.Config {
	out := make([]eqgen.Config, 0, seeds)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		out = append(out, eqgen.Config{
			Seed:           seed,
			Dom:            dom,
			N:              6 + int(seed%14),
			FanIn:          int(seed % 4),
			MaxSCC:         1 + int(seed%5),
			WidenDensity:   0.3 + 0.1*float64(seed%5),
			NonMonoDensity: 0.2 * float64(seed%3),
			ForwardDensity: 0.25 * float64(seed%2),
		})
	}
	return out
}

// TestDifferentialOnGeneratedSystems is the harness's own property test:
// 120 seeded systems (40 per domain, monotonic and non-monotonic, with and
// without order-consistent linearizations) must produce no differential
// disagreement — every terminating solver certifies, and PSW matches SW
// bit-for-bit.
func TestDifferentialOnGeneratedSystems(t *testing.T) {
	for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
		dom := dom
		t.Run(dom.String(), func(t *testing.T) {
			t.Parallel()
			for _, cfg := range recipes(dom, 40) {
				if err := CheckGenerated(cfg, Options{MaxEvals: 30_000, Workers: []int{1, 3}}); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// pswVsSW runs SW and PSW at several worker counts and demands bit-identical
// results: same termination status, and on termination the same values,
// Evals and Updates.
func pswVsSW[X comparable, D any](t *testing.T, tag string, l lattice.Lattice[D], sys *eqn.System[X, D], workers []int) {
	t.Helper()
	op := solver.Op[X](solver.Warrow[D](l))
	init := eqn.ConstBottom[X, D](l)
	cfg := solver.Config{MaxEvals: 50_000}
	swSigma, swSt, swErr := solver.SW(sys, l, op, init, cfg)
	for _, w := range workers {
		pcfg := cfg
		pcfg.Workers = w
		sigma, st, err := solver.PSW(sys, l, op, init, pcfg)
		if (err == nil) != (swErr == nil) {
			t.Errorf("%s w=%d: termination err=%v, sw err=%v", tag, w, err, swErr)
			continue
		}
		if err != nil {
			if !errors.Is(err, solver.ErrEvalBudget) || st.Evals != swSt.Evals {
				t.Errorf("%s w=%d: err=%v evals=%d, sw evals=%d", tag, w, err, st.Evals, swSt.Evals)
			}
			continue
		}
		if st.Evals != swSt.Evals || st.Updates != swSt.Updates {
			t.Errorf("%s w=%d: evals/updates %d/%d, sw %d/%d",
				tag, w, st.Evals, st.Updates, swSt.Evals, swSt.Updates)
		}
		for _, x := range sys.Order() {
			if !l.Eq(sigma[x], swSigma[x]) {
				t.Errorf("%s w=%d: value %v = %s, sw %s", tag, w, x, l.Format(sigma[x]), l.Format(swSigma[x]))
				break
			}
		}
	}
}

// TestPSWMatchesSWAcrossWorkerCounts replaces the reliance on hand-picked
// systems: 50 machine-generated systems — mixed domains, SCC shapes,
// non-monotonic doses, and order-inconsistent linearizations — are solved
// at worker counts 1, 2, 4 and 8 and compared against SW on values, Evals
// and Updates. Run under -race by the tier-2 gate.
func TestPSWMatchesSWAcrossWorkerCounts(t *testing.T) {
	workers := []int{1, 2, 4, 8}
	for seed := uint64(1); seed <= 50; seed++ {
		cfg := eqgen.Config{
			Seed:           seed,
			Dom:            eqgen.Domain(seed % 3),
			N:              8 + int(seed%25),
			FanIn:          int(seed % 4),
			MaxSCC:         1 + int(seed%6),
			NonMonoDensity: 0.25 * float64(seed%2),
			ForwardDensity: 0.2 * float64(seed%3),
		}
		tag := cfg.String()
		g := eqgen.New(cfg)
		switch {
		case g.Interval != nil:
			pswVsSW(t, tag, lattice.Lattice[lattice.Interval](lattice.Ints), g.Interval, workers)
		case g.Flat != nil:
			pswVsSW(t, tag, lattice.Lattice[lattice.Flat[int64]](eqgen.FlatL), g.Flat, workers)
		case g.Powerset != nil:
			pswVsSW(t, tag, lattice.Lattice[lattice.Set[int]](eqgen.PowersetL()), g.Powerset, workers)
		}
	}
}

// systemsDir is the repository's example-system directory.
const systemsDir = "../../examples/systems"

// checkEqFile runs the differential matrix on a parsed .eq system and then
// the mutation property: for every unknown whose lowering to ⊥ is
// falsifiable (the re-evaluated right-hand side exceeds ⊥), the certifier
// must reject the mutated solution with a counterexample naming exactly
// that unknown.
func checkEqFile[D any](t *testing.T, name string, l lattice.Lattice[D], sys *eqn.System[string, D], init func(string) D) {
	t.Helper()
	if err := Check(l, sys, init, Options{MaxEvals: 50_000, Workers: []int{1, 2, 4}}); err != nil {
		t.Errorf("%s: %v", name, err)
	}

	op := solver.Op[string](solver.Warrow[D](l))
	sigma, _, err := solver.SW(sys, l, op, init, solver.Config{MaxEvals: 50_000})
	if err != nil {
		t.Fatalf("%s: sw: %v", name, err)
	}
	rejected := 0
	for _, x := range sys.Order() {
		mut := make(map[string]D, len(sigma))
		for k, v := range sigma {
			mut[k] = v
		}
		mut[x] = l.Bottom()
		if l.Leq(sys.Eval(x, mut, init), l.Bottom()) {
			continue // lowering x is not falsifiable at x itself
		}
		rep := certify.System(l, sys, mut, init)
		if rep.OK() {
			t.Errorf("%s: solution with %s lowered to ⊥ certified", name, x)
			continue
		}
		named := false
		for _, v := range rep.Violations {
			if v.Unknown == x && v.Kind == certify.NotPost {
				named = true
			}
		}
		if !named {
			t.Errorf("%s: lowering %s rejected, but no counterexample names it: %s", name, x, rep)
		}
		rejected++
	}
	if rejected == 0 {
		t.Errorf("%s: no lowering was falsifiable — mutation property vacuous", name)
	}
}

// TestCertifierOnExampleSystems: every .eq system in examples/systems goes
// through the full differential matrix (terminating solvers certify,
// divergence tolerated for the generic solvers), plus the hand-mutation
// rejection property.
func TestCertifierOnExampleSystems(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(systemsDir, "*.eq"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example systems found: %v", err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := eqdsl.Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			if f.Open {
				t.Skip("edit overlay, not a closed system")
			}
			switch f.Domain {
			case eqdsl.DomainNatInf:
				sys, err := f.NatSystem()
				if err != nil {
					t.Fatal(err)
				}
				checkEqFile(t, path, lattice.Lattice[lattice.Nat](lattice.NatInf), sys,
					func(string) lattice.Nat { return lattice.NatOf(0) })
			case eqdsl.DomainInterval:
				sys, err := f.IntervalSystem()
				if err != nil {
					t.Fatal(err)
				}
				checkEqFile(t, path, lattice.Lattice[lattice.Interval](lattice.Ints),
					sys, func(string) lattice.Interval { return lattice.EmptyInterval })
			}
		})
	}
}

// loadNatExample parses one of the paper's example systems.
func loadNatExample(t *testing.T, name string) *eqn.System[string, lattice.Nat] {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(systemsDir, name))
	if err != nil {
		t.Fatal(err)
	}
	f, err := eqdsl.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.NatSystem()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNonTerminationRegressionExamples encodes the paper's Examples 1 and 2
// as budgeted regression tests: the generic solvers RR (Example 1) and W
// (Example 2) exhaust their evaluation budget with ⊟ even though both
// systems are finite and monotonic, while the structured solvers SRR, SW
// and SLR terminate — and their results certify as post-solutions, which by
// Lemma 1 is exactly what termination must deliver.
func TestNonTerminationRegressionExamples(t *testing.T) {
	l := lattice.NatInf
	op := solver.Op[string](solver.Warrow[lattice.Nat](l))
	init := func(string) lattice.Nat { return lattice.NatOf(0) }
	budget := solver.Config{MaxEvals: 20_000}

	cases := []struct {
		file     string
		diverges string // the generic solver the paper proves divergent
	}{
		{"example1.eq", "rr"},
		{"example2.eq", "w"},
	}
	for _, c := range cases {
		sys := loadNatExample(t, c.file)

		_, _, err := solver.Run(c.diverges, sys, l, op, init, budget)
		if !errors.Is(err, solver.ErrEvalBudget) {
			t.Errorf("%s: %s with ⊟ should exhaust its budget, got %v", c.file, c.diverges, err)
		}

		structured := []struct {
			name string
			run  func() (map[string]lattice.Nat, error)
		}{
			{"srr", func() (map[string]lattice.Nat, error) {
				sigma, _, err := solver.SRR(sys, l, op, init, budget)
				return sigma, err
			}},
			{"sw", func() (map[string]lattice.Nat, error) {
				sigma, _, err := solver.SW(sys, l, op, init, budget)
				return sigma, err
			}},
			{"slr", func() (map[string]lattice.Nat, error) {
				res, err := solver.SLR(sys.AsPure(), l, op, init, sys.Order()[0], budget)
				return res.Values, err
			}},
		}
		for _, s := range structured {
			sigma, err := s.run()
			if err != nil {
				t.Errorf("%s: %s with ⊟ must terminate on the monotonic system: %v", c.file, s.name, err)
				continue
			}
			var rep interface {
				OK() bool
				Err() error
			}
			if s.name == "slr" {
				rep = certify.Partial(l, sys.AsPure(), sigma, init)
			} else {
				rep = certify.System(l, sys, sigma, init)
			}
			if !rep.OK() {
				t.Errorf("%s: %s terminated but did not certify: %v", c.file, s.name, rep.Err())
			}
		}
	}
}

// TestCheckReportsMismatch: a deliberately broken differential comparison
// must surface — feed Check a system whose SW result we can't corrupt
// directly, so instead corrupt via certify on a constant system to ensure
// Check's certification plumbing can fail at all (guards against a harness
// that silently passes everything).
func TestCheckReportsMismatch(t *testing.T) {
	// A constant system certifies trivially; Check must return nil.
	l := lattice.Ints
	sys := eqn.NewSystem[string, lattice.Interval]()
	sys.Define("c", nil, func(func(string) lattice.Interval) lattice.Interval {
		return lattice.Singleton(7)
	})
	init := func(string) lattice.Interval { return lattice.EmptyInterval }
	if err := Check(l, sys, init, Options{}); err != nil {
		t.Fatalf("constant system: %v", err)
	}
	// The certifier the harness calls must reject a corrupted map (sanity
	// that the Outcome wiring uses the same init/system it solved with).
	rep := certify.System(l, sys, map[string]lattice.Interval{"c": lattice.EmptyInterval}, init)
	if rep.OK() {
		t.Fatal("corrupted constant solution certified")
	}
	if want := "c"; fmt.Sprint(rep.Violations[0].Unknown) != want {
		t.Fatalf("counterexample names %v, want %s", rep.Violations[0].Unknown, want)
	}
	if !strings.Contains(rep.String(), "[7,7]") {
		t.Fatalf("report lacks recomputed evidence: %s", rep)
	}
}
