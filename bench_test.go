// Benchmarks regenerating the paper's evaluation artifacts, one group per
// table/figure:
//
//	BenchmarkFig7/*      — Fig. 7: ⊟ vs two-phase precision runs on the
//	                       WCET suite (the measured quantity is solver
//	                       runtime; precision deltas are reported via -v
//	                       metrics).
//	BenchmarkTable1/*    — Table 1: ∇ vs ⊟, without and with context, on
//	                       the SpecCPU-scale synthetic suite.
//	BenchmarkSolvers/*   — solver micro-benchmarks (RR/W/SRR/SW on chain
//	                       systems; cost model of Theorems 1–2).
//	BenchmarkDegrading   — ⊟ₖ ablation on the non-monotonic oscillator.
//
// Run: go test -bench=. -benchmem
package warrow_test

import (
	"fmt"
	"strings"
	"testing"

	"warrow/internal/analysis"
	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/eqn"
	"warrow/internal/experiments"
	"warrow/internal/lattice"
	"warrow/internal/precision"
	"warrow/internal/solver"
	"warrow/internal/synth"
	"warrow/internal/wcet"
)

// BenchmarkFig7 measures, per WCET benchmark, the ⊟-solver and the
// two-phase baseline under the Fig. 7 configuration, and reports the
// precision improvement as a custom metric.
func BenchmarkFig7(b *testing.B) {
	for _, bench := range wcet.All() {
		ast, err := cint.Parse(bench.Src)
		if err != nil {
			b.Fatal(err)
		}
		g := cfg.Build(ast)
		b.Run(bench.Name+"/warrow", func(b *testing.B) {
			var last *analysis.Result
			for i := 0; i < b.N; i++ {
				last, err = analysis.Run(g, analysis.Options{Op: analysis.OpWarrow, MaxEvals: 20_000_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Stats.Evals), "evals")
			b.ReportMetric(float64(last.NumUnknowns()), "unknowns")
		})
		b.Run(bench.Name+"/twophase", func(b *testing.B) {
			var base *analysis.Result
			for i := 0; i < b.N; i++ {
				base, err = analysis.Run(g, analysis.Options{Op: analysis.OpTwoPhase, MaxEvals: 20_000_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			warrow, err := analysis.Run(g, analysis.Options{Op: analysis.OpWarrow, MaxEvals: 20_000_000})
			if err != nil {
				b.Fatal(err)
			}
			c := precision.Compare(warrow, base)
			b.ReportMetric(c.ImprovedPct(), "%improved")
		})
	}
}

// BenchmarkTable1 measures the four Table 1 configurations per synthetic
// SpecCPU-scale program. The context-sensitive runs are the expensive ones;
// unknown counts are reported as metrics.
func BenchmarkTable1(b *testing.B) {
	type config struct {
		name    string
		ctx     analysis.ContextPolicy
		op      analysis.OpKind
		degrade int
	}
	configs := []config{
		{"noctx/widen", analysis.NoContext, analysis.OpWiden, 0},
		{"noctx/warrow", analysis.NoContext, analysis.OpWarrow, 0},
		{"ctx/widen", analysis.BucketContext, analysis.OpWiden, 0},
		// ⊟₂: the degrading operator of Sec. 4; context-sensitive systems
		// are non-monotonic, so plain ⊟ has no termination guarantee.
		{"ctx/warrow", analysis.BucketContext, analysis.OpWarrow, 2},
	}
	for _, p := range synth.SpecSuite() {
		ast, err := cint.Parse(p.Src)
		if err != nil {
			b.Fatal(err)
		}
		g := cfg.Build(ast)
		for _, c := range configs {
			b.Run(p.Name+"/"+c.name, func(b *testing.B) {
				var last *analysis.Result
				for i := 0; i < b.N; i++ {
					last, err = analysis.Run(g, analysis.Options{
						Context: c.ctx, Op: c.op, DegradeAfter: c.degrade, MaxEvals: 200_000_000,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(last.NumUnknowns()), "unknowns")
				b.ReportMetric(float64(last.Stats.Evals), "evals")
			})
		}
	}
}

// chainSystem builds the n-unknown chain x_i = x_{i-1}+1 capped at h, a
// worst-case for round-robin and a best case for the structured solvers.
func chainSystem(n int, h uint64) *eqn.System[int, lattice.Nat] {
	sys := eqn.NewSystem[int, lattice.Nat]()
	for i := 0; i < n; i++ {
		i := i
		if i == 0 {
			sys.Define(0, nil, func(func(int) lattice.Nat) lattice.Nat {
				return lattice.NatOf(1)
			})
			continue
		}
		sys.Define(i, []int{i - 1}, func(get func(int) lattice.Nat) lattice.Nat {
			v := get(i - 1)
			if v.IsInf() || v.Val() >= h {
				return lattice.NatOf(h)
			}
			return lattice.NatOf(v.Val() + 1)
		})
	}
	return sys
}

// BenchmarkSolvers compares the generic solvers on the chain system with
// ⊞ = ⊔ — the cost model behind Theorems 1 and 2.
func BenchmarkSolvers(b *testing.B) {
	l := lattice.NatInf
	init := func(int) lattice.Nat { return lattice.NatOf(0) }
	op := solver.Op[int](solver.Join[lattice.Nat](l))
	for _, n := range []int{64, 256} {
		sys := chainSystem(n, 32)
		b.Run(fmt.Sprintf("RR/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.RR(sys, l, op, init, solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("W/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.W(sys, l, op, init, solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SRR/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.SRR(sys, l, op, init, solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SW/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.SW(sys, l, op, init, solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SLR/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.SLR(sys.AsPure(), l, op, init, n-1, solver.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wideKey identifies unknown (component, node) of the wide system.
type wideKey struct{ C, N int }

// wideSystem builds a synthetic constraint system of comps independent
// loop nests: component c is a ring of size unknowns circulating a counting
// interval capped by a guard, i.e. one SCC that ⊟ first widens to [0,+inf]
// and then narrows back ring pass by ring pass — the iteration profile of a
// Table 1-scale loop nest. Each right-hand side additionally performs work
// rounds of value-neutral interval arithmetic, emulating the transfer-
// function cost of a real analysis (where evaluating an edge is far more
// expensive than the solver bookkeeping around it).
func wideSystem(comps, size, work int) *eqn.System[wideKey, lattice.Interval] {
	l := lattice.Ints
	one := lattice.Singleton(1)
	heavy := func(v lattice.Interval) lattice.Interval {
		sink := v
		for i := 0; i < work; i++ {
			sink = sink.Add(one)
		}
		// Meet(sink, v) ⊑ v, so joining it back never changes the value:
		// the arithmetic is paid for but the result stays exact.
		return l.Join(v, l.Meet(sink, v))
	}
	sys := eqn.NewSystem[wideKey, lattice.Interval]()
	bound := lattice.Singleton(int64(4 * size))
	for c := 0; c < comps; c++ {
		c := c
		// Head: x₀ = [0,0] ⊔ (x_{size-1} + 1).
		last := wideKey{c, size - 1}
		sys.Define(wideKey{c, 0}, []wideKey{last}, func(get func(wideKey) lattice.Interval) lattice.Interval {
			return heavy(l.Join(lattice.Singleton(0), get(last).Add(one)))
		})
		for j := 1; j < size; j++ {
			j := j
			prev := wideKey{c, j - 1}
			if j == 1 {
				// Guard: x₁ = x₀ restricted below the loop bound — the
				// narrowing handle of the component.
				sys.Define(wideKey{c, j}, []wideKey{prev}, func(get func(wideKey) lattice.Interval) lattice.Interval {
					return heavy(get(prev).RestrictLt(bound))
				})
				continue
			}
			sys.Define(wideKey{c, j}, []wideKey{prev}, func(get func(wideKey) lattice.Interval) lattice.Interval {
				return heavy(get(prev).Add(one))
			})
		}
	}
	return sys
}

// BenchmarkPSW compares sequential SW against the parallel SCC-stratified
// solver PSW at 1/2/4/8 workers on the synthetic wide system: eight
// independent loop nests, so a few heavy strata, where the internal/solver
// BenchmarkPSW rows have many light ones. Solutions are bit-identical by
// construction; the measured quantity is wall clock.
func BenchmarkPSW(b *testing.B) {
	l := lattice.Ints
	sys := wideSystem(8, 1500, 24)
	init := func(wideKey) lattice.Interval { return lattice.EmptyInterval }
	op := func() solver.Operator[wideKey, lattice.Interval] {
		return solver.Op[wideKey](solver.Warrow[lattice.Interval](l))
	}
	b.Run("SW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.SW(sys, l, op(), init, solver.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("PSW/workers=%d", w), func(b *testing.B) {
			var st solver.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = solver.PSW(sys, l, op(), init, solver.Config{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Strata), "strata")
			b.ReportMetric(float64(st.Evals), "evals")
		})
	}
}

// BenchmarkWarrowVsTwoPhaseSolve measures end-to-end solving cost of ⊟ vs
// the two-phase regime on the loop-heavy WCET programs taken together —
// the "⊟ costs about the same" claim of Sec. 7.
func BenchmarkWarrowVsTwoPhaseSolve(b *testing.B) {
	var graphs []*cfg.Program
	for _, bench := range wcet.All() {
		ast, err := cint.Parse(bench.Src)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, cfg.Build(ast))
	}
	b.Run("warrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if _, err := analysis.Run(g, analysis.Options{Op: analysis.OpWarrow, MaxEvals: 20_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("twophase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if _, err := analysis.Run(g, analysis.Options{Op: analysis.OpTwoPhase, MaxEvals: 20_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkDegrading measures the ⊟ₖ ablation: enforcing termination on a
// non-monotonic oscillator for increasing thresholds k.
func BenchmarkDegrading(b *testing.B) {
	l := lattice.Ints
	osc := eqn.NewSystem[string, lattice.Interval]()
	osc.Define("x", []string{"x"}, func(get func(string) lattice.Interval) lattice.Interval {
		v := get("x")
		if v.IsEmpty() {
			return lattice.Singleton(0)
		}
		if v.Hi.IsPosInf() {
			return lattice.Range(0, 5)
		}
		return lattice.NewInterval(lattice.Fin(0), v.Hi.Add(lattice.Fin(1)))
	})
	init := func(string) lattice.Interval { return lattice.EmptyInterval }
	for _, k := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				deg := solver.NewDegrading[string, lattice.Interval](l, k)
				if _, _, err := solver.SRR(osc, l, deg, init, solver.Config{MaxEvals: 100000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The experiments package is exercised here so `go test ./...` covers the
// exact code paths cmd/bench runs.
func TestExperimentsFig7Shape(t *testing.T) {
	r, err := experiments.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 20 {
		t.Fatalf("only %d rows", len(r.Rows))
	}
	if r.WeightedAvg <= 5 {
		t.Errorf("weighted average improvement %.1f%% implausibly low", r.WeightedAvg)
	}
	zero := 0
	for _, row := range r.Rows {
		if row.Improved == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Error("expected at least one 0%-improvement benchmark (qsort-exam analogue)")
	}
	t.Log("\n" + experiments.FormatFig7(r))
}

func TestExperimentsTraces(t *testing.T) {
	out := experiments.TraceExamples()
	for _, want := range []string{"diverges", "terminated"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsCPWSpeedupShape exercises the giant-SCC workload and the
// CPW experiment exactly as cmd/bench -cpw runs them: the system
// must really be one giant component (the envelope's giant_scc stamp), PSW
// must see a single stratum, and every CPW row must come back certified
// (CPWSpeedup errors out otherwise).
func TestExperimentsCPWSpeedupShape(t *testing.T) {
	sys := experiments.GiantSCCSystem(4, 50, 2, 0)
	if frac := experiments.GiantFraction(sys); frac != 1.0 {
		t.Fatalf("giant fraction = %.3f, want 1.0 (ring of chains is one SCC)", frac)
	}
	rows, frac, err := experiments.CPWSpeedup(4, 50, 2, 0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1.0 {
		t.Errorf("reported giant fraction = %.3f, want 1.0", frac)
	}
	if len(rows) != 3 { // psw@1, cpw@1, cpw@2
		t.Fatalf("got %d rows, want 3:\n%s", len(rows), experiments.FormatPerfRows(rows))
	}
	for _, r := range rows {
		if r.Unknowns != 200 || r.Evals == 0 {
			t.Errorf("row %s/w=%d: unknowns %d, evals %d", r.Solver, r.Workers, r.Unknowns, r.Evals)
		}
	}
	t.Log("\n" + experiments.FormatPerfRows(rows))
}
