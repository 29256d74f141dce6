package experiments

// Edit-workload benchmark for the incremental re-solve engine: how much of
// a from-scratch solve does an edit actually cost? Each case solves a
// generated system once, then pushes three edit sweeps through an
// incremental engine — a single localized edit (one unknown in the last
// stratum, fresh constant material, same dependences), a 1% batch and a 10%
// batch of random eqgen.Mutate edits — measuring the incremental re-solve
// against a from-scratch run of the same solver on the edited system. Every
// pair is gated on bit-identity, and the single-edit rows on ≥1000-unknown
// systems are additionally gated on the headline claim: the incremental
// re-solve performs less than 25% of the scratch evaluations.
//
// The single edit deliberately targets the last stratum. eqgen's dependence
// edges reach uniformly far back, so the influence cone of a *random*
// unknown covers about half the system — the random-target sweeps (1%, 10%)
// show exactly that graceful degradation toward scratch cost. The localized
// row models the common incremental scenario (a leaf-ward definition
// changes) where the cone, and hence the work, collapses to one stratum.

import (
	"fmt"
	"math"
	"time"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/incr"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// IncrCase is one system of the edit-workload benchmark.
type IncrCase struct {
	Cfg      eqgen.Config
	EditSeed uint64
}

// IncrCases returns the benchmark matrix: one ≥1000-unknown system per
// domain (shrunk for CI smoke runs).
func IncrCases(smoke bool) []IncrCase {
	n := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	return []IncrCase{
		{Cfg: eqgen.Config{Seed: 101, Dom: eqgen.Interval, N: n(1500, 150)}, EditSeed: 1},
		{Cfg: eqgen.Config{Seed: 202, Dom: eqgen.Flat, N: n(1200, 120)}, EditSeed: 2},
		{Cfg: eqgen.Config{Seed: 303, Dom: eqgen.Powerset, N: n(1000, 100)}, EditSeed: 3},
	}
}

// IncrWorkload runs the edit-workload benchmark and returns the perf rows
// in scratch/incremental pairs plus the geometric-mean wall-clock speedup
// of incremental over scratch across all sweeps.
func IncrWorkload(cases []IncrCase) ([]PerfRow, float64, error) {
	var rows []PerfRow
	var logSum float64
	var pairs int
	for _, c := range cases {
		g := eqgen.New(c.Cfg)
		var rs []PerfRow
		var ratios []float64
		var err error
		switch {
		case g.Interval != nil:
			rs, ratios, err = incrRows(lattice.Ints, g, g.Interval, c, eqgen.IntervalRHS)
		case g.Flat != nil:
			rs, ratios, err = incrRows(eqgen.FlatL, g, g.Flat, c, eqgen.FlatRHS)
		case g.Powerset != nil:
			rs, ratios, err = incrRows(eqgen.PowersetL(), g, g.Powerset, c, eqgen.PowersetRHS)
		}
		rows = append(rows, rs...)
		if err != nil {
			return rows, 0, err
		}
		for _, r := range ratios {
			if r > 0 {
				logSum += math.Log(r)
				pairs++
			}
		}
	}
	geomean := 0.0
	if pairs > 0 {
		geomean = math.Exp(logSum / float64(pairs))
	}
	return rows, geomean, nil
}

func incrRows[D any](l lattice.Lattice[D], g eqgen.System, sys *eqn.System[int, D], c IncrCase,
	build func(eqgen.Spec) (eqn.RHS[int, D], eqn.RawRHS[int])) ([]PerfRow, []float64, error) {
	n := sys.Len()
	init := eqn.ConstBottom[int, D](l)
	eng, err := incr.New(l, sys, init, "sw")
	if err != nil {
		return nil, nil, err
	}
	cfg := solver.Config{Timeout: SolveTimeout}
	name := fmt.Sprintf("incr(%s,n=%d)", c.Cfg.Dom, n)
	if _, err := eng.Solve(cfg); err != nil {
		return nil, nil, fmt.Errorf("%s: initial solve: %w", name, err)
	}

	onePct, tenPct := maxInt(1, n/100), maxInt(1, n/10)
	sweeps := []struct {
		label string
		k     int
		tail  bool
	}{
		{"k=1@tail", 1, true},
		{fmt.Sprintf("k=%d(1%%)", onePct), onePct, false},
		{fmt.Sprintf("k=%d(10%%)", tenPct), tenPct, false},
	}
	var rows []PerfRow
	var ratios []float64
	for si, sw := range sweeps {
		if sw.tail {
			// Localized edit: fresh material for one unknown of the last
			// stratum, dependences unchanged (the compiled shape is patched,
			// not rebuilt).
			strata := solver.DecompositionOf(sys).Strata()
			i := strata[len(strata)-1].Lo
			sp := g.Shape.SpecOf(i)
			sp.Mat = (c.EditSeed + uint64(si)) * 0x9e3779b97f4a7c15
			rhs, raw := build(sp)
			sys.RedefineRaw(i, sp.Deps, rhs, raw)
		} else {
			eqgen.Mutate(g, c.EditSeed+uint64(si)*0x6c62272e07bb0142, sw.k)
		}

		t0 := time.Now()
		res, err := eng.Resolve(cfg)
		incrWall := time.Since(t0).Nanoseconds()
		if err != nil {
			return rows, ratios, fmt.Errorf("%s/%s: incremental resolve: %w", name, sw.label, err)
		}
		t1 := time.Now()
		sigma, st, err := solver.SW(sys, l, solver.WarrowOp[int](l), eng.Init(), cfg)
		scratchWall := time.Since(t1).Nanoseconds()
		if err != nil {
			return rows, ratios, fmt.Errorf("%s/%s: scratch solve: %w", name, sw.label, err)
		}
		for _, x := range sys.Order() {
			if !l.Eq(res.Values[x], sigma[x]) {
				return rows, ratios, fmt.Errorf("%s/%s: incremental value of %v = %s, scratch = %s",
					name, sw.label, x, l.Format(res.Values[x]), l.Format(sigma[x]))
			}
		}
		if sw.tail && n >= 1000 && 4*res.Stats.Evals >= st.Evals {
			return rows, ratios, fmt.Errorf("%s/%s: incremental evals %d are not under 25%% of scratch %d",
				name, sw.label, res.Stats.Evals, st.Evals)
		}
		rows = append(rows,
			PerfRow{Name: name + "/" + sw.label, Solver: "sw", Core: "scratch", Workers: 1,
				WallNs: scratchWall, Evals: st.Evals, Updates: st.Updates, Unknowns: n},
			PerfRow{Name: name + "/" + sw.label, Solver: "sw", Core: "incr", Workers: 1,
				WallNs: incrWall, Evals: res.Stats.Evals, Updates: res.Stats.Updates, Unknowns: res.DirtyUnknowns})
		if incrWall > 0 {
			ratios = append(ratios, float64(scratchWall)/float64(incrWall))
		}
	}
	return rows, ratios, nil
}

// FormatIncrRows renders the scratch/incremental pairs as a table with
// per-sweep evaluation shares and wall-clock speedups.
func FormatIncrRows(rows []PerfRow, geomean float64) string {
	out := fmt.Sprintf("%-32s %-8s %12s %10s %9s %8s %9s\n",
		"name", "run", "wall", "evals", "dirty", "evals%", "speedup")
	for i := 0; i+1 < len(rows); i += 2 {
		s, r := rows[i], rows[i+1]
		share, speedup := "-", "-"
		if s.Evals > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(r.Evals)/float64(s.Evals))
		}
		if r.WallNs > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(s.WallNs)/float64(r.WallNs))
		}
		out += fmt.Sprintf("%-32s %-8s %12s %10d %9s %8s %9s\n",
			s.Name, "scratch", time.Duration(s.WallNs).Round(time.Microsecond), s.Evals, "-", "-", "-")
		out += fmt.Sprintf("%-32s %-8s %12s %10d %9d %8s %9s\n",
			r.Name, "incr", time.Duration(r.WallNs).Round(time.Microsecond), r.Evals, r.Unknowns, share, speedup)
	}
	if geomean > 0 {
		out += fmt.Sprintf("geomean incremental speedup: %.2fx\n", geomean)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
