// Dense-boxed vs unboxed value-store macro benchmark.
//
// UnboxedVsDense drives the four global solvers over seeded eqgen systems,
// once per value store — boxed (Config.CoreDense, which pins the []D
// assignment) and words (Config.CoreAuto, which compiles interval, flat
// and powerset values into flat machine words and runs the fused raw
// right-hand sides) — verifies that the word-store run is bit-identical to
// the boxed one, and reports wall-clock plus allocations per evaluation.
// The headline number is the geometric-mean unboxed-over-dense wall-clock
// speedup, broken down per solver and per domain; cmd/bench -unboxed
// persists the rows to BENCH_unboxed.json.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// DenseCase is one macro-benchmark system of the dense-vs-unboxed comparison.
type DenseCase struct {
	Name string
	Gen  eqgen.Config
}

// DenseCases returns the benchmark matrix. The smoke matrix is a strict
// subset sized for CI; the full matrix covers all three eqgen domains,
// systems up to the generator's 4096-unknown cap, and a deliberately
// non-monotone instance.
func DenseCases(smoke bool) []DenseCase {
	if smoke {
		return []DenseCase{
			{"interval-1k", eqgen.Config{Seed: 11, Dom: eqgen.Interval, N: 1024, FanIn: 3, MaxSCC: 6}},
			{"flat-512", eqgen.Config{Seed: 13, Dom: eqgen.Flat, N: 512, FanIn: 3, MaxSCC: 6}},
		}
	}
	return []DenseCase{
		{"interval-1k", eqgen.Config{Seed: 11, Dom: eqgen.Interval, N: 1024, FanIn: 3, MaxSCC: 6}},
		{"interval-4k", eqgen.Config{Seed: 12, Dom: eqgen.Interval, N: 4096, FanIn: 4, MaxSCC: 8}},
		{"interval-nonmono-2k", eqgen.Config{Seed: 21, Dom: eqgen.Interval, N: 2048, FanIn: 3, MaxSCC: 6, NonMonoDensity: 0.25}},
		{"flat-2k", eqgen.Config{Seed: 13, Dom: eqgen.Flat, N: 2048, FanIn: 3, MaxSCC: 6}},
		{"powerset-1k", eqgen.Config{Seed: 17, Dom: eqgen.Powerset, N: 1024, FanIn: 3, MaxSCC: 6}},
	}
}

// denseBudget bounds every benchmark solve. Plain worklist iteration with
// ⊟ carries no termination guarantee — that is the paper's motivating
// observation — so a (system, solver) pair that exhausts the budget is
// reported as diverged and skipped rather than hanging the suite.
const denseBudget = 20_000_000

// GeomeanBreakdown slices a geometric-mean speedup along the two benchmark
// axes. Each entry is the geomean over the (system, solver) pairs matching
// the key, so the aggregate can be traced to the solver loops or domains
// that earn (or lose) it.
type GeomeanBreakdown struct {
	BySolver map[string]float64 `json:"by_solver"`
	ByDomain map[string]float64 `json:"by_domain"`
}

// speedupLog is one measured pair tagged with its breakdown keys.
type speedupLog struct {
	solver string
	domain string
	log    float64
}

func geomeanOf(logs []speedupLog, key func(speedupLog) string) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, s := range logs {
		k := key(s)
		sums[k] += s.log
		counts[k]++
	}
	out := make(map[string]float64, len(sums))
	for k, sum := range sums {
		out[k] = round2(math.Exp(sum / float64(counts[k])))
	}
	return out
}

// denseRun is one global solver of the matrix, parameterized over the Config.
type denseRun[D any] struct {
	name string
	run  func(solver.Config) (map[int]D, solver.Stats, error)
}

// UnboxedVsDense runs the matrix with reps timed repetitions per (system,
// solver, core) and returns the rows, the overall geomean unboxed-over-dense
// speedup, its per-solver/per-domain breakdown, and notes for skipped pairs.
func UnboxedVsDense(cases []DenseCase, reps int) ([]PerfRow, float64, *GeomeanBreakdown, []string, error) {
	var rows []PerfRow
	var logs []speedupLog
	var notes []string
	for _, dc := range cases {
		g := eqgen.New(dc.Gen)
		var (
			caseRows  []PerfRow
			caseLogs  []speedupLog
			caseNotes []string
			err       error
		)
		switch {
		case g.Interval != nil:
			caseRows, caseLogs, caseNotes, err = unboxedCaseRows(dc.Name, "interval", lattice.Ints, g.Interval, reps)
		case g.Flat != nil:
			caseRows, caseLogs, caseNotes, err = unboxedCaseRows(dc.Name, "flat", eqgen.FlatL, g.Flat, reps)
		case g.Powerset != nil:
			caseRows, caseLogs, caseNotes, err = unboxedCaseRows(dc.Name, "powerset", eqgen.PowersetL(), g.Powerset, reps)
		}
		if err != nil {
			return rows, 0, nil, notes, fmt.Errorf("%s: %w", dc.Name, err)
		}
		rows = append(rows, caseRows...)
		logs = append(logs, caseLogs...)
		notes = append(notes, caseNotes...)
	}
	if len(logs) == 0 {
		return rows, 0, nil, notes, nil
	}
	sum := 0.0
	for _, s := range logs {
		sum += s.log
	}
	bd := &GeomeanBreakdown{
		BySolver: geomeanOf(logs, func(s speedupLog) string { return s.solver }),
		ByDomain: geomeanOf(logs, func(s speedupLog) string { return s.domain }),
	}
	return rows, math.Exp(sum / float64(len(logs))), bd, notes, nil
}

func unboxedCaseRows[D any](name, domain string, l lattice.Lattice[D], sys *eqn.System[int, D], reps int) ([]PerfRow, []speedupLog, []string, error) {
	init := eqn.ConstBottom[int, D](l)
	// The structured operator is what unlocks the word store; the boxed
	// store applies it through the identical Apply, so both runs use the
	// same ⊟ semantics.
	op := func() solver.Operator[int, D] { return solver.WarrowOp[int, D](l) }
	runs := []denseRun[D]{
		{"rr", func(c solver.Config) (map[int]D, solver.Stats, error) { return solver.RR(sys, l, op(), init, c) }},
		{"w", func(c solver.Config) (map[int]D, solver.Stats, error) { return solver.W(sys, l, op(), init, c) }},
		{"srr", func(c solver.Config) (map[int]D, solver.Stats, error) { return solver.SRR(sys, l, op(), init, c) }},
		{"sw", func(c solver.Config) (map[int]D, solver.Stats, error) { return solver.SW(sys, l, op(), init, c) }},
	}
	var rows []PerfRow
	var logs []speedupLog
	var notes []string
	for _, r := range runs {
		cfg := func(core solver.Core) solver.Config {
			return solver.Config{Core: core, MaxEvals: denseBudget, Timeout: SolveTimeout}
		}
		denseSigma, denseSt, err := r.run(cfg(solver.CoreDense))
		if err != nil {
			if rep, ok := solver.ReportOf(err); ok && rep.Reason == solver.AbortBudget {
				notes = append(notes, fmt.Sprintf(
					"%s/%s skipped: no fixpoint within %d evals (unstructured iteration with the warrow operator need not terminate)",
					name, r.name, denseBudget))
				continue
			}
			return rows, logs, notes, fmt.Errorf("%s dense: %w", r.name, err)
		}
		// Bit-identity gate: the unboxed rows claim nothing unless the word
		// encodings reproduce the boxed computation exactly.
		sigma, st, err := r.run(cfg(solver.CoreAuto))
		if err != nil {
			return rows, logs, notes, fmt.Errorf("%s unboxed: %w", r.name, err)
		}
		if denseSt.Evals != st.Evals || denseSt.Updates != st.Updates ||
			denseSt.Rounds != st.Rounds || denseSt.MaxQueue != st.MaxQueue {
			return rows, logs, notes, fmt.Errorf("%s: stores diverge: dense %+v, unboxed %+v", r.name, denseSt, st)
		}
		for x, v := range denseSigma {
			if !l.Eq(v, sigma[x]) {
				return rows, logs, notes, fmt.Errorf("%s: unboxed store diverges at σ[%d]", r.name, x)
			}
		}
		denseWall, denseAllocs, denseBytes, err := denseMeasure(r.run, cfg(solver.CoreDense), reps)
		if err != nil {
			return rows, logs, notes, fmt.Errorf("%s dense: %w", r.name, err)
		}
		ubWall, ubAllocs, ubBytes, err := denseMeasure(r.run, cfg(solver.CoreAuto), reps)
		if err != nil {
			return rows, logs, notes, fmt.Errorf("%s unboxed: %w", r.name, err)
		}
		evals := float64(denseSt.Evals)
		rows = append(rows,
			PerfRow{
				Name: name, Solver: r.name, Core: "dense", Workers: 1,
				WallNs: denseWall, Evals: denseSt.Evals, Updates: denseSt.Updates, Unknowns: denseSt.Unknowns,
				AllocsPerEval: round2(float64(denseAllocs) / evals), BytesPerEval: round2(float64(denseBytes) / evals),
			},
			PerfRow{
				Name: name, Solver: r.name, Core: "unboxed", Workers: 1,
				WallNs: ubWall, Evals: denseSt.Evals, Updates: denseSt.Updates, Unknowns: denseSt.Unknowns,
				AllocsPerEval: round2(float64(ubAllocs) / evals), BytesPerEval: round2(float64(ubBytes) / evals),
			})
		logs = append(logs, speedupLog{r.name, domain, math.Log(float64(denseWall) / float64(ubWall))})
	}
	return rows, logs, notes, nil
}

// FormatUnboxedRows renders the dense-vs-unboxed rows as per-pair speedup
// lines followed by the geomean and its breakdown.
func FormatUnboxedRows(rows []PerfRow, geomean float64, bd *GeomeanBreakdown) string {
	out := fmt.Sprintf("%-22s %-6s %12s %12s %8s %14s %14s\n",
		"name", "solver", "dense", "unboxed", "speedup", "allocs/eval", "(dense)")
	for i := 0; i+1 < len(rows); i += 2 {
		d, u := rows[i], rows[i+1]
		if d.Core != "dense" || u.Core != "unboxed" || d.Solver != u.Solver {
			continue
		}
		out += fmt.Sprintf("%-22s %-6s %12s %12s %7.2fx %14.2f %14.2f\n",
			d.Name, d.Solver,
			time.Duration(d.WallNs).Round(time.Microsecond),
			time.Duration(u.WallNs).Round(time.Microsecond),
			float64(d.WallNs)/float64(u.WallNs),
			u.AllocsPerEval, d.AllocsPerEval)
	}
	out += fmt.Sprintf("geomean unboxed-core speedup: %.2fx\n", geomean)
	if bd != nil {
		out += fmt.Sprintf("  by solver: %v\n  by domain: %v\n", bd.BySolver, bd.ByDomain)
	}
	return out
}

// denseMeasure times reps runs and measures the allocation profile of reps
// further runs via the runtime's monotonic allocation counters, reporting
// the minimum of each — the standard way to suppress scheduler and GC
// noise. Each rep starts from a freshly collected heap so GC pacing from
// earlier runs cannot bleed into the measurement, and runs shorter than
// 100ms get extra reps (minimums of short runs are noisy).
func denseMeasure[D any](run func(solver.Config) (map[int]D, solver.Stats, error), cfg solver.Config, reps int) (wallNs int64, allocs, bytes uint64, err error) {
	wallNs = math.MaxInt64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if _, _, err = run(cfg); err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(start).Nanoseconds()
		if d < wallNs {
			wallNs = d
		}
		if i == reps-1 && d < (100*time.Millisecond).Nanoseconds() && reps < 10 {
			reps++
		}
	}
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err = run(cfg); err != nil {
			return 0, 0, 0, err
		}
		runtime.ReadMemStats(&m1)
		if a := m1.Mallocs - m0.Mallocs; a < allocs {
			allocs = a
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; b < bytes {
			bytes = b
		}
	}
	return wallNs, allocs, bytes, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
