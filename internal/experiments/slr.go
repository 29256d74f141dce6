package experiments

import (
	"fmt"
	"sort"
	"strings"

	"warrow/internal/analysis"
	"warrow/internal/certify"
	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
	"warrow/internal/wcet"
)

// slrSolvers is the column order of the SLR experiment: the ⊟-everywhere
// warrow baseline first, then the widening-point family.
var slrSolvers = []string{"sw", "slr2", "slr3", "slr4"}

// SLRWCETRow is one (benchmark, solver) cell of the Fig. 7 extension: the
// work spent and the precision reached on the materialized analysis system
// of one WCET program. Precision is the paper's sum-of-interval-widths
// metric over every binding of every unknown; infinite bounds are counted
// separately instead of saturating the sum.
type SLRWCETRow struct {
	Bench    string `json:"bench"`
	Solver   string `json:"solver"`
	Unknowns int    `json:"unknowns"`
	Evals    int    `json:"evals"`
	Restarts int    `json:"restarts,omitempty"`
	// WidthSum totals hi−lo over all finite-bounded non-empty intervals.
	WidthSum int64 `json:"width_sum"`
	// InfBounds counts interval ends at ±∞.
	InfBounds int `json:"inf_bounds"`
	// LeqSW reports pointwise σ ≤ σ_SW over all unknowns (true for sw).
	LeqSW bool `json:"leq_sw"`
	// Tighter counts unknowns with σ strictly below σ_SW.
	Tighter int `json:"tighter_points,omitempty"`
}

// SLRResult is the full outcome of the -slr experiment.
type SLRResult struct {
	WCET []SLRWCETRow `json:"wcet_rows"`
	// EqgenEvals totals right-hand-side evaluations per solver over the
	// eqgen macro matrix.
	EqgenEvals map[string]int `json:"eqgen_total_evals"`
	// TighterCases lists WCET benchmarks on which SLR3/SLR4 computed
	// strictly tighter invariants than the warrow baseline.
	TighterCases []string `json:"tighter_cases"`
}

// SLRBench runs the widening-point family experiment: per WCET benchmark,
// materialize the NoContext analysis system (analysis.StaticSystem), solve
// it with SW and SLR2/SLR3/SLR4, certify every result via internal/certify,
// and measure evaluations and precision; then total evaluations over the
// eqgen macro matrix. It enforces the acceptance gate: every run certified,
// SLR3/SLR4 pointwise ≤ AND strictly tighter than the warrow baseline on at
// least one WCET case, and fewer total evaluations than SW on the macro
// matrix. Per-case order is recorded in LeqSW, not gated per case: on a
// minority of benchmarks selective ∇ placement lands the family on
// certified post-solutions incomparable to SW's (see FormatSLR's "!" mark).
func SLRBench(workers int, smoke bool) (*SLRResult, error) {
	benches := wcet.All()
	if smoke {
		if len(benches) > 6 {
			benches = benches[:6]
		}
	}
	type benchOut struct {
		rows    []SLRWCETRow
		tighter bool
	}
	outs, err := fanOut(workers, len(benches), func(i int) (benchOut, error) {
		return slrWCETBench(benches[i])
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &SLRResult{EqgenEvals: map[string]int{}}
	for i, o := range outs {
		res.WCET = append(res.WCET, o.rows...)
		if o.tighter {
			res.TighterCases = append(res.TighterCases, benches[i].Name)
		}
	}
	if len(res.TighterCases) == 0 {
		return res, fmt.Errorf("slr: no WCET case with SLR3/SLR4 invariants pointwise ≤ and strictly tighter than the warrow baseline")
	}

	if err := slrEqgenMatrix(res.EqgenEvals, smoke); err != nil {
		return res, err
	}
	for _, name := range slrSolvers[1:] {
		if res.EqgenEvals[name] >= res.EqgenEvals["sw"] {
			return res, fmt.Errorf("slr: %s spent %d evals on the eqgen macro matrix, not fewer than sw's %d",
				name, res.EqgenEvals[name], res.EqgenEvals["sw"])
		}
	}
	return res, nil
}

// slrWCETBench materializes and solves one WCET benchmark with every column.
func slrWCETBench(b wcet.Benchmark) (struct {
	rows    []SLRWCETRow
	tighter bool
}, error) {
	var out struct {
		rows    []SLRWCETRow
		tighter bool
	}
	ast, err := cint.Parse(b.Src)
	if err != nil {
		return out, fmt.Errorf("%s: parse: %w", b.Name, err)
	}
	prog := cfg.Build(ast)
	sys, l, err := analysis.StaticSystemOf(prog)
	if err != nil {
		return out, fmt.Errorf("%s: materialize: %w", b.Name, err)
	}
	init := func(analysis.Key) analysis.Env { return analysis.BotEnv }
	op := solver.Op[analysis.Key](solver.Warrow[analysis.Env](l))
	cfgS := solver.Config{MaxEvals: 20_000_000, Timeout: SolveTimeout}

	type run struct {
		sigma map[analysis.Key]analysis.Env
		st    solver.Stats
	}
	runs := map[string]run{}
	for _, name := range slrSolvers {
		sigma, st, rerr := solver.Run(name, sys, l, op, init, cfgS)
		if rerr != nil {
			return out, fmt.Errorf("%s: %s: %w", b.Name, name, rerr)
		}
		if rep := certify.System[analysis.Key, analysis.Env](l, sys, sigma, init); !rep.OK() {
			return out, fmt.Errorf("%s: %s: certification: %w", b.Name, name, rep.Err())
		}
		runs[name] = run{sigma, st}
	}

	base := runs["sw"].sigma
	for _, name := range slrSolvers {
		r := runs[name]
		row := SLRWCETRow{
			Bench:    b.Name,
			Solver:   name,
			Unknowns: sys.Len(),
			Evals:    r.st.Evals,
			Restarts: r.st.Restarts,
			LeqSW:    true,
		}
		for _, x := range sys.Order() {
			env := r.sigma[x]
			if env.IsBot() {
				continue
			}
			for _, id := range env.Ids() {
				iv := env.Get(id)
				if iv.IsEmpty() {
					continue
				}
				if iv.Lo.IsFinite() {
					if iv.Hi.IsFinite() {
						row.WidthSum += iv.Hi.Int() - iv.Lo.Int()
					}
				} else {
					row.InfBounds++
				}
				if !iv.Hi.IsFinite() {
					row.InfBounds++
				}
			}
			if name != "sw" {
				switch {
				case l.Eq(env, base[x]):
				case l.Leq(env, base[x]):
					row.Tighter++
				default:
					row.LeqSW = false
				}
			}
		}
		if (name == "slr3" || name == "slr4") && row.LeqSW && row.Tighter > 0 {
			out.tighter = true
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// slrEqgenMatrix totals the evaluation spend of every column over the eqgen
// macro matrix: monotone loop-shaped systems at macro sizes. The SCC blocks
// are kept small (MaxSCC 4) deliberately — that is the shape of real control
// flow, where cycles are loops with a handful of unknowns each, and it is
// the regime the widening-point family is built for. On large random
// strongly-connected blocks the restart cascades of SLR3/SLR4 reset most of
// the component per nesting level and re-ascension dominates; selective
// widening (SLR2) still wins there, restarting does not. Every run must
// terminate and certify.
func slrEqgenMatrix(totals map[string]int, smoke bool) error {
	sizes := []int{64, 192, 512}
	seeds := []uint64{3, 17, 41}
	if smoke {
		sizes, seeds = sizes[:2], seeds[:2]
	}
	l := lattice.Ints
	init := eqn.ConstBottom[int, lattice.Interval](l)
	op := solver.Op[int](solver.Warrow[lattice.Interval](l))
	for _, n := range sizes {
		for _, seed := range seeds {
			shape := eqgen.BuildShape(eqgen.Config{
				Seed: seed, Dom: eqgen.Interval, N: n,
				FanIn: 2, MaxSCC: 4, WidenDensity: 0.6,
			})
			sys := eqgen.IntervalSystem(shape)
			cfgS := solver.Config{MaxEvals: 20_000_000, Timeout: SolveTimeout}
			for _, name := range slrSolvers {
				sigma, st, err := solver.Run(name, sys, l, op, init, cfgS)
				if err != nil {
					return fmt.Errorf("slr eqgen n=%d seed=%d: %s: %w", n, seed, name, err)
				}
				if rep := certify.System(l, sys, sigma, init); !rep.OK() {
					return fmt.Errorf("slr eqgen n=%d seed=%d: %s: certification: %w", n, seed, name, rep.Err())
				}
				totals[name] += st.Evals
			}
		}
	}
	return nil
}

// FormatSLR renders the experiment as the Fig. 7-style text table.
func FormatSLR(res *SLRResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %9s | %10s %9s %9s | %6s %8s\n",
		"bench", "unknowns", "solver", "evals", "restarts", "width", "tighter")
	byBench := map[string][]SLRWCETRow{}
	var order []string
	for _, r := range res.WCET {
		if len(byBench[r.Bench]) == 0 {
			order = append(order, r.Bench)
		}
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}
	for _, bench := range order {
		for i, r := range byBench[bench] {
			name, unk := "", ""
			if i == 0 {
				name, unk = r.Bench, fmt.Sprint(r.Unknowns)
			}
			tight := ""
			if r.Solver != "sw" {
				tight = fmt.Sprint(r.Tighter)
				if !r.LeqSW {
					tight += "!"
				}
			}
			fmt.Fprintf(&sb, "%-14s %9s | %10s %9d %9d | %6s %8s\n",
				name, unk, r.Solver, r.Evals, r.Restarts,
				fmt.Sprintf("%d+%d∞", r.WidthSum, r.InfBounds), tight)
		}
	}
	keys := make([]string, 0, len(res.EqgenEvals))
	for k := range res.EqgenEvals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&sb, "\neqgen macro matrix total evals:")
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %s=%d", k, res.EqgenEvals[k])
	}
	fmt.Fprintf(&sb, "\nstrictly tighter WCET cases: %s\n", strings.Join(res.TighterCases, ", "))
	return sb.String()
}

// SLRBenchFile is the envelope of the committed BENCH_slr.json artifact.
// Every number in it is a deterministic work or precision count, so the
// artifact is reproducible on any host; the Host stamp records provenance
// only.
type SLRBenchFile struct {
	Host
	Note string `json:"note,omitempty"`
	SLRResult
}

// WriteSLRBench writes the experiment result to path, stamping host facts.
func WriteSLRBench(path, note string, res *SLRResult) error {
	return writeJSON(path, SLRBenchFile{Host: thisHost(), Note: note, SLRResult: *res})
}
