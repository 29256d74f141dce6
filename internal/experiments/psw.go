// PSW speedup experiment and machine-readable benchmark output.
//
// WideSystem builds the Table 1-scale synthetic constraint system the PSW
// rows measure: many independent loop nests, each a strongly connected
// component of its own, so the stratified scheduler has genuine parallelism
// to exploit. PSWSpeedup runs SW and PSW over it at several worker counts,
// verifies the solutions agree per unknown, and emits PerfRows — the rows
// cmd/bench -json persists to BENCH_*.json so future changes have a perf
// trajectory to compare against.
package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// PerfRow is one machine-readable benchmark measurement. Core distinguishes
// the boxed and word value stores in the dense-vs-unboxed rows; the
// allocation columns are per performed evaluation, measured with
// runtime.MemStats around a dedicated run.
type PerfRow struct {
	Name          string  `json:"name"`
	Solver        string  `json:"solver"`
	Core          string  `json:"core,omitempty"`
	Workers       int     `json:"workers"`
	WallNs        int64   `json:"wall_ns"`
	Evals         int     `json:"evals"`
	Updates       int     `json:"updates"`
	Unknowns      int     `json:"unknowns"`
	AllocsPerEval float64 `json:"allocs_per_eval,omitempty"`
	BytesPerEval  float64 `json:"bytes_per_eval,omitempty"`
}

// BenchFile is the envelope of a BENCH_*.json artifact. Host facts are
// recorded prominently because wall-clock rows are only comparable on like
// hardware — a single-CPU container cannot show parallel speedup, however
// good the decomposition; Note flags exactly that kind of caveat, and
// GeomeanSpeedup summarizes dense-vs-unboxed comparisons.
type BenchFile struct {
	NumCPU         int               `json:"num_cpu"`
	GoMaxProcs     int               `json:"gomaxprocs"`
	GoVersion      string            `json:"go_version"`
	GOOS           string            `json:"goos"`
	GOARCH         string            `json:"goarch"`
	Note           string            `json:"note,omitempty"`
	GeomeanSpeedup float64           `json:"geomean_speedup,omitempty"`
	Breakdown      *GeomeanBreakdown `json:"geomean_breakdown,omitempty"`
	// GiantSCC stamps the -cpw envelopes with the measured fraction of
	// unknowns in the workload's largest SCC (see GiantFraction): the
	// "single giant component" premise of the CPW rows is recorded as a
	// checked fact, not an assertion.
	GiantSCC float64   `json:"giant_scc,omitempty"`
	Rows     []PerfRow `json:"rows"`
}

// WriteBenchJSON writes rows wrapped in a BenchFile to path.
func WriteBenchJSON(path string, rows []PerfRow) error {
	return WriteBenchFile(path, BenchFile{Rows: rows})
}

// WriteBenchFile writes f to path, stamping the machine facts.
func WriteBenchFile(path string, f BenchFile) error {
	f.NumCPU = runtime.NumCPU()
	f.GoMaxProcs = runtime.GOMAXPROCS(0)
	f.GoVersion = runtime.Version()
	f.GOOS = runtime.GOOS
	f.GOARCH = runtime.GOARCH
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WideKey identifies unknown (component, node) of the wide system.
type WideKey struct{ C, N int }

// String renders the unknown.
func (k WideKey) String() string { return fmt.Sprintf("c%d.n%d", k.C, k.N) }

// WideSystem builds a synthetic constraint system of comps independent
// loop nests: component c is a ring of size unknowns circulating a counting
// interval capped by a guard, i.e. one SCC that ⊟ first widens to [0,+inf]
// and then narrows back ring pass by ring pass — the iteration profile of a
// Table 1-scale loop nest. Each right-hand side additionally performs work
// rounds of value-neutral interval arithmetic, emulating the transfer-
// function cost of a real analysis (where evaluating an edge is far more
// expensive than the solver bookkeeping around it).
func WideSystem(comps, size, work int) *eqn.System[WideKey, lattice.Interval] {
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
	sys := eqn.NewSystem[WideKey, lattice.Interval]()
	bound := lattice.Singleton(int64(4 * size))
	for c := 0; c < comps; c++ {
		c := c
		// Head: x₀ = [0,0] ⊔ (x_{size-1} + 1).
		last := WideKey{c, size - 1}
		sys.Define(WideKey{c, 0}, []WideKey{last}, func(get func(WideKey) lattice.Interval) lattice.Interval {
			return heavy(l.Join(lattice.Singleton(0), get(last).Add(one)))
		})
		for j := 1; j < size; j++ {
			j := j
			prev := WideKey{c, j - 1}
			if j == 1 {
				// Guard: x₁ = x₀ restricted below the loop bound — the
				// narrowing handle of the component.
				sys.Define(WideKey{c, j}, []WideKey{prev}, func(get func(WideKey) lattice.Interval) lattice.Interval {
					return heavy(get(prev).RestrictLt(bound))
				})
				continue
			}
			sys.Define(WideKey{c, j}, []WideKey{prev}, func(get func(WideKey) lattice.Interval) lattice.Interval {
				return heavy(get(prev).Add(one))
			})
		}
	}
	return sys
}

// PSWSpeedup measures sequential SW against PSW at the given worker counts
// on WideSystem(comps, size, work), verifying per-unknown equality of every
// PSW run against the SW solution before reporting.
func PSWSpeedup(comps, size, work int, workerCounts []int) ([]PerfRow, error) {
	l := lattice.Ints
	sys := WideSystem(comps, size, work)
	init := func(WideKey) lattice.Interval { return lattice.EmptyInterval }
	op := func() solver.Operator[WideKey, lattice.Interval] {
		return solver.Op[WideKey](solver.Warrow[lattice.Interval](l))
	}
	name := fmt.Sprintf("wide(%dx%d,work=%d)", comps, size, work)

	start := time.Now()
	want, st, err := solver.SW(sys, l, op(), init, solver.Config{Timeout: SolveTimeout})
	if err != nil {
		return nil, fmt.Errorf("%s: SW: %w", name, err)
	}
	rows := []PerfRow{{
		Name: name, Solver: "sw", Workers: 1,
		WallNs: time.Since(start).Nanoseconds(),
		Evals:  st.Evals, Updates: st.Updates, Unknowns: st.Unknowns,
	}}
	for _, w := range workerCounts {
		sigma, pst, err := solver.PSW(sys, l, op(), init, solver.Config{Workers: w, Timeout: SolveTimeout})
		if err != nil {
			return rows, fmt.Errorf("%s: PSW workers=%d: %w", name, w, err)
		}
		for _, x := range sys.Order() {
			if !l.Eq(sigma[x], want[x]) {
				return rows, fmt.Errorf("%s: PSW workers=%d: σ[%v] = %s, SW has %s",
					name, w, x, sigma[x], want[x])
			}
		}
		rows = append(rows, PerfRow{
			Name: name, Solver: "psw", Workers: pst.Workers,
			WallNs: pst.WallNs,
			Evals:  pst.Evals, Updates: pst.Updates, Unknowns: pst.Unknowns,
		})
	}
	return rows, nil
}

// FormatPerfRows renders perf rows as a speedup table against the first
// row's wall time.
func FormatPerfRows(rows []PerfRow) string {
	if len(rows) == 0 {
		return "no perf rows"
	}
	base := rows[0].WallNs
	out := fmt.Sprintf("%-24s %-8s %7s %12s %10s %9s %8s\n",
		"name", "solver", "workers", "wall", "evals", "updates", "speedup")
	for _, r := range rows {
		speedup := "-"
		if r.WallNs > 0 && base > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(base)/float64(r.WallNs))
		}
		out += fmt.Sprintf("%-24s %-8s %7d %12s %10d %9d %8s\n",
			r.Name, r.Solver, r.Workers, time.Duration(r.WallNs).Round(time.Microsecond),
			r.Evals, r.Updates, speedup)
	}
	return out
}

// Table1PerfRows flattens Table 1 measurements into machine-readable rows.
func Table1PerfRows(rows []Table1Row) []PerfRow {
	var out []PerfRow
	for _, r := range rows {
		for _, c := range []struct {
			solver string
			cell   Table1Cell
		}{
			{"slr-widen-noctx", r.WidenNoCtx},
			{"slr-warrow-noctx", r.WarrowNoCtx},
			{"slr-widen-ctx", r.WidenCtx},
			{"slr-warrow-ctx", r.WarrowCtx},
		} {
			out = append(out, PerfRow{
				Name: r.Name, Solver: c.solver, Workers: 1,
				WallNs: c.cell.Time.Nanoseconds(),
				Evals:  c.cell.Evals, Unknowns: c.cell.Unknowns,
			})
		}
	}
	return out
}
