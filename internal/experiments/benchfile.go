// Machine-readable benchmark output: the perf rows cmd/bench -json writes
// and the envelope of every committed BENCH_*.json artifact.
package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// PerfRow is one machine-readable benchmark row: the work counts of one
// solve, never a wall time.
type PerfRow struct {
	Name     string `json:"name"`
	Solver   string `json:"solver"`
	Workers  int    `json:"workers"`
	Evals    int    `json:"evals"`
	Updates  int    `json:"updates"`
	Unknowns int    `json:"unknowns"`
}

// Host stamps a BENCH_*.json artifact with the machine that wrote it, for
// provenance: the rows themselves are counts.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// thisHost reads the running machine's Host stamp.
func thisHost() Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchFile is the envelope of the perf rows cmd/bench -json writes.
type BenchFile struct {
	Host
	// GiantSCC stamps the -cpw envelopes with the measured fraction of
	// unknowns in the workload's largest SCC (see GiantFraction): the
	// "single giant component" premise of the CPW rows is recorded as a
	// checked fact, not an assertion.
	GiantSCC float64   `json:"giant_scc,omitempty"`
	Rows     []PerfRow `json:"rows"`
}

// WriteBenchFile writes f to path, stamping the machine facts.
func WriteBenchFile(path string, f BenchFile) error {
	f.Host = thisHost()
	return writeJSON(path, f)
}

// FormatPerfRows renders perf rows as a table of their work counts.
func FormatPerfRows(rows []PerfRow) string {
	if len(rows) == 0 {
		return "no perf rows"
	}
	out := fmt.Sprintf("%-28s %-8s %7s %10s %9s %9s\n",
		"name", "solver", "workers", "evals", "updates", "unknowns")
	for _, r := range rows {
		out += fmt.Sprintf("%-28s %-8s %7d %10d %9d %9d\n",
			r.Name, r.Solver, r.Workers, r.Evals, r.Updates, r.Unknowns)
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
				Evals: c.cell.Evals, Unknowns: c.cell.Unknowns,
			})
		}
	}
	return out
}
