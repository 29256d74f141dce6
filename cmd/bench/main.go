// Command bench regenerates the paper's evaluation artifacts:
//
//	bench -fig7       Figure 7 (precision ⊟ vs two-phase on the WCET suite)
//	bench -table1     Table 1  (runtime/unknowns on SpecCPU-scale programs)
//	bench -traces     Examples 1–4 (solver divergence and termination)
//	bench -ablations  ⊟ₖ degradation, solver work, threshold widening
//	bench -cpw        PSW vs CPW on the single giant-SCC ring (-mega scales
//	                  it past 10⁵ unknowns; the committed BENCH_cpw.json)
//	bench -slr        widening-point family SLR2/SLR3/SLR4: precision on the
//	                  WCET suite, evaluation totals on the eqgen macro matrix
//	                  (-slrjson regenerates the committed BENCH_slr.json)
//	bench -all        everything
//
// The suites fan out across -workers goroutines (0 = GOMAXPROCS) with
// deterministic output ordering; -json writes the machine-readable rows
// (CPW evaluation counts, Table 1 cells) to a BENCH_*.json file. Every row
// is a count: timings come from go test -bench and perfbench, which repeat
// their runs. -timeout bounds every individual solve with a wall-clock
// deadline: a run that trips it fails with a structured deadline abort
// instead of hanging the suite. -smoke shrinks the -cpw and -slr matrices
// for CI.
package main

import (
	"flag"
	"fmt"
	"os"

	"warrow/internal/eqgen"
	"warrow/internal/experiments"
)

// eqgenGiantRecipe is the generator-backed -cpw workload: an interval system
// with 95% of its unknowns fused into one SCC, the same recipe format the
// differential harness and the serving tier consume. -smoke shrinks it.
func eqgenGiantRecipe(smoke bool) eqgen.Config {
	n := 2048
	if smoke {
		n = 256
	}
	return eqgen.Config{
		Seed:         7,
		Dom:          eqgen.Interval,
		N:            n,
		FanIn:        2,
		GiantSCC:     0.95,
		WidenDensity: 0.3,
	}
}

func main() {
	fig7 := flag.Bool("fig7", false, "regenerate Figure 7")
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	traces := flag.Bool("traces", false, "print Examples 1-4 solver traces")
	ablations := flag.Bool("ablations", false, "run the ablation studies")
	cpw := flag.Bool("cpw", false, "run PSW and CPW on the single giant-SCC ring at several worker counts, certifying every CPW result")
	mega := flag.Bool("mega", false, "with -cpw: mega-scale ring (>=1e5 unknowns) instead of the default")
	slr := flag.Bool("slr", false, "measure the widening-point family SLR2/SLR3/SLR4: precision (interval widths) on the WCET suite, evals on the eqgen macro matrix")
	slrJSON := flag.String("slrjson", "", "write the -slr measurements to this file (the committed BENCH_slr.json artifact)")
	all := flag.Bool("all", false, "run everything")
	workers := flag.Int("workers", 0, "harness worker-pool size (0 = GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write machine-readable perf rows to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock bound per individual solve (0 = unbounded)")
	smoke := flag.Bool("smoke", false, "reduced -cpw and -slr matrices for CI smoke runs")
	flag.Parse()
	experiments.SolveTimeout = *timeout

	if !*fig7 && !*table1 && !*traces && !*ablations && !*cpw && !*slr && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if *all {
		*fig7, *table1, *traces, *ablations, *cpw, *slr = true, true, true, true, true, true
	}
	var perf []experiments.PerfRow
	if *traces {
		fmt.Println(experiments.TraceExamples())
	}
	if *fig7 {
		r, err := experiments.Fig7Workers(*workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig7:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatFig7(r))
	}
	if *table1 {
		rows, err := experiments.Table1Workers(*workers, func(r experiments.Table1Row) {
			fmt.Fprintf(os.Stderr, "  done %-12s (noctx %d unknowns, ctx %d unknowns)\n",
				r.Name, r.WarrowNoCtx.Unknowns, r.WarrowCtx.Unknowns)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatTable1(rows))
		perf = append(perf, experiments.Table1PerfRows(rows)...)
	}
	if *ablations {
		for _, out := range experiments.Ablations(*workers) {
			fmt.Println(out)
		}
	}
	var giantFrac float64
	if *cpw {
		// Default ~6 400 unknowns; -smoke shrinks to ~1 600 for CI, -mega
		// scales to 102 400 (the committed BENCH_cpw.json configuration).
		chains, length := 16, 400
		switch {
		case *mega:
			chains, length = 64, 1600
		case *smoke:
			chains, length = 8, 200
		}
		rows, frac, err := experiments.CPWSpeedup(chains, length, 2, 0, []int{1, 2, 4, 8})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpw:", err)
			os.Exit(1)
		}
		giantFrac = frac
		fmt.Printf("PSW vs CPW on the giant-SCC ring (one stratum, %.0f%% of unknowns in one SCC):\n", 100*frac)
		fmt.Println(experiments.FormatPerfRows(rows))
		perf = append(perf, rows...)
		genRow, genFrac, err := experiments.CPWGenRow(eqgenGiantRecipe(*smoke), 4)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpw:", err)
			os.Exit(1)
		}
		fmt.Printf("CPW on the eqgen giant-SCC recipe (certified, %.0f%% giant):\n%s\n",
			100*genFrac, experiments.FormatPerfRows([]experiments.PerfRow{genRow}))
		perf = append(perf, genRow)
	}
	if *slr {
		res, err := experiments.SLRBench(*workers, *smoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slr:", err)
			os.Exit(1)
		}
		fmt.Println("Widening-point family SLR2/SLR3/SLR4 vs the ⊟-everywhere SW baseline:")
		fmt.Println(experiments.FormatSLR(res))
		if *slrJSON != "" {
			slrNote := ""
			if *smoke {
				slrNote = "smoke run: reduced WCET and eqgen matrices"
			}
			if err := experiments.WriteSLRBench(*slrJSON, slrNote, res); err != nil {
				fmt.Fprintln(os.Stderr, "slrjson:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %d slr rows to %s\n", len(res.WCET), *slrJSON)
		}
	}
	if *jsonOut != "" {
		f := experiments.BenchFile{GiantSCC: giantFrac, Rows: perf}
		if err := experiments.WriteBenchFile(*jsonOut, f); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d perf rows to %s\n", len(perf), *jsonOut)
	}
}
