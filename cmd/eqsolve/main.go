// Command eqsolve solves a textual system of equations (see internal/eqdsl
// for the format) with a chosen solver and update operator — a workbench
// for experimenting with the paper's solver/operator matrix:
//
//	eqsolve -solver rr  -op warrow examples/systems/example1.eq   # diverges
//	eqsolve -solver srr -op warrow examples/systems/example1.eq   # terminates
//	eqsolve -solver sw  -op warrow examples/systems/loop.eq
//	eqsolve -solver slr -op warrow -query e examples/systems/loop.eq
//	eqsolve -solver sw  -op warrow -certify examples/systems/loop.eq
//	eqsolve -solver slr3 -certify examples/systems/loop.eq   # ∇/⊟ only at widening points
//
// The slr2/slr3/slr4 solvers apply the update operator only at widening
// points (SCC headers of the dependence graph); slr3 restarts the
// iteration below a shrinking widening point and slr4 localizes the
// restart to the point's component. Their results certify as
// post-solutions like every other solver's, but are not bit-identical
// to sw's (see internal/solver/slrx.go).
//
// Divergent workloads can be bounded and recovered from:
//
//	eqsolve -solver rr -op warrow -timeout 100ms examples/systems/example1.eq  # deadline abort
//	eqsolve -solver rr -op warrow -max-flips 8   examples/systems/example1.eq  # watchdog abort
//	eqsolve -solver rr -op warrow -max-flips 8 -escalate examples/systems/example1.eq
//
// With -escalate a diverging generic solver (rr, w) reruns its workload on
// the terminating structured variant (srr, sw) and exits 0 when the rerun
// succeeds.
//
// Aborted solves can checkpoint their state and resume later:
//
//	eqsolve -solver sw -op warrow -max-evals 5 -checkpoint /tmp/cp examples/systems/loop.eq
//	eqsolve -solver sw -op warrow -resume /tmp/cp examples/systems/loop.eq
//
// and flaky right-hand sides can be retried with -retry.
//
// Edited systems can be re-solved incrementally: -edit FILE overlays the
// definitions of a second .eq file (same domain) onto the base system —
// replacing equations that exist, adding ones that don't — and -resolve
// solves the base system once, applies the overlay, and re-solves only the
// dirty cone of the edit, reporting how many unknowns were re-solved versus
// reused (see internal/incr):
//
//	eqsolve -solver sw -edit examples/systems/loop_edit.eq examples/systems/loop.eq           # scratch solve of the edited system
//	eqsolve -solver sw -edit examples/systems/loop_edit.eq -resolve examples/systems/loop.eq  # incremental re-solve with delta stats
//
// With -connect the system is submitted to a running eqsolved daemon (see
// cmd/eqsolved) instead of solved in-process; -solver, -max-evals, -timeout,
// -max-flips, -certify, -checkpoint and -resume keep their meaning:
//
//	eqsolve -connect 127.0.0.1:7333 -solver sw -certify examples/systems/loop.eq
//	eqsolve -connect 127.0.0.1:7333 -max-evals 50 -checkpoint /tmp/cp examples/systems/loop.eq
//	eqsolve -connect 127.0.0.1:7333 -resume /tmp/cp examples/systems/loop.eq
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"warrow/internal/certify"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqdsl"
	"warrow/internal/eqn"
	"warrow/internal/incr"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

func main() {
	solverFlag := flag.String("solver", "sw", "solver: "+strings.Join(solver.Globals, ", ")+", or the local slr")
	opFlag := flag.String("op", "warrow", "operator: join, widen, narrow, warrow, or replace")
	query := flag.String("query", "", "with -solver slr: the unknown to solve for (default: last defined)")
	maxEvals := flag.Int("max-evals", 100000, "evaluation budget (0 = unbounded)")
	workers := flag.Int("workers", 0, "with -solver psw/cpw: worker-pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the solve (0 = unbounded)")
	maxFlips := flag.Int("max-flips", 0, "abort once any unknown alternates narrow→widen this often (0 = off)")
	escalateFlag := flag.Bool("escalate", false, "on rr/w divergence, rerun on the structured variant (srr/sw)")
	certifyFlag := flag.Bool("certify", false, "re-check the result as a post-solution (Lemma 1) and fail if it is not")
	ckptPath := flag.String("checkpoint", "", "write the solver state to this file on abort (and periodically with -checkpoint-every)")
	ckptEvery := flag.Int("checkpoint-every", 0, "with -checkpoint: also snapshot every N evaluations (0 = on abort only)")
	resumePath := flag.String("resume", "", "resume the solve from a checkpoint file written by -checkpoint")
	retry := flag.Int("retry", 0, "attempts per right-hand-side evaluation; >1 retries transient failures")
	retryBase := flag.Duration("retry-base", 0, "backoff before the second attempt, doubling per retry (0 = immediate)")
	editPath := flag.String("edit", "", "overlay the definitions of this .eq file (same domain) onto the base system")
	resolveFlag := flag.Bool("resolve", false, "with -edit: solve, apply the overlay, and incrementally re-solve its dirty cone")
	connect := flag.String("connect", "", "submit the system to an eqsolved daemon at this address instead of solving locally")
	flag.Parse()

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "eqsolve:", err)
		os.Exit(1)
	}
	f, err := eqdsl.Parse(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "eqsolve:", err)
		os.Exit(1)
	}
	if f.Open {
		fmt.Fprintln(os.Stderr, "eqsolve:", flag.Arg(0), "is an edit overlay (open); apply it to a base system with -edit")
		os.Exit(1)
	}
	cfg := solver.Config{
		MaxEvals: *maxEvals, Workers: *workers, Timeout: *timeout, MaxFlips: *maxFlips,
		Retry: solver.RetryPolicy{MaxAttempts: *retry, BaseDelay: *retryBase},
	}
	if *solverFlag != "slr" && !slices.Contains(solver.Globals, *solverFlag) {
		usage(fmt.Sprintf("unknown -solver %q (want %s, or slr)", *solverFlag, strings.Join(solver.Globals, ", ")))
	}
	if *connect != "" {
		// Served solves run the daemon's fixed ⊟ pipeline; flags that steer
		// the local pipeline have no served counterpart.
		switch {
		case *solverFlag == "slr":
			usage("-connect serves the global solvers; slr solves locally only")
		case *opFlag != "warrow":
			usage("-connect always solves with -op warrow (the daemon's operator)")
		case *editPath != "" || *resolveFlag:
			usage("-connect does not support -edit/-resolve; apply edits locally")
		case *escalateFlag:
			usage("-connect does not support -escalate; pick the structured solver directly")
		case *query != "":
			usage("-connect serves the global solvers, which take no -query")
		case *ckptEvery > 0:
			usage("-connect checkpoints only on abort; -checkpoint-every is local-only")
		case *retry > 0:
			usage("-connect does not support -retry; the daemon retries nothing")
		}
		connectDispatch(*connect, f, string(data), connectCfg{
			solver:   *solverFlag,
			maxEvals: *maxEvals,
			timeout:  *timeout,
			maxFlips: *maxFlips,
		}, *certifyFlag, persistence{path: *ckptPath, resume: *resumePath})
		return
	}
	if *resolveFlag && *editPath == "" {
		usage("-resolve re-solves the dirty cone of an edit, so it needs one: pass -edit FILE.eq alongside it")
	}
	var editF *eqdsl.File
	if *editPath != "" {
		data, err := os.ReadFile(*editPath)
		if err != nil {
			fatal(err)
		}
		if editF, err = eqdsl.ParseOverlay(string(data)); err != nil {
			fatal(fmt.Errorf("edit file: %w", err))
		}
		if !editF.DeclaredOpen {
			usage(fmt.Sprintf("-edit %s: not an edit overlay — add a bare `open` line after its domain header to mark it as one", *editPath))
		}
		if editF.Domain != f.Domain {
			fatal(fmt.Errorf("edit file domain differs from the base system's"))
		}
	}
	persist := persistence{path: *ckptPath, every: *ckptEvery, resume: *resumePath}
	switch f.Domain {
	case eqdsl.DomainNatInf:
		sys, err := f.NatSystem()
		if err != nil {
			fatal(err)
		}
		edit := overlay(editF, (*eqdsl.File).NatSystem)
		run(f, sys, lattice.NatInf, *solverFlag, *opFlag, *query,
			func(string) lattice.Nat { return lattice.NatOf(0) }, cfg, *certifyFlag, *escalateFlag,
			persist, ckptcodec.NatCodec(), edit, *resolveFlag)
	case eqdsl.DomainInterval:
		sys, err := f.IntervalSystem()
		if err != nil {
			fatal(err)
		}
		edit := overlay(editF, (*eqdsl.File).IntervalSystem)
		run(f, sys, lattice.Ints, *solverFlag, *opFlag, *query,
			func(string) lattice.Interval { return lattice.EmptyInterval }, cfg, *certifyFlag, *escalateFlag,
			persist, ckptcodec.StringIntervalCodec(), edit, *resolveFlag)
	}
}

// editSet is the parsed -edit overlay for one concrete domain: the overlay
// system plus its definition order.
type editSet[D any] struct {
	sys   *eqn.System[string, D]
	order []string
}

// overlay builds the typed edit set from the parsed -edit file (nil when no
// overlay was requested).
func overlay[D any](f *eqdsl.File, build func(*eqdsl.File) (*eqn.System[string, D], error)) *editSet[D] {
	if f == nil {
		return nil
	}
	sys, err := build(f)
	if err != nil {
		fatal(fmt.Errorf("edit file: %w", err))
	}
	return &editSet[D]{sys: sys, order: f.Order}
}

// persistence bundles the -checkpoint/-checkpoint-every/-resume flags.
type persistence struct {
	path   string
	every  int
	resume string
}

// escalation maps each generic solver to the structured variant that
// terminates with ⊟ where the generic one may diverge (paper Thms. 2 and 4).
var escalation = map[string]string{"rr": "srr", "w": "sw"}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eqsolve:", err)
	os.Exit(1)
}

// usage reports a flag-combination mistake: one actionable line, exit 2
// (the conventional usage-error status, matching flag.Usage misuse).
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "eqsolve: usage:", msg)
	os.Exit(2)
}

// readResume reads and decodes the -resume checkpoint, returning it with
// the file's bytes. A checkpoint another solver wrote is a usage error: the
// local and the served path refuse it alike, before printing anything.
func readResume[D any](path, solverName string, codec solver.Codec[string, D]) (*solver.Checkpoint[string, D], []byte) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	cp, err := solver.UnmarshalCheckpoint[string, D](data, codec)
	if err != nil {
		fatal(err)
	}
	if cp.Solver != solverName {
		usage(fmt.Sprintf("-solver %s cannot resume a %q checkpoint; rerun with -solver %s or start %s fresh", solverName, cp.Solver, cp.Solver, solverName))
	}
	return cp, data
}

// run dispatches on solver and operator names for a concrete domain.
func run[D any](f *eqdsl.File, sys *eqn.System[string, D], l lattice.Lattice[D],
	solverName, opName, query string, init func(string) D, cfg solver.Config, check, escalate bool,
	persist persistence, codec solver.Codec[string, D], edit *editSet[D], resolve bool) {

	writeCkpt := func(cp *solver.Checkpoint[string, D]) {
		data, err := solver.MarshalCheckpoint(cp, codec)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(persist.path, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if persist.resume != "" {
		cp, _ := readResume(persist.resume, solverName, codec)
		cfg.Resume = cp
		fmt.Printf("resuming %s from %s (%d evaluations done)\n", cp.Solver, persist.resume, cp.Evals)
	}
	if persist.path != "" && persist.every > 0 {
		cfg.CheckpointEvery = persist.every
		cfg.CheckpointSink = func(cp any) {
			if typed, ok := cp.(*solver.Checkpoint[string, D]); ok {
				writeCkpt(typed)
			}
		}
	}

	var combine solver.Combine[D]
	switch opName {
	case "join":
		combine = solver.Join(l)
	case "widen":
		combine = solver.Widen(l)
	case "narrow":
		combine = solver.Narrow(l)
	case "warrow":
		combine = solver.Warrow(l)
	case "replace":
		combine = solver.Replace[D]()
	default:
		fatal(fmt.Errorf("unknown operator %q", opName))
	}
	op := solver.Op[string](combine)

	// printOrder is the base definition order plus any unknowns the -edit
	// overlay adds.
	printOrder := f.Order
	applyEdits := func() {}
	if edit != nil {
		seen := make(map[string]bool, len(f.Order))
		for _, x := range f.Order {
			seen[x] = true
		}
		for _, x := range edit.order {
			if !seen[x] {
				printOrder = append(printOrder, x)
			}
		}
		applyEdits = func() {
			for _, x := range edit.order {
				deps, rhs, raw := edit.sys.Deps(x), edit.sys.RHS(x), edit.sys.RawRHSOf(x)
				switch {
				case sys.RHS(x) == nil:
					sys.Define(x, deps, rhs)
					if raw != nil {
						sys.AttachRaw(x, raw)
					}
				default:
					sys.RedefineRaw(x, deps, rhs, raw)
				}
			}
		}
	}

	if resolve {
		if opName != "warrow" {
			fatal(fmt.Errorf("-resolve drives the ⊟ incremental engine (use -op warrow)"))
		}
		eng, err := incr.New(l, sys, init, solverName)
		if err != nil {
			fatal(err)
		}
		scfg := cfg
		scfg.Resume = nil // a -resume checkpoint belongs to the interrupted re-solve
		if _, err := eng.Solve(scfg); err != nil {
			fatal(fmt.Errorf("initial solve: %w", err))
		}
		applyEdits()
		res, err := eng.Resolve(cfg)
		if err != nil {
			fmt.Printf("%s incremental: %v\n", solverName, err)
			if persist.path != "" {
				if cp, ok := solver.CheckpointOf[string, D](err); ok {
					writeCkpt(cp)
					fmt.Printf("  checkpoint written to %s (%d evaluations done)\n", persist.path, cp.Evals)
				}
			}
			os.Exit(1)
		}
		fmt.Printf("%s with %s: incrementally re-solved %d of %d unknowns (%d reused, %d dirty strata) in %d evaluations, %d updates\n",
			solverName, opName, res.DirtyUnknowns, res.DirtyUnknowns+res.ReusedUnknowns,
			res.ReusedUnknowns, res.ConeStrata, res.Stats.Evals, res.Stats.Updates)
		for _, x := range printOrder {
			if v, ok := res.Values[x]; ok {
				fmt.Printf("  %-8s = %s\n", x, l.Format(v))
			}
		}
		if check {
			rep := certify.System(l, sys, res.Values, init)
			fmt.Printf("  certify: %s\n", rep)
			if !rep.OK() {
				os.Exit(1)
			}
		}
		return
	}
	applyEdits()

	solveOnce := func(name string) (map[string]D, solver.Stats, error) {
		if name != "slr" {
			return solver.Run(name, sys, l, op, init, cfg)
		}
		if query == "" {
			query = f.Order[len(f.Order)-1]
		}
		res, err := solver.SLR(sys.AsPure(), l, op, init, query, cfg)
		return res.Values, res.Stats, err
	}

	used := solverName
	sigma, st, err := solveOnce(solverName)
	if err != nil {
		fmt.Printf("%s with %s: %v after %d evaluations (partial state below)\n",
			solverName, opName, err, st.Evals)
		if persist.path != "" {
			if cp, ok := solver.CheckpointOf[string, D](err); ok {
				writeCkpt(cp)
				fmt.Printf("  checkpoint written to %s (%d evaluations done)\n", persist.path, cp.Evals)
			}
		}
		// A checkpoint names the solver that wrote it; the structured
		// variant must start fresh.
		cfg.Resume = nil
		if target := escalation[solverName]; escalate && target != "" {
			fmt.Printf("  escalating %s → %s (the structured variant terminates where %s may diverge)\n",
				solverName, target, solverName)
			if sigma2, st2, err2 := solveOnce(target); err2 == nil {
				used, sigma, st, err = target, sigma2, st2, nil
				fmt.Printf("%s with %s: solved in %d evaluations, %d updates (escalated from %s)\n",
					target, opName, st.Evals, st.Updates, solverName)
			} else {
				fmt.Printf("  escalation to %s also aborted: %v\n", target, err2)
			}
		}
	} else {
		fmt.Printf("%s with %s: solved in %d evaluations, %d updates\n",
			solverName, opName, st.Evals, st.Updates)
	}
	if used == "psw" {
		fmt.Printf("  parallel: %d workers, %d strata over %d SCCs\n",
			st.Workers, st.Strata, st.SCCs)
	}
	if used == "cpw" {
		fmt.Printf("  chaotic: %d workers, %d strata over %d SCCs, %d contended evaluations\n",
			st.Workers, st.Strata, st.SCCs, st.Contention)
	}
	if used == "slr3" || used == "slr4" {
		fmt.Printf("  widening points: %d restarts\n", st.Restarts)
	}
	for _, x := range printOrder {
		if v, ok := sigma[x]; ok {
			fmt.Printf("  %-8s = %s\n", x, l.Format(v))
		}
	}
	if err != nil {
		os.Exit(1)
	}
	if check {
		// SLR returns a partial assignment closed under dependences; the
		// global solvers cover the whole system.
		var rep certify.Report[string, D]
		if used == "slr" {
			rep = certify.Partial(l, sys.AsPure(), sigma, init)
		} else {
			rep = certify.System(l, sys, sigma, init)
		}
		fmt.Printf("  certify: %s\n", rep)
		if !rep.OK() {
			os.Exit(1)
		}
	}
}
