package diffsolve

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"warrow/internal/ckptcodec"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

const globalGolden = "testdata/global_golden.txt"

// TestGlobalGolden pins what the global solvers report on generated
// systems: for seeds 1–8, N = 16, 128 and 512 and the three domains
// (non-monotonic at density 0.2), every name in solver.Globals solves under
// WarrowOp, PSW and CPW at one worker, with the oscillation watchdog at 3
// flips under three evaluation budgets, and a third of the runs also emit
// periodic checkpoints every budget/16 evaluations. Per run and solver a
// line holds Evals, Updates, Restarts and MaxQueue, a digest of the other
// Stats fields but WallNs, a digest of the returned assignment, the abort
// report without its wall time, and digests of the abort checkpoint's and
// the periodic checkpoints' wire bytes. Every line is computed on both
// value stores, CoreDense and CoreAuto, and must be the same on both. Any
// change to how a global solver iterates shows up here as a diff; run with
// -update only when such a change is intended.
func TestGlobalGolden(t *testing.T) {
	var sb strings.Builder
	run := 0
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range []int{16, 128, 512} {
			for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
				g := eqgen.New(eqgen.Config{Seed: seed, Dom: dom, N: n, NonMonoDensity: 0.2})
				fmt.Fprintf(&sb, "system %s\n", g.Shape.Cfg)
				switch {
				case g.Interval != nil:
					globalGoldenRuns(t, &sb, &run, lattice.Ints, g.Interval, ckptcodec.IntervalCodec())
				case g.Flat != nil:
					globalGoldenRuns(t, &sb, &run, eqgen.FlatL, g.Flat, ckptcodec.FlatCodec())
				case g.Powerset != nil:
					globalGoldenRuns(t, &sb, &run, eqgen.PowersetL(), g.Powerset, ckptcodec.PowersetCodec())
				}
			}
		}
	}
	checkGolden(t, globalGolden, sb.String())
}

// globalGoldenRuns writes one system's lines, one per budget and solver.
// run numbers the (system, budget) runs; every third one also emits
// periodic checkpoints.
func globalGoldenRuns[D any](t *testing.T, sb *strings.Builder, run *int, l lattice.Lattice[D], sys *eqn.System[int, D], codec solver.Codec[int, D]) {
	t.Helper()
	for _, budget := range []int{20_000, 37, 500} {
		every := 0
		if *run%3 == 0 {
			every = budget / 16
		}
		*run++
		for _, name := range solver.Globals {
			dense := globalGoldenLine(t, name, budget, every, solver.CoreDense, l, sys, codec)
			if auto := globalGoldenLine(t, name, budget, every, solver.CoreAuto, l, sys, codec); auto != dense {
				t.Errorf("the value stores disagree:\n dense %s\n auto  %s", dense, auto)
			}
			sb.WriteString(dense)
			sb.WriteByte('\n')
		}
	}
}

// globalGoldenLine runs one solver on one store and renders its line.
func globalGoldenLine[D any](t *testing.T, name string, budget, every int, core solver.Core, l lattice.Lattice[D], sys *eqn.System[int, D], codec solver.Codec[int, D]) string {
	t.Helper()
	periodic, ph := 0, fnv.New64a()
	cfg := solver.Config{MaxEvals: budget, MaxFlips: 3, Workers: 1, Core: core, CheckpointEvery: every}
	if every > 0 {
		cfg.CheckpointSink = func(cp any) {
			periodic++
			ph.Write(wireBytes(t, cp.(*solver.Checkpoint[int, D]), codec))
		}
	}
	vals, st, err := solver.Run(name, sys, l, solver.WarrowOp[int](l), eqn.ConstBottom[int, D](l), cfg)
	var sb strings.Builder
	rest := st
	rest.Evals, rest.Updates, rest.Restarts, rest.MaxQueue, rest.WallNs = 0, 0, 0, 0, 0
	sh := fnv.New64a()
	fmt.Fprintf(sh, "%+v", rest)
	fmt.Fprintf(&sb, "%s budget=%d every=%d evals=%d updates=%d restarts=%d maxq=%d stats=%016x values=%s",
		name, budget, every, st.Evals, st.Updates, st.Restarts, st.MaxQueue, sh.Sum64(), valuesDigest(l, sys, vals))
	if err != nil {
		rep, ok := solver.ReportOf(err)
		if !ok {
			t.Fatalf("%s budget %d: unclassified error: %v", name, budget, err)
		}
		fmt.Fprintf(&sb, " abort=%s%s@%d widens=%d narrows=%d flips=%v hot=", rep.Reason, rep.Bound, rep.Evals, rep.Widens, rep.Narrows, trimHist(rep.FlipHist))
		for _, h := range rep.Hottest {
			fmt.Fprintf(&sb, "%s/%d/%d,", h.Unknown, h.Updates, h.Flips)
		}
		if rep.Failure != nil {
			fmt.Fprintf(&sb, " failure=%v", rep.Failure)
		}
		cp, ok := solver.CheckpointOf[int, D](err)
		if !ok {
			t.Fatalf("%s budget %d: the abort carries no checkpoint", name, budget)
		}
		h := fnv.New64a()
		h.Write(wireBytes(t, cp, codec))
		fmt.Fprintf(&sb, " ckpt=%016x", h.Sum64())
	}
	if every > 0 {
		fmt.Fprintf(&sb, " periodic=%d/%016x", periodic, ph.Sum64())
	}
	return sb.String()
}

// wireBytes marshals a checkpoint into its wire format.
func wireBytes[D any](t *testing.T, cp *solver.Checkpoint[int, D], codec solver.Codec[int, D]) []byte {
	t.Helper()
	data, err := solver.MarshalCheckpoint(cp, codec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
