package chaos_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"warrow/internal/certify"
	"warrow/internal/chaos"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

func genInterval(seed uint64, n int) *eqn.System[int, lattice.Interval] {
	cfg := eqgen.Config{Seed: seed, Dom: eqgen.Interval, N: n}
	return eqgen.New(cfg).Interval
}

func ivInit() func(int) lattice.Interval {
	return eqn.ConstBottom[int, lattice.Interval](lattice.Ints)
}

// TestChaosInjectionIsDeterministic pins the injector contract the whole
// harness rests on: the same seed yields the same fault schedule for the
// same evaluation sequence.
func TestChaosInjectionIsDeterministic(t *testing.T) {
	sys := genInterval(7, 12)
	ccfg := chaos.Config{Seed: 99, Transient: 0.15, Persistent: 0.02, Latency: 0.1, Delay: time.Microsecond}
	run := func() (int, int, int, error) {
		chaotic, inj := chaos.Wrap(sys, ccfg)
		_, _, err := solver.RR(chaotic, lattice.Ints, solver.Op[int](solver.Warrow[lattice.Interval](lattice.Ints)), ivInit(), solver.Config{MaxEvals: 100_000})
		tr, pe, de := inj.Counts()
		return tr, pe, de, err
	}
	tr1, pe1, de1, err1 := run()
	tr2, pe2, de2, err2 := run()
	if tr1 != tr2 || pe1 != pe2 || de1 != de2 {
		t.Fatalf("fault schedule not deterministic: (%d,%d,%d) vs (%d,%d,%d)", tr1, pe1, de1, tr2, pe2, de2)
	}
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcome not deterministic: %v vs %v", err1, err2)
	}
	if err1 != nil {
		// The rendered abort string embeds wall-clock time; compare the
		// structured diagnosis instead.
		r1, _ := solver.ReportOf(err1)
		r2, _ := solver.ReportOf(err2)
		if r1.Reason != r2.Reason || r1.Evals != r2.Evals ||
			(r1.Failure == nil) != (r2.Failure == nil) ||
			(r1.Failure != nil && (r1.Failure.Unknown != r2.Failure.Unknown || r1.Failure.Attempt != r2.Failure.Attempt)) {
			t.Fatalf("abort diagnosis not deterministic: %v vs %v", err1, err2)
		}
	}
	if tr1+pe1 == 0 {
		t.Fatalf("injector fired no faults; the determinism check is vacuous")
	}
}

// TestChaosPropertyTransientHealing: with retry enabled and a capped
// transient-fault schedule, every solver must uphold the chaos property,
// and the sequential solvers must in fact complete (the cap guarantees the
// schedule drains).
func TestChaosPropertyTransientHealing(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		sys := genInterval(seed, 16)
		ccfg := chaos.Config{Seed: seed * 1000, Transient: 0.2, MaxFaults: 40}
		scfg := solver.Config{
			MaxEvals: 300_000,
			Retry:    solver.RetryPolicy{MaxAttempts: 45, Seed: seed},
		}
		verdicts, err := chaos.Check(lattice.Ints, sys, ivInit(), ccfg, scfg, []int{1, 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults := 0
		for _, v := range verdicts {
			faults += v.Faults
			if !v.Completed {
				t.Errorf("seed %d: %s did not complete under healed transients (resumed=%v, faults=%d)",
					seed, v.Solver, v.Resumed, v.Faults)
			}
		}
		if faults == 0 {
			t.Fatalf("seed %d: no faults injected; healing untested", seed)
		}
	}
}

// TestChaosPropertyPersistentFaults: without retry, persistent faults must
// produce clean aborts whose checkpoints resume on the pristine system.
// Check enforces the property; this test additionally demands that at least
// one solver actually took the abort-and-resume branch.
func TestChaosPropertyPersistentFaults(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sys := genInterval(seed, 16)
		ccfg := chaos.Config{Seed: seed, Persistent: 0.03}
		scfg := solver.Config{MaxEvals: 300_000}
		verdicts, err := chaos.Check(lattice.Ints, sys, ivInit(), ccfg, scfg, []int{1, 2, 4, 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		resumed := 0
		for _, v := range verdicts {
			if v.Resumed {
				resumed++
			}
		}
		if resumed == 0 {
			t.Fatalf("seed %d: no solver exercised the abort-and-resume branch", seed)
		}
	}
}

// TestChaosPropertyLatencyOnly: pure latency injection must never change
// results — every solver completes and certifies.
func TestChaosPropertyLatencyOnly(t *testing.T) {
	sys := genInterval(11, 16)
	ccfg := chaos.Config{Seed: 11, Latency: 0.3, Delay: 50 * time.Microsecond}
	verdicts, err := chaos.Check(lattice.Ints, sys, ivInit(), ccfg, solver.Config{MaxEvals: 300_000}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.Completed {
			t.Errorf("%s: did not complete under latency-only chaos", v.Solver)
		}
	}
}

// TestChaosMixedDomains runs the property over the flat and powerset
// domains as well, with a mixed fault schedule.
func TestChaosMixedDomains(t *testing.T) {
	scfg := solver.Config{
		MaxEvals: 300_000,
		Retry:    solver.RetryPolicy{MaxAttempts: 4},
	}
	ccfg := chaos.Config{Seed: 5, Transient: 0.1, Persistent: 0.01, Latency: 0.05, Delay: 20 * time.Microsecond}
	for seed := uint64(1); seed <= 3; seed++ {
		g := eqgen.New(eqgen.Config{Seed: seed, Dom: eqgen.Flat, N: 14})
		if _, err := chaos.Check(eqgen.FlatL, g.Flat, eqn.ConstBottom[int, lattice.Flat[int64]](eqgen.FlatL), ccfg, scfg, []int{2}); err != nil {
			t.Errorf("flat seed %d: %v", seed, err)
		}
		pl := eqgen.PowersetL()
		gp := eqgen.New(eqgen.Config{Seed: seed, Dom: eqgen.Powerset, N: 14})
		if _, err := chaos.Check(pl, gp.Powerset, eqn.ConstBottom[int, lattice.Set[int]](pl), ccfg, scfg, []int{2}); err != nil {
			t.Errorf("powerset seed %d: %v", seed, err)
		}
	}
}

// TestChaosPSWPoolHygiene drives PSW at pool sizes 1, 2, 4 and 8 into
// persistent-fault aborts and checks, for each, that the abort is a
// structured eval-failure report with a resumable checkpoint and that the
// worker pool drains — no goroutine outlives the call.
func TestChaosPSWPoolHygiene(t *testing.T) {
	l := lattice.Ints
	op := solver.Op[int](solver.Warrow[lattice.Interval](l))
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			sys := genInterval(3, 20)
			chaotic, _ := chaos.Wrap(sys, chaos.Config{Seed: 42, Persistent: 0.2})
			_, _, err := solver.PSW(chaotic, l, op, ivInit(), solver.Config{Workers: workers, MaxEvals: 300_000})
			if err == nil {
				t.Fatalf("expected a persistent-fault abort")
			}
			var ab *solver.AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("dirty failure: %v", err)
			}
			if ab.Report.Reason != solver.AbortEvalFailure || ab.Report.Failure == nil {
				t.Fatalf("abort is not a structured eval failure: %+v", ab.Report)
			}
			if _, ok := solver.CheckpointOf[int, lattice.Interval](err); !ok {
				t.Fatalf("abort carries no checkpoint")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("worker pool leaked: %d goroutines before, %d after", before, n)
			}
		})
	}
}

// TestChaosDenseCore holds the boxed value store to the chaos property —
// faults heal under retry or abort cleanly with a checkpoint that resumes
// on the pristine system. The opaque Op(Warrow) has no word form, so every
// store selection runs boxed here; TestChaosUnboxedCore pins boxed against
// words under the identical fault schedule.
func TestChaosDenseCore(t *testing.T) {
	l := lattice.Ints
	for _, seed := range []uint64{1, 2, 3} {
		sys := genInterval(seed, 24)
		ccfg := chaos.Config{Seed: seed * 77, Transient: 0.1, Persistent: 0.01, MaxFaults: 30}
		scfg := solver.Config{
			Core:     solver.CoreDense,
			MaxEvals: 300_000,
			Retry:    solver.RetryPolicy{MaxAttempts: 45, Seed: seed},
		}
		verdicts, err := chaos.Check(l, sys, ivInit(), ccfg, scfg, []int{1, 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults := 0
		for _, v := range verdicts {
			faults += v.Faults
		}
		if faults == 0 {
			t.Fatalf("seed %d: no faults injected; the dense-core chaos check is vacuous", seed)
		}
	}
}

// TestChaosUnboxedCore is TestChaosDenseCore for the word store:
// chaos.Check runs the full solver matrix with Core=CoreAuto (the
// structured ⊟ plus the interval lattice's raw encoding route these solves
// through the word store, with the injector living in the boxed right-hand
// sides behind the boundary adapter), and the cross-store determinism pin
// compares boxed against words under the identical fault schedule: the
// injector draws per (seed, unknown, per-unknown eval count), so the
// bit-identical schedules of the two stores must fire the identical fault
// sequence and land on the identical outcome.
func TestChaosUnboxedCore(t *testing.T) {
	l := lattice.Ints
	op := solver.WarrowOp[int, lattice.Interval](l)
	for _, seed := range []uint64{1, 2, 3} {
		sys := genInterval(seed, 24)
		ccfg := chaos.Config{Seed: seed * 77, Transient: 0.1, Persistent: 0.01, MaxFaults: 30}
		scfg := solver.Config{
			Core:     solver.CoreAuto,
			MaxEvals: 300_000,
			Retry:    solver.RetryPolicy{MaxAttempts: 45, Seed: seed},
		}
		verdicts, err := chaos.Check(l, sys, ivInit(), ccfg, scfg, []int{1, 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults := 0
		for _, v := range verdicts {
			faults += v.Faults
		}
		if faults == 0 {
			t.Fatalf("seed %d: no faults injected; the unboxed-core chaos check is vacuous", seed)
		}

		run := func(core solver.Core) (faults int, st solver.Stats, err error, sigma map[int]lattice.Interval) {
			chaotic, inj := chaos.Wrap(sys, ccfg)
			c := scfg
			c.Core = core
			sigma, st, err = solver.SW(chaotic, l, op, ivInit(), c)
			return inj.Faults(), st, err, sigma
		}
		df, dst, derr, dsig := run(solver.CoreDense)
		uf, ust, uerr, usig := run(solver.CoreAuto)
		if df != uf {
			t.Fatalf("seed %d: fault schedules diverge across stores: boxed %d, words %d", seed, df, uf)
		}
		if (derr == nil) != (uerr == nil) {
			t.Fatalf("seed %d: chaotic termination differs: boxed err=%v, words err=%v", seed, derr, uerr)
		}
		if dst.Evals != ust.Evals || dst.Updates != ust.Updates {
			t.Fatalf("seed %d: chaotic schedules diverge: boxed %d/%d, words %d/%d",
				seed, dst.Evals, dst.Updates, ust.Evals, ust.Updates)
		}
		if derr == nil {
			for _, x := range sys.Order() {
				if !l.Eq(dsig[x], usig[x]) {
					t.Fatalf("seed %d: chaotic value of %d diverges across stores", seed, x)
				}
			}
		}
	}
}

// TestChaosCPWAdversarialSchedules is the schedule-perturbation harness for
// the chaotic parallel solver: seeded per-evaluation latency spikes shift
// which worker claims which unknown, so every (recipe, chaos seed, pool
// size) triple drives CPW through a different interleaving — including on
// giant-SCC recipes where the whole stratum is contended. The property is
// the claim ladder's: a completed run must certify as a post-solution of
// the pristine system, and a bounded run must abort cleanly with a
// quiesce-and-drain checkpoint that resumes on the pristine system to a
// certified result.
func TestChaosCPWAdversarialSchedules(t *testing.T) {
	l := lattice.Ints
	op := solver.WarrowOp[int, lattice.Interval](l)
	recipes := []eqgen.Config{
		{Seed: 1, N: 24},
		{Seed: 2, N: 32, GiantSCC: 0.9},
		{Seed: 3, N: 40, GiantSCC: 0.95},
	}
	for _, rc := range recipes {
		sys := eqgen.New(rc).Interval
		for _, seed := range []uint64{1, 2, 3} {
			ccfg := chaos.Config{Seed: seed * 131, Latency: 0.5, Delay: 20 * time.Microsecond}
			for _, workers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("n=%d giant=%.2f chaos=%d w=%d", rc.N, rc.GiantSCC, seed, workers)

				// Perturbed but unbounded: the run must complete and certify.
				chaotic, inj := chaos.Wrap(sys, ccfg)
				scfg := solver.Config{Workers: workers, MaxEvals: 300_000}
				sigma, _, err := solver.CPW(chaotic, l, op, ivInit(), scfg)
				if err != nil {
					t.Fatalf("%s: perturbed run aborted: %v", name, err)
				}
				if _, _, delays := inj.Counts(); delays == 0 {
					t.Fatalf("%s: no latency injected; the perturbation is vacuous", name)
				}
				if rep := certify.System(l, sys, sigma, ivInit()); !rep.OK() {
					t.Errorf("%s: perturbed result does not certify: %s", name, rep)
				}

				// Perturbed and budget-bound: the abort must carry a resumable
				// checkpoint, and the pristine resume must certify.
				chaotic, _ = chaos.Wrap(sys, ccfg)
				tight := solver.Config{Workers: workers, MaxEvals: rc.N}
				_, _, err = solver.CPW(chaotic, l, op, ivInit(), tight)
				if err == nil {
					t.Fatalf("%s: budget %d did not bound the solve", name, rc.N)
				}
				cp, ok := solver.CheckpointOf[int, lattice.Interval](err)
				if !ok {
					t.Fatalf("%s: budget abort carries no checkpoint: %v", name, err)
				}
				rcfg := solver.Config{Workers: workers, MaxEvals: 300_000, Resume: cp}
				sigma, _, err = solver.CPW(sys, l, op, ivInit(), rcfg)
				if err != nil {
					t.Fatalf("%s: pristine resume failed: %v", name, err)
				}
				if rep := certify.System(l, sys, sigma, ivInit()); !rep.OK() {
					t.Errorf("%s: resumed result does not certify: %s", name, rep)
				}
			}
		}
	}
}
