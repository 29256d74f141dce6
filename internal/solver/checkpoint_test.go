package solver

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// flakyLoopSystem is loopSystem with injectable transient faults: each
// unknown fails its next failures[x] evaluations by panicking with a cause
// wrapping ErrTransient, then heals. The injection counter is mutex-guarded
// so PSW workers can share it.
func flakyLoopSystem(mu *sync.Mutex, failures map[string]int) *eqn.System[string, iv] {
	l := lattice.Ints
	fail := func(x string) {
		mu.Lock()
		n := failures[x]
		if n > 0 {
			failures[x] = n - 1
		}
		mu.Unlock()
		if n > 0 {
			panic(fmt.Errorf("%w: injected glitch on %s", ErrTransient, x))
		}
	}
	s := eqn.NewSystem[string, iv]()
	s.Define("h", []string{"b"}, func(get func(string) iv) iv {
		fail("h")
		return l.Join(lattice.Singleton(0), get("b").Add(lattice.Singleton(1)))
	})
	s.Define("b", []string{"h"}, func(get func(string) iv) iv {
		fail("b")
		return get("h").RestrictLt(lattice.Singleton(100))
	})
	s.Define("e", []string{"h"}, func(get func(string) iv) iv {
		fail("e")
		return get("h").RestrictGe(lattice.Singleton(100))
	})
	return s
}

// globalSolvers enumerates the global entry points under their checkpoint
// names, PSW at several tier-1 worker counts.
func globalSolvers() map[string]func(*eqn.System[string, iv], Config) (map[string]iv, Stats, error) {
	l := lattice.Ints
	op := func() Operator[string, iv] { return Op[string](Warrow[iv](l)) }
	m := map[string]func(*eqn.System[string, iv], Config) (map[string]iv, Stats, error){
		"rr": func(s *eqn.System[string, iv], cfg Config) (map[string]iv, Stats, error) {
			return RR(s, l, op(), ivInit, cfg)
		},
		"w": func(s *eqn.System[string, iv], cfg Config) (map[string]iv, Stats, error) {
			return W(s, l, op(), ivInit, cfg)
		},
		"srr": func(s *eqn.System[string, iv], cfg Config) (map[string]iv, Stats, error) {
			return SRR(s, l, op(), ivInit, cfg)
		},
		"sw": func(s *eqn.System[string, iv], cfg Config) (map[string]iv, Stats, error) {
			return SW(s, l, op(), ivInit, cfg)
		},
	}
	for _, w := range []int{1, 2, 4} {
		w := w
		m[fmt.Sprintf("psw%d", w)] = func(s *eqn.System[string, iv], cfg Config) (map[string]iv, Stats, error) {
			cfg.Workers = w
			return PSW(s, l, op(), ivInit, cfg)
		}
	}
	return m
}

func sameAssignment(t *testing.T, tag string, got, want map[string]iv) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: assignment has %d unknowns, want %d", tag, len(got), len(want))
	}
	for x, w := range want {
		if g, ok := got[x]; !ok || !lattice.Ints.Eq(g, w) {
			t.Fatalf("%s: σ[%s] = %s, want %s", tag, x, g, w)
		}
	}
}

// TestResumeBitIdentity aborts every global solver at every feasible budget
// and resumes the attached checkpoint with the bound lifted: the resumed
// run must finish with exactly the uninterrupted run's Evals, Updates,
// MaxQueue and assignment. Every abort must carry a checkpoint. For PSW
// the MaxQueue check holds only if an interrupted stratum's queue
// high-water mark reaches the checkpoint.
func TestResumeBitIdentity(t *testing.T) {
	for name, run := range globalSolvers() {
		t.Run(name, func(t *testing.T) {
			ref, refSt, err := run(loopSystem(), Config{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for budget := 1; budget < refSt.Evals; budget++ {
				_, _, err := run(loopSystem(), Config{MaxEvals: budget})
				if err == nil {
					t.Fatalf("budget %d: expected abort", budget)
				}
				cp, ok := CheckpointOf[string, iv](err)
				if !ok {
					t.Fatalf("budget %d: abort carries no checkpoint: %v", budget, err)
				}
				got, gotSt, err := run(loopSystem(), Config{Resume: cp})
				if err != nil {
					t.Fatalf("budget %d: resumed run failed: %v", budget, err)
				}
				if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates || gotSt.MaxQueue != refSt.MaxQueue {
					t.Fatalf("budget %d: resumed evals/updates/maxqueue = %d/%d/%d, want %d/%d/%d",
						budget, gotSt.Evals, gotSt.Updates, gotSt.MaxQueue, refSt.Evals, refSt.Updates, refSt.MaxQueue)
				}
				sameAssignment(t, fmt.Sprintf("budget %d", budget), got, ref)
			}
		})
	}
}

// TestResumeChain aborts, resumes into another abort, and resumes again:
// checkpoints compose, and the final totals still match the uninterrupted
// run.
func TestResumeChain(t *testing.T) {
	for name, run := range globalSolvers() {
		t.Run(name, func(t *testing.T) {
			ref, refSt, err := run(loopSystem(), Config{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if refSt.Evals < 5 {
				t.Skipf("reference run too short (%d evals)", refSt.Evals)
			}
			_, _, err = run(loopSystem(), Config{MaxEvals: 2})
			cp1, ok := CheckpointOf[string, iv](err)
			if !ok {
				t.Fatalf("first abort carries no checkpoint: %v", err)
			}
			_, _, err = run(loopSystem(), Config{MaxEvals: refSt.Evals - 2, Resume: cp1})
			cp2, ok := CheckpointOf[string, iv](err)
			if !ok {
				t.Fatalf("second abort carries no checkpoint: %v", err)
			}
			got, gotSt, err := run(loopSystem(), Config{Resume: cp2})
			if err != nil {
				t.Fatalf("final resume failed: %v", err)
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates {
				t.Fatalf("chained resume evals/updates = %d/%d, want %d/%d",
					gotSt.Evals, gotSt.Updates, refSt.Evals, refSt.Updates)
			}
			sameAssignment(t, "chained", got, ref)
		})
	}
}

// TestResumeRejectsMismatch: a checkpoint must not resume on a different
// solver, a different system shape, or different element types, nor queue
// an unknown the system does not define.
func TestResumeRejectsMismatch(t *testing.T) {
	l := lattice.Ints
	op := Op[string](Warrow[iv](l))
	_, _, err := SW(loopSystem(), l, op, ivInit, Config{MaxEvals: 3})
	cp, ok := CheckpointOf[string, iv](err)
	if !ok {
		t.Fatalf("no checkpoint: %v", err)
	}

	if _, _, err := RR(loopSystem(), l, op, ivInit, Config{Resume: cp}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong solver accepted: %v", err)
	}

	other := eqn.NewSystem[string, iv]()
	other.Define("z", nil, func(func(string) iv) iv { return lattice.Singleton(1) })
	if _, _, err := SW(other, l, op, ivInit, Config{Resume: cp}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong system shape accepted: %v", err)
	}

	if _, _, err := SW(loopSystem(), l, op, ivInit, Config{Resume: "not a checkpoint"}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("foreign resume value accepted: %v", err)
	}

	ghost := *cp
	ghost.Queue = append(append([]string(nil), cp.Queue...), "ghost")
	if _, _, err := SW(loopSystem(), l, op, ivInit, Config{Resume: &ghost}); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("queued unknown outside the system accepted: %v", err)
	}
}

// TestRetryHealsTransientFaults: with a retry policy, transient injected
// faults are retried in place and the run completes with exactly the clean
// run's Evals, Updates and assignment — failed attempts never count.
func TestRetryHealsTransientFaults(t *testing.T) {
	for name, run := range globalSolvers() {
		t.Run(name, func(t *testing.T) {
			ref, refSt, err := run(loopSystem(), Config{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			var mu sync.Mutex
			faults := map[string]int{"h": 2, "e": 1}
			got, gotSt, err := run(flakyLoopSystem(&mu, faults),
				Config{Retry: RetryPolicy{MaxAttempts: 3}})
			if err != nil {
				t.Fatalf("flaky run with retries failed: %v", err)
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates {
				t.Fatalf("flaky evals/updates = %d/%d, want %d/%d",
					gotSt.Evals, gotSt.Updates, refSt.Evals, refSt.Updates)
			}
			if gotSt.Retries != 3 {
				t.Fatalf("Stats.Retries = %d, want 3", gotSt.Retries)
			}
			sameAssignment(t, "flaky", got, ref)
		})
	}
}

// TestEvalFailureAbortsWithDiagnosis: without retries, an injected fault
// aborts with reason eval-failure, the failing unknown pinned, the cause
// visible to errors.Is, and a resumable checkpoint attached; resuming after
// the fault healed completes with the clean run's exact totals.
func TestEvalFailureAbortsWithDiagnosis(t *testing.T) {
	for name, run := range globalSolvers() {
		t.Run(name, func(t *testing.T) {
			ref, refSt, err := run(loopSystem(), Config{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			var mu sync.Mutex
			faults := map[string]int{"b": 1}
			sys := flakyLoopSystem(&mu, faults)
			_, _, err = run(sys, Config{})
			if err == nil {
				t.Fatal("expected eval-failure abort")
			}
			rep, ok := ReportOf(err)
			if !ok || rep.Reason != AbortEvalFailure {
				t.Fatalf("report = %+v (ok=%v), want eval-failure", rep, ok)
			}
			if rep.Failure == nil || rep.Failure.Unknown != "b" || rep.Failure.Attempt != 1 {
				t.Fatalf("Failure = %+v, want unknown b, attempt 1", rep.Failure)
			}
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("errors.Is(err, ErrTransient) = false for %v", err)
			}
			cp, ok := CheckpointOf[string, iv](err)
			if !ok {
				t.Fatalf("no checkpoint on eval failure: %v", err)
			}
			// The injector already consumed its fault; the resumed run sees a
			// healed system and must finish bit-identically.
			got, gotSt, err := run(sys, Config{Resume: cp})
			if err != nil {
				t.Fatalf("resume after heal failed: %v", err)
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates {
				t.Fatalf("healed evals/updates = %d/%d, want %d/%d",
					gotSt.Evals, gotSt.Updates, refSt.Evals, refSt.Updates)
			}
			sameAssignment(t, "healed", got, ref)
		})
	}
}

// TestNonRetryablePanicAbortsFirstAttempt: plain panics are programming
// errors, not transient faults; even with a generous retry budget they
// abort on attempt 1, with the panic text preserved in the cause.
func TestNonRetryablePanicAbortsFirstAttempt(t *testing.T) {
	l := lattice.Ints
	sys := eqn.NewSystem[string, iv]()
	sys.Define("a", nil, func(func(string) iv) iv { panic("nil map write") })
	_, _, err := SW(sys, l, Op[string](Warrow[iv](l)), ivInit,
		Config{Retry: RetryPolicy{MaxAttempts: 5}})
	rep, ok := ReportOf(err)
	if !ok || rep.Reason != AbortEvalFailure {
		t.Fatalf("report = %+v (ok=%v), want eval-failure", rep, ok)
	}
	if rep.Failure.Attempt != 1 {
		t.Fatalf("Attempt = %d, want 1 (plain panics must not be retried)", rep.Failure.Attempt)
	}
	var ee *EvalError
	if !errors.As(err, &ee) || ee.Cause == nil || ee.Cause.Error() != "panic: nil map write" {
		t.Fatalf("cause = %v, want the recovered panic text", err)
	}
}

// TestLocalSolversWarmRestart: the local solvers attach a warm-restart
// checkpoint on abort; resuming it completes and reproduces the loop
// invariants (eval counts are the restarted run's own).
func TestLocalSolversWarmRestart(t *testing.T) {
	l := lattice.Ints
	op := func() Operator[string, iv] { return Op[string](Warrow[iv](l)) }
	runs := map[string]func(Config) (Result[string, iv], error){
		"slr": func(cfg Config) (Result[string, iv], error) {
			return SLR(loopSystem().AsPure(), l, op(), ivInit, "e", cfg)
		},
		"rld": func(cfg Config) (Result[string, iv], error) {
			return RLD(loopSystem().AsPure(), l, op(), ivInit, "e", cfg)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			_, err := run(Config{MaxEvals: 4})
			if err == nil {
				t.Fatal("expected abort")
			}
			cp, ok := CheckpointOf[string, iv](err)
			if !ok {
				t.Fatalf("no checkpoint on local abort: %v", err)
			}
			if len(cp.Sigma) == 0 {
				t.Fatal("local checkpoint carries no assignment")
			}
			res, err := run(Config{Resume: cp})
			if err != nil {
				t.Fatalf("warm restart failed: %v", err)
			}
			if name == "slr" {
				wantLoopInvariants(t, res.Values, name+" resumed")
			} else {
				// RLD is not a generic solver: restarted from mid-widening
				// values it may stabilize above the exact invariants. Require
				// soundness (a superset of the exact result), not precision.
				for x, exact := range map[string]iv{"h": lattice.Range(0, 100), "b": lattice.Range(0, 99), "e": lattice.Singleton(100)} {
					if !l.Leq(exact, res.Values[x]) {
						t.Errorf("rld resumed: σ[%s] = %s does not contain %s", x, res.Values[x], exact)
					}
				}
			}
		})
	}
}

// TestSLRPlusWarmRestart: the side-effecting solver also checkpoints on
// abort and completes from a warm restart.
func TestSLRPlusWarmRestart(t *testing.T) {
	l := lattice.Ints
	const n = 20
	sys := func(x string) eqn.SideRHS[string, iv] {
		if x == "g" {
			return nil
		}
		var i int
		if _, err := fmt.Sscanf(x, "c%d", &i); err != nil {
			return nil
		}
		return func(get func(string) iv, side func(string, iv)) iv {
			side("g", lattice.Singleton(int64(i)))
			if i+1 < n {
				return get(fmt.Sprintf("c%d", i+1))
			}
			return lattice.Singleton(0)
		}
	}
	init := func(string) iv { return lattice.EmptyInterval }
	op := Op[string](Warrow[iv](l))
	ref, err := SLRPlus[string, iv](sys, l, op, init, "c0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = SLRPlus[string, iv](sys, l, op, init, "c0", Config{MaxEvals: 5})
	if err == nil {
		t.Fatal("expected abort")
	}
	cp, ok := CheckpointOf[string, iv](err)
	if !ok {
		t.Fatalf("no checkpoint on SLR⁺ abort: %v", err)
	}
	res, err := SLRPlus[string, iv](sys, l, op, init, "c0", Config{Resume: cp})
	if err != nil {
		t.Fatalf("warm restart failed: %v", err)
	}
	if !l.Eq(res.Values["g"], ref.Values["g"]) {
		t.Fatalf("σ[g] = %s after restart, want %s", res.Values["g"], ref.Values["g"])
	}
}

// TestPeriodicCheckpointSink: Config.CheckpointEvery emits snapshots at the
// configured cadence, and a mid-run snapshot resumes to the uninterrupted
// totals.
func TestPeriodicCheckpointSink(t *testing.T) {
	l := lattice.Ints
	op := func() Operator[string, iv] { return Op[string](Warrow[iv](l)) }
	for _, name := range []string{"rr", "sw"} {
		t.Run(name, func(t *testing.T) {
			run := func(cfg Config) (map[string]iv, Stats, error) {
				if name == "rr" {
					return RR(loopSystem(), l, op(), ivInit, cfg)
				}
				return SW(loopSystem(), l, op(), ivInit, cfg)
			}
			ref, refSt, err := run(Config{})
			if err != nil {
				t.Fatal(err)
			}
			var cps []*Checkpoint[string, iv]
			_, _, err = run(Config{
				// The sink alone must not arm the watchdog, so give it a big
				// budget to keep the run bounded-but-complete.
				MaxEvals:        refSt.Evals + 1,
				CheckpointEvery: 3,
				CheckpointSink:  func(cp any) { cps = append(cps, cp.(*Checkpoint[string, iv])) },
			})
			if err != nil {
				t.Fatal(err)
			}
			want := (refSt.Evals - 1) / 3 // thresholds 3, 6, … strictly below the total
			if len(cps) != want {
				t.Fatalf("sink saw %d snapshots, want %d (evals %d, every 3)", len(cps), want, refSt.Evals)
			}
			mid := cps[len(cps)/2]
			got, gotSt, err := run(Config{Resume: mid})
			if err != nil {
				t.Fatalf("resume from periodic snapshot: %v", err)
			}
			if gotSt.Evals != refSt.Evals || gotSt.Updates != refSt.Updates {
				t.Fatalf("resumed evals/updates = %d/%d, want %d/%d",
					gotSt.Evals, gotSt.Updates, refSt.Evals, refSt.Updates)
			}
			sameAssignment(t, "periodic", got, ref)
		})
	}
}

// TestPSWWorkerPanicDrainsPool is the worker-panic regression test: a
// right-hand side that panics inside a PSW worker must surface as a
// structured eval-failure abort (not a process crash), the pool must drain
// without leaking goroutines at every tier-1 worker count, and the failed
// attempt must be rolled back from Stats.Evals — pinned by comparing the
// deterministic workers=1 run against sequential SW on the same system.
func TestPSWWorkerPanicDrainsPool(t *testing.T) {
	l := lattice.Ints
	mk := func() *eqn.System[string, iv] {
		sys := eqn.NewSystem[string, iv]()
		for c := 0; c < 3; c++ {
			h, b := fmt.Sprintf("h%d", c), fmt.Sprintf("b%d", c)
			sys.Define(h, []string{b}, func(get func(string) iv) iv {
				return l.Join(lattice.Singleton(0), get(b).Add(lattice.Singleton(1)))
			})
			sys.Define(b, []string{h}, func(get func(string) iv) iv {
				return get(h).RestrictLt(lattice.Singleton(100))
			})
		}
		sys.Define("bad", []string{"h2"}, func(func(string) iv) iv {
			panic("corrupted fact table")
		})
		return sys
	}
	op := func() Operator[string, iv] { return Op[string](Warrow[iv](l)) }

	_, swSt, swErr := SW(mk(), l, op(), ivInit, Config{})
	if rep, ok := ReportOf(swErr); !ok || rep.Reason != AbortEvalFailure {
		t.Fatalf("SW report = %+v (ok=%v), want eval-failure", rep, ok)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			_, st, err := PSW(mk(), l, op(), ivInit, Config{Workers: workers})
			rep, ok := ReportOf(err)
			if !ok || rep.Reason != AbortEvalFailure {
				t.Fatalf("report = %+v (ok=%v), want eval-failure", rep, ok)
			}
			if rep.Failure == nil || rep.Failure.Unknown != "bad" {
				t.Fatalf("Failure = %+v, want unknown bad", rep.Failure)
			}
			if _, ok := CheckpointOf[string, iv](err); !ok {
				t.Fatal("worker panic abort carries no checkpoint")
			}
			if workers == 1 && st.Evals != swSt.Evals {
				t.Fatalf("PSW evals = %d, SW evals = %d: failed attempt not rolled back", st.Evals, swSt.Evals)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutine leak after worker panic: %d running, %d before", n, before)
			}
		})
	}
}

// TestAbortHottestTieBreak is the golden test for the hottest-unknown
// ordering: unknowns with tied update counts must render in linear-order
// position, not in lexicographic order of their rendered names ("x10" would
// sort before "x2" as a string).
func TestAbortHottestTieBreak(t *testing.T) {
	l := lattice.Ints
	sys := eqn.NewSystem[string, iv]()
	for _, x := range []string{"x2", "x10", "x1"} {
		x := x
		sys.Define(x, nil, func(func(string) iv) iv { return lattice.Singleton(1) })
	}
	// Every unknown updates exactly once (⊥ → [1,1]); the budget trips on
	// the next scheduling point, with a three-way tie in the update counts.
	_, _, err := RR(sys, l, Op[string](Warrow[iv](l)), ivInit, Config{MaxEvals: 3})
	rep, ok := ReportOf(err)
	if !ok {
		t.Fatalf("no report: %v", err)
	}
	var got []string
	for _, h := range rep.Hottest {
		got = append(got, h.Unknown)
	}
	want := []string{"x2", "x10", "x1"} // the system's linear (definition) order
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Hottest order = %v, want linear order %v", got, want)
	}
}

// identityCodec serializes string/string checkpoints verbatim.
func identityCodec() Codec[string, string] {
	id := func(s string) string { return s }
	idErr := func(s string) (string, error) { return s, nil }
	return Codec[string, string]{EncodeX: id, DecodeX: idErr, EncodeD: id, DecodeD: idErr}
}

// TestCheckpointGoldenFormat pins the v1 wire format byte for byte: any
// accidental format change must bump CheckpointVersion instead of silently
// orphaning persisted checkpoints.
func TestCheckpointGoldenFormat(t *testing.T) {
	cp := &Checkpoint[string, string]{
		Solver:   "sw",
		SysFP:    42,
		Evals:    7,
		Updates:  3,
		Rounds:   1,
		MaxQueue: 4,
		Retries:  2,
		Cursor:   5,
		Dirty:    true,
		Sigma: []CheckpointEntry[string, string]{
			{X: `a "quoted"`, V: "0..5"},
			{X: "b", V: "empty"},
		},
		Queue: []string{"a"},
		Strata: []StratumCheckpoint{
			{Done: true},
			{Started: true, Queue: []int{2, 3}},
			{},
		},
	}
	golden := "warrow-checkpoint v1\n" +
		"solver sw\n" +
		"fingerprint 42\n" +
		"evals 7\n" +
		"updates 3\n" +
		"rounds 1\n" +
		"maxqueue 4\n" +
		"retries 2\n" +
		"cursor 5\n" +
		"dirty true\n" +
		"sigma 2\n" +
		"v \"a \\\"quoted\\\"\" \"0..5\"\n" +
		"v \"b\" \"empty\"\n" +
		"queue 1\n" +
		"q \"a\"\n" +
		"strata 3\n" +
		"s done\n" +
		"s started 2 3\n" +
		"s fresh\n" +
		"end\n"
	data, err := MarshalCheckpoint(cp, identityCodec())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != golden {
		t.Fatalf("wire format drifted:\n--- got ---\n%s\n--- want ---\n%s", data, golden)
	}
	back, err := UnmarshalCheckpoint[string, string](data, identityCodec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cp) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", back, cp)
	}

	for _, bad := range []string{
		"",
		"warrow-checkpoint v2\n",
		golden[:len(golden)-4], // missing end marker
		"warrow-checkpoint v1\nsolver sw\nfingerprint x\n", // corrupt field
	} {
		if _, err := UnmarshalCheckpoint[string, string]([]byte(bad), identityCodec()); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("malformed input %q accepted: %v", bad, err)
		}
	}
}

// TestRetryBackoffSchedule: the jittered exponential backoff is
// deterministic for a fixed seed, grows exponentially, respects the cap,
// and stays within [delay/2, delay].
func TestRetryBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	g := &evalGuard{
		policy: RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
			Seed:        7,
		},
		rng:   7 ^ 0x9e3779b97f4a7c15,
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	for next := 2; next <= 6; next++ {
		g.backoff(next)
	}
	want := []time.Duration{100, 200, 400, 500, 500} // ms, pre-jitter
	if len(slept) != len(want) {
		t.Fatalf("slept %d times, want %d", len(slept), len(want))
	}
	for i, d := range slept {
		lo, hi := want[i]*time.Millisecond/2, want[i]*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("backoff %d slept %v, want within [%v, %v]", i+2, d, lo, hi)
		}
	}
	// Same seed, same schedule.
	var again []time.Duration
	g2 := &evalGuard{
		policy: g.policy,
		rng:    7 ^ 0x9e3779b97f4a7c15,
		sleep:  func(d time.Duration) { again = append(again, d) },
	}
	for next := 2; next <= 6; next++ {
		g2.backoff(next)
	}
	if !reflect.DeepEqual(slept, again) {
		t.Fatalf("backoff schedule not deterministic: %v vs %v", slept, again)
	}
}
