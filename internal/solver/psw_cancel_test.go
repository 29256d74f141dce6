package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// gatedSystem builds a system whose "gate" unknown calls block() on every
// evaluation: a handful of terminating counting loops plus a gate self-loop
// that stabilizes at [0,0] after two evaluations. With a blocking hook the
// gate holds its stratum open deterministically, so a test can cancel the
// solve mid-stratum from outside; with a no-op hook the system terminates
// and its solution certifies.
func gatedSystem(block func()) *eqn.System[string, iv] {
	l := lattice.Ints
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
	sys.Define("gate", []string{"gate"}, func(get func(string) iv) iv {
		block()
		if get("gate").IsEmpty() {
			return lattice.Singleton(0)
		}
		return get("gate")
	})
	return sys
}

// TestPSWCancellationMidStratum cancels a PSW solve from an external
// goroutine while a worker is provably inside a stratum (blocked in the
// gate's right-hand side), for every tier-1 worker count. The solve must
// return an AbortCancel report with its partial assignment, the worker pool
// must shut down without leaking goroutines, and rerunning the identical
// workload without cancellation must produce a certified post-solution.
func TestPSWCancellationMidStratum(t *testing.T) {
	l := lattice.Ints
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			entered := make(chan struct{})
			firstEntry := true
			sys := gatedSystem(func() {
				// The gate is confined to one stratum worker, so no lock is
				// needed; signal the first entry, then hold the stratum open
				// until the external cancel arrives.
				if firstEntry {
					firstEntry = false
					close(entered)
				}
				<-ctx.Done()
			})
			go func() {
				<-entered
				cancel()
			}()
			sigma, _, err := PSW(sys, l, Op[string](Warrow[iv](l)), ivInit,
				Config{Workers: workers, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want cancellation", err)
			}
			rep, ok := ReportOf(err)
			if !ok || rep.Reason != AbortCancel {
				t.Fatalf("report = %+v (ok=%v), want reason cancel", rep, ok)
			}
			if sigma == nil {
				t.Fatal("cancelled solve returned nil assignment, want the partial state")
			}

			// The pool must wind down: poll until the goroutine count returns
			// to the pre-solve level (the canceller goroutine exits with us).
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutine leak after cancellation: %d running, %d before the solve", n, before)
			}

			// The identical workload without cancellation terminates and
			// certifies — graceful degradation is recoverable.
			clean := gatedSystem(func() {})
			full, _, err := PSW(clean, l, Op[string](Warrow[iv](l)), ivInit, Config{Workers: workers})
			if err != nil {
				t.Fatalf("rerun without cancellation failed: %v", err)
			}
			if _, ok := eqn.IsPostSolution(l, clean, full, ivInit); !ok {
				t.Fatal("rerun result is not a post-solution")
			}
		})
	}
}

// TestPSWDeadlineMidStratum: the wall-clock bound takes the same controlled
// shutdown path as cancellation — workers drain, the report says deadline,
// and the error matches context.DeadlineExceeded.
func TestPSWDeadlineMidStratum(t *testing.T) {
	l := lattice.Ints
	sys := oscillatorFarm(4)
	for _, workers := range []int{1, 4} {
		_, st, err := PSW(sys, l, Op[string](Warrow[iv](l)), ivInit,
			Config{Workers: workers, Timeout: 5 * time.Millisecond})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want deadline abort", workers, err)
		}
		rep, ok := ReportOf(err)
		if !ok || rep.Reason != AbortDeadline {
			t.Fatalf("workers=%d: report = %+v (ok=%v), want reason deadline", workers, rep, ok)
		}
		// Concurrent workers may finish evaluations after the abort trips;
		// the report carries the final count all the same.
		if rep.Evals != st.Evals {
			t.Errorf("workers=%d: report Evals = %d, stats %d, want exact agreement", workers, rep.Evals, st.Evals)
		}
	}
}

// TestPSWBudgetRacesEvalFailure: with workers = 4, one worker's evaluation
// is still in flight — holding a budget slot — when another worker trips
// the budget; the in-flight evaluation then fails and returns its slot. The
// budget abort reaches the scheduler first, and its report must carry the
// evaluations actually performed (budget − 1), equal to Stats.Evals.
func TestPSWBudgetRacesEvalFailure(t *testing.T) {
	const budget = 20
	l := lattice.Ints
	started, countersDone := make(chan struct{}), make(chan struct{})
	var startOnce, doneOnce sync.Once
	var counted atomic.Int64
	sys := eqn.NewSystem[string, iv]()
	sys.Define("slow", nil, func(func(string) iv) iv {
		startOnce.Do(func() { close(started) })
		<-countersDone
		// Give the worker that trips the budget time to report it first.
		time.Sleep(50 * time.Millisecond)
		panic("injected failure")
	})
	for c := 0; c < 3; c++ {
		x := fmt.Sprintf("c%d", c)
		sys.Define(x, []string{x}, func(get func(string) iv) iv {
			<-started
			if counted.Add(1) == budget-1 {
				doneOnce.Do(func() { close(countersDone) })
			}
			return l.Join(lattice.Singleton(0), get(x).Add(lattice.Singleton(1)))
		})
	}
	_, st, err := PSW(sys, l, Op[string](Join[iv](l)), ivInit, Config{Workers: 4, MaxEvals: budget})
	rep, ok := ReportOf(err)
	if !ok || rep.Reason != AbortBudget {
		t.Fatalf("err = %v, want the budget abort to arrive first", err)
	}
	if st.Evals != budget-1 || rep.Evals != st.Evals {
		t.Errorf("report Evals = %d, Stats.Evals = %d, want both %d", rep.Evals, st.Evals, budget-1)
	}
}

// TestCPWBudgetRacesEvalFailure is TestPSWBudgetRacesEvalFailure for CPW,
// which runs strata one at a time, so the evaluations race inside one SCC:
// slow reads every counter, each counter reads itself and slow. While slow
// holds a budget slot, the counters use up the rest; one worker trips the
// budget, and slow's evaluation then fails and returns its slot. Stats, the
// report and the checkpoint must all carry the evaluations actually
// performed (budget − 1).
func TestCPWBudgetRacesEvalFailure(t *testing.T) {
	const budget = 20
	l := lattice.Ints
	started, countersDone := make(chan struct{}), make(chan struct{})
	var startOnce, doneOnce sync.Once
	var counted atomic.Int64
	sys := eqn.NewSystem[string, iv]()
	sys.Define("slow", []string{"c0", "c1", "c2"}, func(func(string) iv) iv {
		startOnce.Do(func() { close(started) })
		<-countersDone
		// Give the worker that trips the budget time to report it first.
		time.Sleep(50 * time.Millisecond)
		panic("injected failure")
	})
	for c := 0; c < 3; c++ {
		x := fmt.Sprintf("c%d", c)
		sys.Define(x, []string{x, "slow"}, func(get func(string) iv) iv {
			<-started
			if counted.Add(1) == budget-1 {
				doneOnce.Do(func() { close(countersDone) })
			}
			return l.Join(lattice.Singleton(0), get(x).Add(lattice.Singleton(1)))
		})
	}
	_, st, err := CPW(sys, l, Op[string](Join[iv](l)), ivInit, Config{Workers: 4, MaxEvals: budget})
	rep, ok := ReportOf(err)
	if !ok || rep.Reason != AbortBudget {
		t.Fatalf("err = %v, want the budget abort to arrive first", err)
	}
	cp, ok := CheckpointOf[string, iv](err)
	if !ok {
		t.Fatal("budget abort carried no checkpoint")
	}
	if st.Evals != budget-1 || rep.Evals != st.Evals || cp.Evals != st.Evals {
		t.Errorf("Stats.Evals = %d, report Evals = %d, checkpoint Evals = %d, want all %d", st.Evals, rep.Evals, cp.Evals, budget-1)
	}
}
