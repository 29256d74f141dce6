package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// allSolvers adapts every solver entry point to a uniform signature on the
// Example 1 system, so bound-honoring contracts can be asserted across the
// whole stack in one table.
func allSolvers() map[string]func(cfg Config) (map[string]lattice.Nat, error) {
	l := lattice.NatInf
	return map[string]func(cfg Config) (map[string]lattice.Nat, error){
		"rr": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := RR(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"w": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := W(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"srr": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := SRR(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"sw": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := SW(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"psw": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := PSW(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"slr2": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := SLR2(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"slr3": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := SLR3(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"slr4": func(cfg Config) (map[string]lattice.Nat, error) {
			sigma, _, err := SLR4(example1System(), l, natWarrow(), zeroInit, cfg)
			return sigma, err
		},
		"rld": func(cfg Config) (map[string]lattice.Nat, error) {
			res, err := RLD(example1System().AsPure(), l, natWarrow(), zeroInit, "x1", cfg)
			return res.Values, err
		},
		"slr": func(cfg Config) (map[string]lattice.Nat, error) {
			res, err := SLR(example1System().AsPure(), l, natWarrow(), zeroInit, "x1", cfg)
			return res.Values, err
		},
		"slr+": func(cfg Config) (map[string]lattice.Nat, error) {
			res, err := SLRPlus(example1System().AsPure().AsSides(), l, natWarrow(), zeroInit, "x1", cfg)
			return res.Values, err
		},
	}
}

// TestAllSolversHonorCancellation: every solver entry point returns promptly
// on an already-cancelled context, with an AbortReport carrying reason
// cancel, an error matching context.Canceled, and a (possibly partial)
// non-nil assignment.
func TestAllSolversHonorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, solve := range allSolvers() {
		t.Run(name, func(t *testing.T) {
			sigma, err := solve(Config{MaxEvals: 100000, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a context.Canceled abort", err)
			}
			rep, ok := ReportOf(err)
			if !ok || rep.Reason != AbortCancel {
				t.Fatalf("report = %+v (ok=%v), want reason cancel", rep, ok)
			}
			if sigma == nil {
				t.Error("aborted solve returned a nil assignment, want the partial state")
			}
		})
	}
}

// TestAllSolversHonorDeadline: on the diverging Example 1 workload, every
// solver trips a short wall-clock bound with reason deadline and an error
// matching context.DeadlineExceeded, instead of running to the eval budget.
func TestAllSolversHonorDeadline(t *testing.T) {
	for name, solve := range allSolvers() {
		t.Run(name, func(t *testing.T) {
			// SRR, SW, PSW, SLR and SLR⁺ terminate on Example 1, so give the
			// deadline a head start over the first scheduling-point check.
			sigma, err := solve(Config{Timeout: time.Nanosecond})
			if err == nil {
				t.Skip("solver finished before the first deadline check")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want a deadline abort", err)
			}
			rep, ok := ReportOf(err)
			if !ok || rep.Reason != AbortDeadline {
				t.Fatalf("report = %+v (ok=%v), want reason deadline", rep, ok)
			}
			if sigma == nil {
				t.Error("aborted solve returned a nil assignment, want the partial state")
			}
		})
	}
}

// TestOscillationWatchdogOnExample1: with MaxFlips armed, RR's ⊟ divergence
// on Example 1 is caught by its narrow→widen signature long before the eval
// budget, and the report names the oscillating unknowns.
func TestOscillationWatchdogOnExample1(t *testing.T) {
	sigma, st, err := RR(example1System(), lattice.NatInf, natWarrow(), zeroInit,
		Config{MaxEvals: 100000, MaxFlips: 8})
	rep, ok := ReportOf(err)
	if !ok || rep.Reason != AbortOscillation {
		t.Fatalf("err = %v (report ok=%v), want an oscillation abort", err, ok)
	}
	if errors.Is(err, ErrEvalBudget) {
		t.Error("oscillation abort must not match ErrEvalBudget")
	}
	if st.Evals >= 100000 || rep.Evals != st.Evals {
		t.Errorf("Evals = %d, report %d: the watchdog should fire well before the budget", st.Evals, rep.Evals)
	}
	if rep.Widens == 0 || rep.Narrows == 0 {
		t.Errorf("report phases widens=%d narrows=%d, want both nonzero", rep.Widens, rep.Narrows)
	}
	if len(rep.Hottest) == 0 {
		t.Fatal("report lists no hottest unknowns")
	}
	if rep.Hottest[0].Updates == 0 || rep.Hottest[0].Flips <= 8 {
		t.Errorf("hottest entry %+v should record the oscillating traffic (>8 flips)", rep.Hottest[0])
	}
	var flipped int
	for _, n := range rep.FlipHist {
		flipped += n
	}
	if flipped == 0 {
		t.Error("flip histogram empty, want the oscillation fingerprint")
	}
	if len(sigma) != 3 {
		t.Errorf("partial assignment has %d unknowns, want all 3", len(sigma))
	}
	if !strings.Contains(err.Error(), "oscillation") {
		t.Errorf("error text %q does not mention oscillation", err)
	}
}

// TestBudgetAbortCarriesReport: a budget abort still matches the legacy
// ErrEvalBudget sentinel, retains the legacy message fragment, and now also
// carries the structured report with exact eval accounting and a hottest
// list sorted by update count.
func TestBudgetAbortCarriesReport(t *testing.T) {
	_, st, err := RR(example1System(), lattice.NatInf, natWarrow(), zeroInit, Config{MaxEvals: 100})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("err = %v, want ErrEvalBudget compatibility", err)
	}
	if !strings.Contains(err.Error(), "evaluation budget exceeded") {
		t.Errorf("error text %q lost the legacy budget phrase", err)
	}
	rep, ok := ReportOf(err)
	if !ok || rep.Reason != AbortBudget {
		t.Fatalf("report = %+v (ok=%v), want reason budget", rep, ok)
	}
	if rep.Evals != st.Evals || rep.Evals != 100 {
		t.Errorf("report Evals = %d, stats %d, want exactly 100", rep.Evals, st.Evals)
	}
	for i := 1; i < len(rep.Hottest); i++ {
		if rep.Hottest[i].Updates > rep.Hottest[i-1].Updates {
			t.Errorf("Hottest not sorted by updates: %+v", rep.Hottest)
		}
	}
}

// TestUnboundedConfigHasNilWatchdog: a Config with no bound at all must not
// arm the watchdog, so unbounded benchmark runs pay zero instrumentation.
func TestUnboundedConfigHasNilWatchdog(t *testing.T) {
	if wd := newWatchdog[string](Config{}, nil); wd != nil {
		t.Fatal("newWatchdog(Config{}) != nil, unbounded runs would pay for instrumentation")
	}
	if wd := newWatchdog[string](Config{MaxFlips: 1}, nil); wd == nil {
		t.Fatal("newWatchdog with MaxFlips = nil, the oscillation bound is ignored")
	}
	var wd *watchdog[string]
	if err := wd.check(1 << 30); err != nil {
		t.Fatalf("nil watchdog check = %v, want nil", err)
	}
	if err := wd.abort(AbortBudget, 0); !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("nil watchdog abort = %v, want the bare sentinel", err)
	}
}

// TestTwoPhaseSharesDeadline: both phases of a two-phase baseline run
// against one absolute deadline; the second phase must not restart the
// clock. An expired bound aborts in phase 1 already.
func TestTwoPhaseSharesDeadline(t *testing.T) {
	l := lattice.Ints
	type v = lattice.Interval
	sys := func(x string) eqn.SideRHS[string, v] {
		return func(get func(string) v, _ func(string, v)) v {
			old := get(x)
			if old.IsEmpty() {
				return lattice.Singleton(0)
			}
			return lattice.NewInterval(old.Lo, old.Hi.Add(lattice.Fin(1)))
		}
	}
	_, err := TwoPhaseSides(sys, l, func(string) v { return lattice.EmptyInterval }, "x",
		Config{Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline abort from the widening phase", err)
	}
}

// TestRRCountsInterruptedSweep pins the satellite fix for RR's round
// accounting: a sweep cut short by the budget counts toward Stats.Rounds
// (Example 1 has 3 unknowns; budget 4 stops inside sweep 2), while an abort
// at an exact sweep boundary does not start a phantom round.
func TestRRCountsInterruptedSweep(t *testing.T) {
	l := lattice.NatInf
	_, st, err := RR(example1System(), l, natWarrow(), zeroInit, Config{MaxEvals: 4})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("err = %v, want budget abort", err)
	}
	if st.Evals != 4 {
		t.Errorf("Evals = %d, want 4", st.Evals)
	}
	if st.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2: the interrupted second sweep performed an evaluation", st.Rounds)
	}

	// Budget 3 is an exact sweep boundary: the abort fires before the first
	// evaluation of sweep 2, which therefore never becomes a round.
	_, st, err = RR(example1System(), l, natWarrow(), zeroInit, Config{MaxEvals: 3})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("err = %v, want budget abort", err)
	}
	if st.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1: no evaluation of sweep 2 happened", st.Rounds)
	}
}

// TestSLRPlusSideSolveBudgetPropagates pins the satellite fix for the
// swallowed side-callback error: with budget 1, main's side effect discovers
// the fresh global z, solving z trips the budget inside the callback, and
// main finishes without another evaluation — the solver must report the
// abort, not success over a truncated run (pre-fix, z silently kept its
// initial value).
func TestSLRPlusSideSolveBudgetPropagates(t *testing.T) {
	l := lattice.NatInf
	sys := func(x string) eqn.SideRHS[string, lattice.Nat] {
		if x != "main" {
			return nil
		}
		return func(_ func(string) lattice.Nat, side func(string, lattice.Nat)) lattice.Nat {
			side("z", lattice.NatOf(5))
			return lattice.NatOf(0)
		}
	}
	res, err := SLRPlus(sys, l, natWarrow(), zeroInit, "main", Config{MaxEvals: 1})
	if !errors.Is(err, ErrEvalBudget) {
		t.Fatalf("err = %v, want the budget abort raised inside the side callback", err)
	}
	if _, ok := res.Values["z"]; !ok {
		t.Error("partial assignment lost the side-effected unknown z")
	}
}

// TestBandKeyInt64Reference pins the satellite fix for the 32-bit key
// overflow: priority bands live in bits 32 and up, so keys must be computed
// in int64 — in int, band<<32 is 0 on 32-bit platforms and every band
// collapses. The reference values and the band-dominance property below
// only hold with 64-bit arithmetic (the GOARCH=386 build in tier1 guards
// the operand types mechanically).
func TestBandKeyInt64Reference(t *testing.T) {
	cases := []struct {
		band, count int
		want        int64
	}{
		{0, 0, 0},
		{0, 5, -5},
		{1, 0, 1 << 32},
		{1, 3, 1<<32 - 3},
		{3, 7, 3<<32 - 7},
	}
	for _, c := range cases {
		if got := bandKey(c.band, c.count); got != c.want {
			t.Errorf("bandKey(%d, %d) = %d, want %d", c.band, c.count, got, c.want)
		}
	}
	// Band dominance: any key of band b+1 exceeds every key of band b, even
	// after a billion discoveries — the invariant SLRPlusKeyed's termination
	// argument needs.
	if bandKey(1, 1_000_000_000) <= bandKey(0, 0) {
		t.Error("band 1 key does not dominate band 0")
	}
	if bandKey(2, 1<<31-1) <= bandKey(1, 0) {
		t.Error("band 2 key does not dominate band 1")
	}
}

// TestAbortErrorIsCrossSolver: two aborts match via errors.Is exactly when
// their reasons agree — the contract assertPSWMatchesSW relies on.
func TestAbortErrorIsCrossSolver(t *testing.T) {
	budget := &AbortError{Report: AbortReport{Reason: AbortBudget}}
	budget2 := &AbortError{Report: AbortReport{Reason: AbortBudget, Evals: 7}}
	osc := &AbortError{Report: AbortReport{Reason: AbortOscillation}}
	if !errors.Is(budget, budget2) {
		t.Error("same-reason aborts should match")
	}
	if errors.Is(budget, osc) {
		t.Error("different-reason aborts should not match")
	}
	if !errors.Is(budget, ErrEvalBudget) {
		t.Error("budget abort should match the legacy sentinel")
	}
	if errors.Is(osc, ErrEvalBudget) {
		t.Error("oscillation abort must not match ErrEvalBudget")
	}
}

// renderCountingKey is an unknown whose String method counts its calls.
type renderCountingKey struct {
	id    int
	calls *int
}

func (k renderCountingKey) String() string {
	*k.calls++
	return fmt.Sprintf("k%05d", k.id)
}

// TestAbortHottestRendersOnce: a local solver's watchdog has no index, so
// it breaks ties on rendered unknowns. Selecting the hottest must render
// each updated unknown at most once, however many tie.
func TestAbortHottestRendersOnce(t *testing.T) {
	calls := 0
	w := newWatchdog[renderCountingKey](Config{MaxEvals: 1}, nil)
	const n = 5000
	r := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		x := renderCountingKey{id: i, calls: &calls}
		// Few distinct counts, so nearly every unknown ties with another.
		for u := r.Intn(3) + 1; u > 0; u-- {
			w.observe(x, PhaseWiden)
		}
	}
	rep, ok := ReportOf(w.check(1))
	if !ok || len(rep.Hottest) != maxHotUnknowns {
		t.Fatalf("want a budget abort with %d hottest, got %+v", maxHotUnknowns, rep)
	}
	if calls > n {
		t.Fatalf("String called %d times for %d updated unknowns, want at most one each", calls, n)
	}
	for i := 1; i < len(rep.Hottest); i++ {
		a, b := rep.Hottest[i-1], rep.Hottest[i]
		if a.Updates < b.Updates || (a.Updates == b.Updates && a.Unknown > b.Unknown) {
			t.Fatalf("hottest out of order: %+v before %+v", a, b)
		}
	}
}

// TestAbortHottestMatchesFullSort: the one-pass selection reports exactly
// the first maxHotUnknowns rows of a full sort by (updates descending, then
// index or rendering ascending), on random counts with many ties, with and
// without a linear-order index.
func TestAbortHottestMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		names := r.Perm(1000)[:n]
		idx := map[string]int{}
		for i, p := range r.Perm(n) {
			idx[fmt.Sprintf("u%d", names[i])] = p
		}
		for _, useIdx := range []bool{false, true} {
			var wi map[string]int
			if useIdx {
				wi = idx
			}
			w := newWatchdog[string](Config{MaxEvals: 1}, wi)
			counts := map[string]int{}
			for x := range idx {
				if r.Intn(4) == 0 {
					continue // never updated
				}
				c := r.Intn(4) + 1
				counts[x] = c
				for u := 0; u < c; u++ {
					w.observe(x, PhaseWiden)
					if r.Intn(3) == 0 {
						w.observe(x, PhaseNarrow)
						counts[x]++
					}
				}
			}
			ref := make([]string, 0, len(counts))
			for x := range counts {
				ref = append(ref, x)
			}
			sort.Slice(ref, func(i, j int) bool {
				a, b := ref[i], ref[j]
				if counts[a] != counts[b] {
					return counts[a] > counts[b]
				}
				if useIdx {
					return idx[a] < idx[b]
				}
				return a < b
			})
			if len(ref) > maxHotUnknowns {
				ref = ref[:maxHotUnknowns]
			}
			rep, _ := ReportOf(w.check(1))
			if len(rep.Hottest) != len(ref) {
				t.Fatalf("trial %d (index %v): %d hottest, want %d", trial, useIdx, len(rep.Hottest), len(ref))
			}
			for i, h := range rep.Hottest {
				if h.Unknown != ref[i] || h.Updates != counts[ref[i]] || h.Flips != w.flips[ref[i]] {
					t.Fatalf("trial %d (index %v): hottest[%d] = %+v, want %s with %d updates",
						trial, useIdx, i, h, ref[i], counts[ref[i]])
				}
			}
		}
	}
}
