package solver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"warrow/internal/lattice"
)

// AbortReason says why the divergence watchdog stopped a solve.
type AbortReason int8

// Abort reasons.
const (
	// AbortBudget: the evaluation budget (Config.MaxEvals) ran out.
	AbortBudget AbortReason = iota
	// AbortDeadline: the wall-clock bound (Config.Timeout, or a deadline
	// carried by Config.Ctx) passed.
	AbortDeadline
	// AbortCancel: Config.Ctx was cancelled.
	AbortCancel
	// AbortOscillation: a single unknown alternated narrow→widen more than
	// Config.MaxFlips times — the divergence signature of ⊟ on the
	// unstructured solvers (Examples 1 and 2) and of self-feeding globals
	// under SLR⁺.
	AbortOscillation
	// AbortEvalFailure: a right-hand-side evaluation panicked or failed and
	// was not healed by the retry policy; the failing unknown is pinned in
	// AbortReport.Failure.
	AbortEvalFailure
)

// String renders the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortBudget:
		return "budget"
	case AbortDeadline:
		return "deadline"
	case AbortCancel:
		return "cancel"
	case AbortOscillation:
		return "oscillation"
	case AbortEvalFailure:
		return "eval-failure"
	default:
		return "?"
	}
}

// MarshalJSON renders the reason as its string name, so structured logs and
// wire responses say "deadline" rather than an opaque ordinal.
func (r AbortReason) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON inverts MarshalJSON, rejecting unknown reason names.
func (r *AbortReason) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for _, cand := range []AbortReason{AbortBudget, AbortDeadline, AbortCancel, AbortOscillation, AbortEvalFailure} {
		if cand.String() == s {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("solver: unknown abort reason %q", s)
}

// HotUnknown is one row of AbortReport.Hottest: an unknown together with
// the update traffic the watchdog observed on it.
type HotUnknown struct {
	// Unknown is the rendered unknown (fmt.Sprint of the solver's X).
	Unknown string `json:"unknown"`
	// Updates counts the non-stable update steps applied to it.
	Updates int `json:"updates"`
	// Flips counts its narrow→widen phase alternations.
	Flips int `json:"flips"`
}

// AbortReport is the structured diagnosis attached to every aborted solve:
// why the run stopped, how much work it had done, which unknowns were
// hottest, and how the ∇/Δ phases were distributed — enough to decide
// whether to escalate the workload to a terminating structured solver
// (SRR/SW) or to reject it. Like Stats, the JSON field names are wire
// format, pinned by a golden test.
type AbortReport struct {
	// Reason says which bound tripped.
	Reason AbortReason `json:"reason"`
	// Bound, on AbortDeadline aborts, names the bound that actually fired
	// when both Config.Timeout and a Ctx deadline can be armed: "timeout"
	// for the wall-clock bound derived from Config.Timeout, "ctx" for the
	// deadline carried by Config.Ctx. The effective deadline is always the
	// minimum of the two; Bound records which one that minimum came from.
	// Empty for every other abort reason.
	Bound string `json:"bound,omitempty"`
	// Evals counts right-hand-side evaluations performed before the abort.
	Evals int `json:"evals"`
	// Elapsed is the wall-clock duration of the run up to the abort.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Widens and Narrows count the update steps per phase across all
	// unknowns, as classified by the ⊟ hook (PhaseOf).
	Widens  int `json:"widens"`
	Narrows int `json:"narrows"`
	// Hottest lists the most-updated unknowns, descending; at most
	// maxHotUnknowns entries.
	Hottest []HotUnknown `json:"hottest,omitempty"`
	// FlipHist is a power-of-two histogram over the per-unknown
	// narrow→widen flip counts (unknowns that never flipped are omitted).
	// A heavy tail here is the oscillation fingerprint; an empty histogram
	// with a huge Evals count points at slow convergence instead.
	FlipHist Hist `json:"flip_hist"`
	// Failure pins the failing evaluation on AbortEvalFailure aborts: the
	// unknown, the attempt count, and the recovered cause.
	Failure *EvalError `json:"failure,omitempty"`
	// Checkpoint, when non-nil, is the *Checkpoint[X, D] captured at the
	// abort's scheduling point; extract it with CheckpointOf. It is typed
	// any because reports are element-type-agnostic. Never serialized with
	// the report: the wire carries checkpoints through their own versioned
	// format (MarshalCheckpoint), not through JSON.
	Checkpoint any `json:"-"`
}

// String renders a one-line summary of the report.
func (r AbortReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "aborted (%s) after %d evals in %v: %d widens, %d narrows",
		r.Reason, r.Evals, r.Elapsed.Round(time.Microsecond), r.Widens, r.Narrows)
	if r.Failure != nil {
		fmt.Fprintf(&b, "; failed unknown %s (attempt %d): %v", r.Failure.Unknown, r.Failure.Attempt, r.Failure.Cause)
	}
	for i, h := range r.Hottest {
		if i == 0 {
			b.WriteString("; hottest:")
		}
		fmt.Fprintf(&b, " %s(%d updates, %d flips)", h.Unknown, h.Updates, h.Flips)
	}
	return b.String()
}

// AbortError is the error every aborted solve returns alongside its partial
// assignment. It matches the legacy sentinels through errors.Is — a budget
// abort matches ErrEvalBudget, a cancellation matches context.Canceled and
// a deadline abort matches context.DeadlineExceeded — so callers may keep
// testing with the sentinels while the report carries the diagnosis.
type AbortError struct {
	Report AbortReport
}

// Error implements error. The budget message deliberately contains the
// legacy "evaluation budget exceeded" phrase so textual matchers survive.
func (e *AbortError) Error() string {
	switch e.Report.Reason {
	case AbortBudget:
		return "solver: evaluation budget exceeded; " + e.Report.String()
	case AbortDeadline:
		return "solver: wall-clock deadline exceeded; " + e.Report.String()
	case AbortCancel:
		return "solver: cancelled; " + e.Report.String()
	case AbortOscillation:
		return "solver: divergence watchdog tripped; " + e.Report.String()
	case AbortEvalFailure:
		return "solver: right-hand side failed; " + e.Report.String()
	default:
		return "solver: " + e.Report.String()
	}
}

// Unwrap exposes the failing evaluation of an AbortEvalFailure abort, so
// errors.As finds the *EvalError and errors.Is sees its cause chain
// (ErrTransient for injected faults). Other aborts unwrap to nothing.
func (e *AbortError) Unwrap() error {
	if e.Report.Failure != nil {
		return e.Report.Failure
	}
	return nil
}

// Is implements the errors.Is protocol (see AbortError). Two AbortErrors
// match when they aborted for the same reason, so cross-solver comparisons
// like errors.Is(pswErr, swErr) treat equal-reason aborts as equivalent.
func (e *AbortError) Is(target error) bool {
	if other, ok := target.(*AbortError); ok {
		return other.Report.Reason == e.Report.Reason
	}
	switch e.Report.Reason {
	case AbortBudget:
		return target == ErrEvalBudget
	case AbortDeadline:
		return target == context.DeadlineExceeded
	case AbortCancel:
		return target == context.Canceled
	default:
		return false
	}
}

// ReportOf extracts the AbortReport from a solver error, if it carries one.
func ReportOf(err error) (AbortReport, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Report, true
	}
	return AbortReport{}, false
}

// maxHotUnknowns bounds AbortReport.Hottest.
const maxHotUnknowns = 5

// watchdog is the per-run robustness monitor shared by all solvers. It owns
// every abort decision — budget, context cancellation, wall-clock deadline
// and ∇/Δ oscillation — and the per-unknown accounting that turns an abort
// into an AbortReport. Solvers consult check at every scheduling point and
// route their operator through instrument, which taps the ⊟ hook (Observe).
//
// A nil watchdog is valid and free: newWatchdog returns nil for an entirely
// unbounded Config, and every method is a no-op on a nil receiver, so
// benchmark-grade runs pay nothing.
//
// All state is guarded by mu because PSW and CPW each share one watchdog
// across their worker pool.
type watchdog[X comparable] struct {
	budget   int
	ctx      context.Context
	deadline time.Time
	// bound names the source of deadline — "timeout" (Config.Timeout) or
	// "ctx" (the deadline carried by Config.Ctx) — whichever is the
	// minimum; empty when no wall-clock bound is armed.
	bound    string
	maxFlips int
	start    time.Time

	// idx maps unknowns to their linear-order index for deterministic
	// tie-breaking in AbortReport.Hottest; nil for local solvers, which
	// fall back to the rendered unknown.
	idx map[X]int

	mu      sync.Mutex
	updates map[X]int
	last    map[X]Phase
	flips   map[X]int
	widens  int
	narrows int
	// osc holds the first unknown whose flip count crossed maxFlips; the
	// abort itself happens at the owner's next check, since an Operator has
	// no error channel.
	osc *X
}

// newWatchdog arms a watchdog for cfg, or returns nil when cfg imposes no
// bound at all. idx, when non-nil, maps unknowns to their linear-order
// positions (the global solvers pass the memoized eqn.Index); the watchdog
// uses it to break hottest-unknown ties by index, so reports are stable
// even when concurrent schedules (PSW, CPW) observe updates in different
// interleavings. Local solvers pass nil and tie-break on the rendered
// unknown.
func newWatchdog[X comparable](cfg Config, idx map[X]int) *watchdog[X] {
	cfg = cfg.started(time.Now())
	if cfg.MaxEvals <= 0 && cfg.Ctx == nil && cfg.deadline.IsZero() && cfg.MaxFlips <= 0 {
		return nil
	}
	w := &watchdog[X]{
		budget:   cfg.budget(),
		ctx:      cfg.Ctx,
		deadline: cfg.deadline,
		maxFlips: cfg.MaxFlips,
		start:    time.Now(),
		idx:      idx,
		updates:  make(map[X]int),
		last:     make(map[X]Phase),
		flips:    make(map[X]int),
	}
	// The effective wall-clock bound is the minimum of Config.Timeout and
	// the deadline carried by Config.Ctx (when both are set); bound records
	// which of the two that minimum came from, so an AbortDeadline report
	// can say which bound fired. Ties go to "timeout": the explicit solver
	// knob outranks the ambient context.
	if !w.deadline.IsZero() {
		w.bound = "timeout"
	}
	if cfg.Ctx != nil {
		if cd, ok := cfg.Ctx.Deadline(); ok && (w.deadline.IsZero() || cd.Before(w.deadline)) {
			w.deadline = cd
			w.bound = "ctx"
		}
	}
	return w
}

// instrument routes op through the watchdog's ⊟ hook so phases and update
// counts are recorded; a nil watchdog returns op unchanged.
func instrument[X comparable, D any](w *watchdog[X], l lattice.Lattice[D], op Operator[X, D]) Operator[X, D] {
	if w == nil {
		return op
	}
	return Observe(l, op, w.observe)
}

// observe is the ⊟ hook: it records the phase of one update step.
func (w *watchdog[X]) observe(x X, p Phase) {
	if p == PhaseStable {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if p == PhaseRestart {
		// A restarting solver (SLR3/SLR4) reset x to its initial value:
		// forget the phase history so the re-ascension that follows is not
		// counted as a narrow→widen flip. Restart transitions are deliberate
		// iteration; genuine oscillation — alternation with no intervening
		// restart — still accumulates flips and trips MaxFlips.
		delete(w.last, x)
		return
	}
	w.updates[x]++
	if p == PhaseWiden {
		w.widens++
		if w.last[x] == PhaseNarrow {
			w.flips[x]++
			if w.maxFlips > 0 && w.flips[x] > w.maxFlips && w.osc == nil {
				x := x
				w.osc = &x
			}
		}
	} else {
		w.narrows++
	}
	w.last[x] = p
}

// check is the scheduling-point gate: solvers call it with the number of
// evaluations performed so far, immediately before performing another one.
// It returns nil to proceed or an *AbortError to stop; the caller must
// return its partial assignment together with that error.
func (w *watchdog[X]) check(evals int) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if evals >= w.budget {
		return w.abortLocked(AbortBudget, evals)
	}
	if w.osc != nil {
		return w.abortLocked(AbortOscillation, evals)
	}
	// The effective deadline (the min of Timeout and the ctx deadline, see
	// newWatchdog) is checked before the context poll, so deadline aborts
	// are attributed to the bound that is actually the minimum even when
	// both have expired by the time this scheduling point is reached.
	if !w.deadline.IsZero() && !time.Now().Before(w.deadline) {
		return w.abortLocked(AbortDeadline, evals)
	}
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			reason := AbortCancel
			if errors.Is(err, context.DeadlineExceeded) {
				reason = AbortDeadline
			}
			return w.abortLocked(reason, evals)
		}
	}
	return nil
}

// failEval turns a persistent evaluation failure into an AbortEvalFailure
// abort with the failing unknown pinned. Unlike every other abort reason,
// evaluation failures do not require an armed watchdog — panic isolation is
// unconditional — so a nil receiver builds a minimal report.
func (w *watchdog[X]) failEval(ee *EvalError, evals int) error {
	if w == nil {
		return &AbortError{Report: AbortReport{Reason: AbortEvalFailure, Evals: evals, Failure: ee}}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.abortLocked(AbortEvalFailure, evals)
	err.(*AbortError).Report.Failure = ee
	return err
}

// abort builds the abort error from outside the lock (the budget path of
// PSW and CPW, which account evaluations atomically rather than through
// check). On a
// nil watchdog it degrades to the bare sentinel.
func (w *watchdog[X]) abort(reason AbortReason, evals int) error {
	if w == nil {
		return ErrEvalBudget
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abortLocked(reason, evals)
}

func (w *watchdog[X]) abortLocked(reason AbortReason, evals int) error {
	rep := AbortReport{
		Reason:  reason,
		Evals:   evals,
		Elapsed: time.Since(w.start),
		Widens:  w.widens,
		Narrows: w.narrows,
	}
	if reason == AbortDeadline {
		rep.Bound = w.bound
		if rep.Bound == "" {
			// A context that reports DeadlineExceeded without exposing its
			// deadline (custom implementations) can only have come from Ctx.
			rep.Bound = "ctx"
		}
	}
	for _, n := range w.flips {
		rep.FlipHist.Observe(n)
	}
	rep.Hottest = w.hottest()
	return &AbortError{Report: rep}
}

// hottest selects the maxHotUnknowns most-updated unknowns, descending, in
// one pass over the update counts. Ties are broken by linear-order index
// where the solver supplied one, and by the rendered unknown otherwise.
// An unknown is rendered at most once, and only when it ties with a
// selected unknown or is reported. A local solve can update 10⁵ unknowns,
// and a deadline abort overshoots its bound by however long this takes, so
// it must not sort them or render each one in a comparator.
func (w *watchdog[X]) hottest() []HotUnknown {
	type hot struct {
		x     X
		n     int
		name  string
		named bool
	}
	render := func(h *hot) string {
		if !h.named {
			h.name, h.named = fmt.Sprint(h.x), true
		}
		return h.name
	}
	// before reports whether a ranks ahead of b.
	before := func(a, b *hot) bool {
		if a.n != b.n {
			return a.n > b.n
		}
		if w.idx != nil {
			return w.idx[a.x] < w.idx[b.x]
		}
		return render(a) < render(b)
	}
	var top [maxHotUnknowns]hot
	k := 0
	for x, n := range w.updates {
		c := hot{x: x, n: n}
		if k == len(top) {
			if !before(&c, &top[k-1]) {
				continue
			}
			k--
		}
		j := k
		for ; j > 0 && before(&c, &top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = c
		k++
	}
	if k == 0 {
		return nil
	}
	out := make([]HotUnknown, k)
	for i := range out {
		h := &top[i]
		out[i] = HotUnknown{Unknown: render(h), Updates: h.n, Flips: w.flips[h.x]}
	}
	return out
}
