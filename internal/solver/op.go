// Package solver implements the fixpoint solvers of Apinis, Seidl and
// Vojdani, "How to Combine Widening and Narrowing for Non-monotonic Systems
// of Equations" (PLDI 2013):
//
//   - the generic global solvers RR (round-robin, Fig. 1) and W (worklist,
//     Fig. 2), which may fail to terminate with the combined operator ⊟ even
//     on finite monotonic systems (Examples 1 and 2);
//   - the structured variants SRR (Fig. 3) and SW (Fig. 4), which are
//     guaranteed to terminate for monotonic systems;
//   - the local solvers RLD (Fig. 5, from Hofmann, Karbyshev and Seidl,
//     included for reference — it is not generic) and SLR (Fig. 6);
//   - the side-effecting local solver SLR⁺ (Sec. 6);
//   - the classical two-phase widening/narrowing iteration used as the
//     paper's baseline.
//
// All solvers are generic: they perform update steps
// σ[x] ← σ[x] ⊞ fₓ(σ) for an arbitrary binary operator ⊞ supplied as an
// Operator. Instantiating ⊞ with the combined operator ⊟ (Warrow) turns any
// of them into a solver computing post-solutions of arbitrary — monotonic or
// not — systems whenever they terminate (Lemma 1).
package solver

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"warrow/internal/lattice"
)

// Combine is a binary update operator ⊞ used in update steps
// σ[x] ← σ[x] ⊞ fₓ(σ).
type Combine[D any] func(old, new D) D

// Operator supplies the update operator, possibly specialized per unknown.
// Stateless operators wrap a Combine via Op; stateful ones (Degrading)
// track per-unknown iteration history.
type Operator[X comparable, D any] interface {
	// Apply combines the old value of x with the new right-hand-side value.
	Apply(x X, old, new D) D
}

type opFunc[X comparable, D any] struct{ f Combine[D] }

func (o opFunc[X, D]) Apply(_ X, old, new D) D { return o.f(old, new) }

// Op wraps a stateless Combine as an Operator.
func Op[X comparable, D any](f Combine[D]) Operator[X, D] {
	return opFunc[X, D]{f}
}

// Replace is the operator a ⊞ b = b: a ⊞-solution is an ordinary solution.
func Replace[D any]() Combine[D] {
	return func(_, new D) D { return new }
}

// Join is the operator a ⊞ b = a ⊔ b: a ⊞-solution is a post-solution.
func Join[D any](l lattice.Lattice[D]) Combine[D] { return l.Join }

// Meet is the operator a ⊞ b = a ⊓ b: a ⊞-solution is a pre-solution.
func Meet[D any](l lattice.Lattice[D]) Combine[D] { return l.Meet }

// Widen is the operator a ⊞ b = a ∇ b, the pure widening iteration.
func Widen[D any](l lattice.Lattice[D]) Combine[D] { return l.Widen }

// Narrow is the operator a ⊞ b = a Δ b, the pure narrowing iteration. It is
// meaningful only on post-solutions of monotonic systems.
func Narrow[D any](l lattice.Lattice[D]) Combine[D] { return l.Narrow }

// Warrow is the paper's combined operator:
//
//	a ⊟ b = a Δ b   if b ⊑ a
//	        a ∇ b   otherwise.
//
// A solver with ⊟ widens as long as values grow and switches to narrowing
// the moment the right-hand side no longer exceeds the current value, so
// precision is recovered immediately instead of in a separate phase. Every
// ⊟-solution is a post-solution (Lemma 1) with no monotonicity assumption.
func Warrow[D any](l lattice.Lattice[D]) Combine[D] {
	return func(old, new D) D {
		if l.Leq(new, old) {
			return l.Narrow(old, new)
		}
		return l.Widen(old, new)
	}
}

// rawOperator is implemented by structured operators that can apply
// themselves directly on raw-encoded values (lattice.Raw word slices).
// The word store requires it: an opaque Combine closure cannot be
// translated to the raw layer, so solvers given one store boxed values.
type rawOperator[D any] interface {
	rawApply(r lattice.Raw[D], dst, old, new []uint64)
}

// stdOpKind enumerates the structured update operators.
type stdOpKind int8

const (
	opReplace stdOpKind = iota
	opJoin
	opMeet
	opWiden
	opNarrow
	opWarrow
)

// stdOp is the structured form of the stateless update operators: the same
// six combinators Op(Replace(..)) … Op(Warrow(..)) produce, but with the
// kind reified so the word store can apply them on raw-encoded values.
// The boxed Apply is bit-identical to the closure-based forms.
type stdOp[X comparable, D any] struct {
	kind stdOpKind
	l    lattice.Lattice[D]
}

// Apply implements Operator.
func (o stdOp[X, D]) Apply(_ X, old, new D) D {
	switch o.kind {
	case opReplace:
		return new
	case opJoin:
		return o.l.Join(old, new)
	case opMeet:
		return o.l.Meet(old, new)
	case opWiden:
		return o.l.Widen(old, new)
	case opNarrow:
		return o.l.Narrow(old, new)
	default: // opWarrow
		if o.l.Leq(new, old) {
			return o.l.Narrow(old, new)
		}
		return o.l.Widen(old, new)
	}
}

// rawApply implements rawOperator, mirroring Apply on encoded values.
func (o stdOp[X, D]) rawApply(r lattice.Raw[D], dst, old, new []uint64) {
	switch o.kind {
	case opReplace:
		copy(dst, new)
	case opJoin:
		r.RawJoin(dst, old, new)
	case opMeet:
		r.RawMeet(dst, old, new)
	case opWiden:
		r.RawWiden(dst, old, new)
	case opNarrow:
		r.RawNarrow(dst, old, new)
	default: // opWarrow
		if r.RawLeq(new, old) {
			r.RawNarrow(dst, old, new)
		} else {
			r.RawWiden(dst, old, new)
		}
	}
}

// ReplaceOp is the structured form of Op(Replace[D]()).
func ReplaceOp[X comparable, D any](l lattice.Lattice[D]) Operator[X, D] {
	return stdOp[X, D]{kind: opReplace, l: l}
}

// JoinOp is the structured form of Op(Join(l)).
func JoinOp[X comparable, D any](l lattice.Lattice[D]) Operator[X, D] {
	return stdOp[X, D]{kind: opJoin, l: l}
}

// MeetOp is the structured form of Op(Meet(l)).
func MeetOp[X comparable, D any](l lattice.Lattice[D]) Operator[X, D] {
	return stdOp[X, D]{kind: opMeet, l: l}
}

// WidenOp is the structured form of Op(Widen(l)).
func WidenOp[X comparable, D any](l lattice.Lattice[D]) Operator[X, D] {
	return stdOp[X, D]{kind: opWiden, l: l}
}

// NarrowOp is the structured form of Op(Narrow(l)).
func NarrowOp[X comparable, D any](l lattice.Lattice[D]) Operator[X, D] {
	return stdOp[X, D]{kind: opNarrow, l: l}
}

// WarrowOp is the structured form of Op(Warrow(l)): the paper's ⊟ with the
// branch reified, which is what lets the word store run ⊟ solves with no
// boxed values on the hot path. Prefer it over Op(Warrow(l)) wherever the
// lattice might have a raw encoding.
func WarrowOp[X comparable, D any](l lattice.Lattice[D]) Operator[X, D] {
	return stdOp[X, D]{kind: opWarrow, l: l}
}

// Degrading is the ⊟ₖ operator sketched at the end of Sec. 4: each unknown
// carries a counter of how often iteration has switched from the narrowing
// phase back to widening. Once the counter reaches the threshold K the
// operator gives up improving (a ⊞ b = a whenever b ⊑ a), which enforces
// termination of any ⊟-solver even on non-monotonic systems.
type Degrading[X comparable, D any] struct {
	L lattice.Lattice[D]
	// K is the number of narrow→widen phase switches after which narrowing
	// is abandoned for an unknown. K = 0 disables narrowing entirely.
	K int

	phase    map[X]int8 // 0 unseen / 1 widening / 2 narrowing
	switches map[X]int
}

// NewDegrading returns a fresh ⊟ₖ operator with threshold k.
func NewDegrading[X comparable, D any](l lattice.Lattice[D], k int) *Degrading[X, D] {
	return &Degrading[X, D]{
		L:        l,
		K:        k,
		phase:    make(map[X]int8),
		switches: make(map[X]int),
	}
}

// Apply implements Operator.
func (d *Degrading[X, D]) Apply(x X, old, new D) D {
	if d.L.Eq(new, old) {
		return old // stable: no phase transition
	}
	if d.L.Leq(new, old) {
		if d.switches[x] >= d.K {
			return old // degraded: no more improvement for x
		}
		d.phase[x] = 2
		return d.L.Narrow(old, new)
	}
	// Growth from ⊥ is initialization (an unknown becoming live during
	// exploration), not evidence of non-monotonicity: do not count it.
	if d.phase[x] == 2 && !d.L.Eq(old, d.L.Bottom()) {
		d.switches[x]++
	}
	d.phase[x] = 1
	return d.L.Widen(old, new)
}

// Switches reports how often iteration on x switched from narrowing back to
// widening, exposing the non-monotonicity the operator observed.
func (d *Degrading[X, D]) Switches(x X) int { return d.switches[x] }

// Phase classifies one update step of a ⊟-style operator, mirroring the
// branch ⊟ takes on its arguments: the step narrows when the freshly
// evaluated right-hand side is below the current value, widens when it is
// not, and is stable when the two are equal.
type Phase int8

// Phases.
const (
	PhaseStable Phase = iota
	PhaseWiden
	PhaseNarrow
	// PhaseRestart marks a restart transition of the restarting solvers
	// (SLR3/SLR4): a widening point shrank and the solver reset the unknowns
	// below it to their initial values. PhaseOf never classifies a value pair
	// as PhaseRestart — the restarting solvers emit it explicitly through the
	// Observe hook, and the divergence watchdog treats it as phase-history
	// erasure: the reset unknown's re-ascension (∇→⊟→∇ around the restart) is
	// deliberate iteration, not the oscillation signature of Examples 1 and 2.
	PhaseRestart
)

// String renders the phase.
func (p Phase) String() string {
	switch p {
	case PhaseStable:
		return "stable"
	case PhaseWiden:
		return "widen"
	case PhaseNarrow:
		return "narrow"
	case PhaseRestart:
		return "restart"
	default:
		return "?"
	}
}

// PhaseOf classifies the update step from old to the right-hand-side value
// new: PhaseNarrow when new ⊑ old (the branch where ⊟ applies Δ),
// PhaseWiden otherwise (the branch where ⊟ applies ∇), PhaseStable when the
// values are equal.
func PhaseOf[D any](l lattice.Lattice[D], old, new D) Phase {
	if l.Eq(new, old) {
		return PhaseStable
	}
	if l.Leq(new, old) {
		return PhaseNarrow
	}
	return PhaseWiden
}

// Observe wraps op so that every Apply first reports (x, PhaseOf(old, new))
// to fn. This is the ⊟ hook the divergence watchdog attaches to: it sees
// every update step's phase without the solvers' update logic changing, so
// ∇/Δ oscillation (the divergence signature of Examples 1 and 2) can be
// detected for any operator, stateful ones included.
func Observe[X comparable, D any](l lattice.Lattice[D], op Operator[X, D], fn func(X, Phase)) Operator[X, D] {
	return observedOp[X, D]{l: l, inner: op, fn: fn}
}

type observedOp[X comparable, D any] struct {
	l     lattice.Lattice[D]
	inner Operator[X, D]
	fn    func(X, Phase)
}

// Apply implements Operator.
func (o observedOp[X, D]) Apply(x X, old, new D) D {
	o.fn(x, PhaseOf(o.l, old, new))
	return o.inner.Apply(x, old, new)
}

// HistBuckets is the number of power-of-two buckets of a Hist.
const HistBuckets = 24

// Hist is a power-of-two histogram: bucket k counts values v with
// 2^k ≤ v < 2^(k+1) (bucket 0 additionally counts v ≤ 1).
type Hist [HistBuckets]int

// Observe adds one value to the histogram.
func (h *Hist) Observe(v int) {
	b := 0
	for v > 1 && b < HistBuckets-1 {
		v >>= 1
		b++
	}
	h[b]++
}

// Stats records the work a solver performed. The JSON field names are part
// of the serving-tier wire format (eqsolved responses, structured logs, the
// metrics endpoint) and are pinned by a golden test: renaming one is a
// protocol change, not a refactor.
type Stats struct {
	// Evals counts evaluations of right-hand sides. Failed attempts are not
	// counted: a panicked or retried evaluation rolls its reservation back,
	// so Evals always counts performed evaluations only.
	Evals int `json:"evals"`
	// Retries counts failed evaluation attempts that were retried under
	// Config.Retry (a solve with Retries > 0 healed that many transient
	// faults on its way to the result).
	Retries int `json:"retries"`
	// Updates counts update steps that changed a value.
	Updates int `json:"updates"`
	// Restarts counts unknowns reset to their initial value by the
	// restarting narrowing of SLR3/SLR4 (zero for every other solver). A
	// resumed run counts only its own resets: restarts are not part of the
	// checkpoint wire format.
	Restarts int `json:"restarts"`
	// Rounds counts outer iterations (RR) or is zero for other solvers.
	Rounds int `json:"rounds"`
	// Unknowns counts distinct unknowns touched (local solvers: |dom|).
	Unknowns int `json:"unknowns"`
	// MaxQueue is the high-water mark of the scheduling queue for worklist
	// solvers (W, SW, SLR, SLR⁺; for PSW, the largest per-stratum queue).
	// For CPW the queue is sharded, and the reported value is the maximum
	// over per-shard high-water marks, never their sum: the shards of one
	// stratum hold disjoint slices of the same logical worklist, so summing
	// them would re-count the whole stratum and make the number incomparable
	// with the sequential solvers' (see shardQueue).
	MaxQueue int `json:"max_queue"`
	// WallNs is the wall-clock duration of the solve in nanoseconds
	// (recorded by PSW and CPW; zero for the sequential solvers).
	WallNs int64 `json:"wall_ns"`
	// Workers is the size of the worker pool (PSW and CPW; zero for
	// sequential solvers).
	Workers int `json:"workers"`
	// SCCs is the number of strongly connected components of the static
	// dependence graph, and Strata the number of scheduling units PSW
	// derived from them (Strata ≤ SCCs; equal when the linear order is
	// topologically consistent with the condensation).
	SCCs   int `json:"sccs"`
	Strata int `json:"strata"`
	// SCCSize and SCCDepth are power-of-two histograms of component sizes
	// and of component depths in the condensation DAG (PSW/CPW only).
	SCCSize  Hist `json:"scc_size"`
	SCCDepth Hist `json:"scc_depth"`
	// WorkerEvals is a power-of-two histogram of per-worker evaluation
	// counts (CPW only). Chaotic intra-stratum scheduling makes the split of
	// work across workers schedule-dependent, so it is reported as a
	// distribution and never compared bit-for-bit (DESIGN.md §15).
	WorkerEvals Hist `json:"worker_evals"`
	// Contention counts dirty-while-running collisions (CPW only): an
	// unknown was marked dirty while a worker was evaluating it, forcing an
	// immediate re-queue of that unknown after the evaluation completed.
	Contention int `json:"contention"`
}

// ErrEvalBudget is the sentinel for budget exhaustion — the mechanism the
// tests use to detect the divergence of RR and W with ⊟ on the paper's
// Examples 1 and 2. Solvers no longer return it bare: a budget abort is an
// *AbortError with Reason AbortBudget, which errors.Is-matches this
// sentinel, so existing errors.Is(err, ErrEvalBudget) checks keep working
// while the error now carries the full divergence diagnosis.
var ErrEvalBudget = errors.New("solver: evaluation budget exceeded")

// Core selects the value store of the compiled global solvers (RR, W, SRR,
// SW, PSW, CPW and SLR2–4). Every global solver runs one loop over the
// compiled representation of compile.go; the store holds the assignment
// either as boxed D values or as raw machine words (valuerep.go), with
// bit-identical results, Stats, abort reports and checkpoints. The local
// solvers (RLD, SLR, SLR⁺) discover their unknowns on the fly and ignore
// it.
type Core int8

// Cores.
const (
	// CoreAuto stores raw words when the lattice has a raw encoding
	// (lattice.AsRaw), the operator is structured (WarrowOp and friends) and
	// the initial assignment encodes; otherwise it stores boxed values.
	CoreAuto Core = iota
	// CoreDense forces boxed values.
	CoreDense
)

// String renders the core name.
func (c Core) String() string {
	switch c {
	case CoreAuto:
		return "auto"
	case CoreDense:
		return "dense"
	default:
		return "?"
	}
}

// Config tunes a solver run. The zero value imposes no bound of any kind;
// setting any of MaxEvals, Ctx, Timeout or MaxFlips arms the divergence
// watchdog, and an armed run that trips a bound aborts with an *AbortError
// carrying a structured AbortReport instead of completing.
type Config struct {
	// MaxEvals bounds the number of right-hand-side evaluations; 0 means
	// effectively unbounded.
	MaxEvals int
	// Workers bounds the worker pool of PSW and CPW; 0 means
	// runtime.GOMAXPROCS(0). Sequential solvers ignore it.
	Workers int
	// Ctx, when non-nil, is polled at every scheduling point: once it is
	// cancelled the solver stops at its next evaluation and returns the
	// partial assignment with reason AbortCancel (or AbortDeadline if the
	// context expired through its own deadline).
	Ctx context.Context
	// Timeout, when positive, bounds the wall-clock duration of the solve;
	// exceeding it aborts with reason AbortDeadline. Two-phase baselines
	// share one deadline across both phases.
	Timeout time.Duration
	// MaxFlips, when positive, bounds how many narrow→widen phase
	// alternations the watchdog tolerates on any single unknown before
	// aborting with reason AbortOscillation — the cheap early diagnosis of
	// the ⊟ divergence pattern of Examples 1 and 2, which burns through an
	// evaluation budget orders of magnitude more slowly.
	MaxFlips int
	// Retry tunes per-unknown retries of failed right-hand-side
	// evaluations; the zero value aborts on the first failure. Panic
	// isolation itself is unconditional: a panicking right-hand side always
	// becomes a structured AbortEvalFailure, never a process crash.
	Retry RetryPolicy
	// CheckpointEvery, when positive, emits a snapshot through
	// CheckpointSink every that-many evaluations (in addition to the
	// snapshot every abort carries in its report). PSW and CPW snapshot
	// only on abort: a consistent cut of a running worker pool would require
	// a global pause.
	CheckpointEvery int
	// CheckpointSink receives periodic snapshots as *Checkpoint[X, D]
	// values (typed any because Config is element-type-agnostic).
	CheckpointSink func(cp any)
	// Core selects the value store of the global solvers; the zero value
	// (CoreAuto) stores raw words where the domain and operator allow it,
	// and CoreDense forces boxed values. Results are bit-identical either
	// way, and checkpoints captured on one store resume on the other.
	Core Core
	// Resume, when non-nil, must hold a *Checkpoint[X, D] captured by the
	// same solver on a system with the same shape; the solver continues the
	// interrupted iteration (exactly for the solvers ExactResume names; as
	// a warm restart for SLR2–4, RLD, SLR and SLR⁺) instead of starting
	// fresh. A mismatched checkpoint fails the solve with ErrBadCheckpoint.
	Resume any

	// deadline pins the absolute wall-clock bound once the first phase of a
	// chained run has started, so later phases do not restart the clock.
	deadline time.Time
}

func (c Config) budget() int {
	if c.MaxEvals <= 0 {
		return math.MaxInt
	}
	return c.MaxEvals
}

// started resolves Timeout into an absolute deadline exactly once.
func (c Config) started(now time.Time) Config {
	if c.Timeout > 0 && c.deadline.IsZero() {
		c.deadline = now.Add(c.Timeout)
	}
	return c
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}
