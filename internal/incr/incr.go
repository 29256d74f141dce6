// Package incr is the incremental re-solve engine: it treats a solved
// constraint system as a live artifact that absorbs batches of edits —
// equation replacements (eqn.Redefine) and initial-value perturbations —
// and re-solves only what an edit can actually reach, seeded from the
// previous assignment instead of ⊥.
//
// The engine computes the downstream dirty cone of an edit batch over the
// system's memoized decomposition (solver.DecompositionOf(sys).Cone: the
// transitive readers of the edited unknowns, rounded up to whole strata of
// the SCC stratification, at a cost proportional to the cone) and re-runs
// the chosen solver on the cone in place. The SRR, SW and PSW engines keep
// their live assignment in a solver.Live store, by order position, which
// the initial Solve fills: a cone restarts its members from the original
// initial assignment, reads every unknown outside it from its stored
// final, and writes back only the members' new values. Restarting from σ₀
// re-arms warrowing — the ∇/Δ phase machinery of ⊟ — exactly inside the
// cone and nowhere else: an unknown re-entered at its previous (narrowed)
// final would otherwise have nothing left to widen from, and a
// non-monotonic edit could strand it above the scratch solution
// (DESIGN.md §12).
//
// Exactness contract: for the structured solvers SRR, SW and PSW the merged
// incremental result is bit-identical to re-running the same solver from
// scratch on the edited system (stratum-compositionality; certified over
// the whole solver×core×workers matrix by diffsolve.CheckIncremental). The
// generic solvers RR and W do not decompose over strata — their sweeps read
// cross-stratum intermediate values, and no cone granularity preserves
// bit-identity for them (§12 has a counterexample) — so for "rr" and "w"
// the engine re-solves the full system from scratch: still correct, never
// silently approximate, with the delta stats reporting zero reuse.
//
// Interrupted incremental solves resume: a cone runs the solver's own
// loop, so it captures checkpoints like any solve — of the subsystem the
// cone's unknowns induce, whose shape the checkpoint fingerprints. Pending
// edits stay queued until a Resolve completes, and the cone is recomputed
// deterministically from the system state plus the pending batch, so a
// checkpoint taken mid-cone fingerprint-matches the cone of a later call
// (or process — the wire format is unchanged).
package incr

import (
	"fmt"
	"maps"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// EditKind distinguishes the two edit flavours.
type EditKind int8

// Edit kinds.
const (
	// EditRedefine replaces (or newly defines) the equation of an unknown.
	EditRedefine EditKind = iota
	// EditPerturb overrides the initial value σ₀(x) of an unknown — the
	// "input changed" edit: for a defined unknown the re-solve restarts it
	// from the new value; for an undefined one (a parameter every reader
	// falls back to σ₀ for) the new value flows into the readers' cone.
	EditPerturb
)

// Edit is one element of an edit batch.
type Edit[X comparable, D any] struct {
	Kind    EditKind
	Unknown X
	// Deps, RHS, Raw describe the replacement equation (EditRedefine); Raw
	// is the optional fused unboxed twin and must compute the same value.
	Deps []X
	RHS  eqn.RHS[X, D]
	Raw  eqn.RawRHS[X]
	// Value is the σ₀ override (EditPerturb).
	Value D
}

// Redefine builds an equation-replacement edit.
func Redefine[X comparable, D any](x X, deps []X, rhs eqn.RHS[X, D]) Edit[X, D] {
	return Edit[X, D]{Kind: EditRedefine, Unknown: x, Deps: deps, RHS: rhs}
}

// RedefineRaw builds an equation-replacement edit with a fused unboxed twin.
func RedefineRaw[X comparable, D any](x X, deps []X, rhs eqn.RHS[X, D], raw eqn.RawRHS[X]) Edit[X, D] {
	return Edit[X, D]{Kind: EditRedefine, Unknown: x, Deps: deps, RHS: rhs, Raw: raw}
}

// Perturb builds an initial-value perturbation edit.
func Perturb[X comparable, D any](x X, v D) Edit[X, D] {
	return Edit[X, D]{Kind: EditPerturb, Unknown: x, Value: v}
}

// Result is the outcome of a Solve or Resolve: the full merged assignment
// plus the delta accounting of how much work the edit actually cost.
type Result[X comparable, D any] struct {
	// Values is the complete assignment for the whole system — reused finals
	// outside the cone, freshly solved values inside it. It is the engine's
	// live assignment, not a copy: the next successful Resolve merges its
	// cone into this same map in place. Treat it as read-only;
	// Engine.Values returns a snapshot that later re-solves leave alone.
	Values map[X]D
	// Stats records the re-solve's work only: evaluations of reused unknowns
	// never happen, so they are not counted anywhere.
	Stats solver.Stats
	// DirtyUnknowns is the number of unknowns re-solved (the rounded cone),
	// ReusedUnknowns the number whose previous finals were reused verbatim;
	// the two always sum to the system size.
	DirtyUnknowns  int
	ReusedUnknowns int
	// ConeStrata is the number of strata the cone covers (0 when an edit
	// batch turned out to reach nothing).
	ConeStrata int
}

// Engine drives incremental re-solves of one system with one solver. It is
// not safe for concurrent use; like the System it wraps, it expects edits
// and solves to be serialized.
type Engine[X comparable, D any] struct {
	l          lattice.Lattice[D]
	sys        *eqn.System[X, D]
	init       func(X) D
	solverName string

	overrides map[X]D    // accumulated σ₀ perturbations, part of the live init
	prev      map[X]D    // live assignment; nil until the first Solve completes
	version   uint64     // journal cursor: sys edits past this are pending
	perturbed map[X]bool // pending perturbation seeds
	// live holds the srr, sw and psw engines' assignment by order position,
	// equal to prev; nil for rr and w, which re-solve in full.
	live *solver.Live[X, D]
	// cone is the member buffer every Resolve's Decomposition.Cone reuses.
	cone []int
}

// Solvers the engine dispatches to.
var solverNames = map[string]bool{"rr": true, "w": true, "srr": true, "sw": true, "psw": true}

// New builds an engine over a system for one of the global solvers ("rr",
// "w", "srr", "sw", "psw"). The local solvers discover dependences on the
// fly and have no static cone to restrict; they are out of scope here.
func New[X comparable, D any](l lattice.Lattice[D], sys *eqn.System[X, D], init func(X) D, solverName string) (*Engine[X, D], error) {
	if !solverNames[solverName] {
		return nil, fmt.Errorf("incr: unknown solver %q (want rr, w, srr, sw or psw)", solverName)
	}
	e := &Engine[X, D]{l: l, sys: sys, init: init, solverName: solverName}
	if solverName != "rr" && solverName != "w" {
		live, err := solver.NewLive(sys, l, solver.WarrowOp[X](l), e.Init(), solverName)
		if err != nil {
			return nil, err
		}
		e.live = live
	}
	return e, nil
}

// SolverName reports the solver the engine dispatches to.
func (e *Engine[X, D]) SolverName() string { return e.solverName }

// Init returns the engine's live initial assignment: the constructor's init
// overlaid with every perturbation applied so far. A from-scratch control
// solve must use this function to be comparable with the engine's results.
func (e *Engine[X, D]) Init() func(X) D {
	return func(x X) D {
		if len(e.overrides) > 0 {
			if v, ok := e.overrides[x]; ok {
				return v
			}
		}
		return e.init(x)
	}
}

// full solves the whole system from σ₀ (or cfg.Resume) and, on success,
// merges the solution into the live assignment in place. The structured
// operator form is used so the unboxed core engages whenever the domain
// supports it.
func (e *Engine[X, D]) full(cfg solver.Config) (solver.Stats, error) {
	if e.live != nil {
		vals := e.prev
		if vals == nil {
			vals = make(map[X]D, e.sys.Len())
		}
		st, err := e.live.Solve(cfg, vals)
		if err == nil {
			e.prev = vals
		}
		return st, err
	}
	op := solver.WarrowOp[X](e.l)
	solve := solver.RR[X, D]
	if e.solverName == "w" {
		solve = solver.W[X, D]
	}
	sigma, st, err := solve(e.sys, e.l, op, e.Init(), cfg)
	if err != nil {
		return st, err
	}
	if e.prev == nil {
		e.prev = sigma
	} else {
		maps.Copy(e.prev, sigma)
	}
	return st, nil
}

// Solve runs the initial from-scratch solve and arms the engine: subsequent
// edits are re-solved incrementally by Resolve. cfg passes through to the
// solver unchanged (budget, deadline, checkpointing, core, resume). On an
// abort the engine state does not advance; re-running Solve — optionally
// resuming the abort's checkpoint via cfg.Resume — continues the work.
func (e *Engine[X, D]) Solve(cfg solver.Config) (*Result[X, D], error) {
	st, err := e.full(cfg)
	if err != nil {
		return nil, err
	}
	e.consume()
	return &Result[X, D]{
		Values:        e.prev,
		Stats:         st,
		DirtyUnknowns: e.sys.Len(),
		ConeStrata:    solver.DecompositionOf(e.sys).NumStrata(),
	}, nil
}

// consume marks the pending batch absorbed once a solve has merged it.
func (e *Engine[X, D]) consume() {
	e.version = e.sys.Version()
	e.perturbed = nil
}

// Apply stages a batch of edits. Redefinitions are applied to the system
// immediately (and journaled by eqn, so edits made directly on the system
// through Redefine/Define are picked up just the same); perturbations
// update the live initial assignment. Nothing is re-solved until Resolve.
func (e *Engine[X, D]) Apply(edits ...Edit[X, D]) {
	for _, ed := range edits {
		switch ed.Kind {
		case EditPerturb:
			if e.overrides == nil {
				e.overrides = make(map[X]D)
			}
			e.overrides[ed.Unknown] = ed.Value
			if e.perturbed == nil {
				e.perturbed = make(map[X]bool)
			}
			e.perturbed[ed.Unknown] = true
		default: // EditRedefine
			if e.sys.RHS(ed.Unknown) == nil {
				e.sys.Define(ed.Unknown, ed.Deps, ed.RHS)
				if ed.Raw != nil {
					e.sys.AttachRaw(ed.Unknown, ed.Raw)
				}
			} else {
				e.sys.RedefineRaw(ed.Unknown, ed.Deps, ed.RHS, ed.Raw)
			}
		}
	}
}

// pending collects the dirty seeds of the staged batch in index space: the
// journal suffix the engine has not absorbed plus the perturbed unknowns,
// possibly with repeats, which Cone skips. Perturbing an undefined unknown
// (a parameter) seeds its readers instead — the parameter itself has no
// equation to re-solve, but everything that falls back to σ₀ for it sees
// the new value. The readers come from the memoized influence sets, so the
// cost is proportional to the batch.
func (e *Engine[X, D]) pending() []int {
	idx := e.sys.Index()
	var seeds []int
	addUnknown := func(x X) {
		if i, ok := idx[x]; ok {
			seeds = append(seeds, i)
			return
		}
		for _, y := range e.sys.Infl()[x] {
			seeds = append(seeds, idx[y])
		}
	}
	for _, x := range e.sys.EditsSince(e.version) {
		addUnknown(x)
	}
	for x := range e.perturbed {
		addUnknown(x)
	}
	return seeds
}

// Resolve re-solves the staged edit batch and returns the merged delta
// result. It requires a completed Solve. On success the engine advances (the
// cone's values are merged into the live assignment, which the result
// returns, and the batch is consumed); on an abort nothing is merged, the
// batch stays pending, and a later Resolve — with a larger budget, or
// resuming the abort's checkpoint via cfg.Resume — continues.
// The cone a checkpoint was taken on is recomputed deterministically from
// the system and the pending batch, so the fingerprint matches.
func (e *Engine[X, D]) Resolve(cfg solver.Config) (*Result[X, D], error) {
	if e.prev == nil {
		return nil, fmt.Errorf("incr: Resolve before a completed Solve")
	}
	n := e.sys.Len()
	seeds := e.pending()
	if len(seeds) == 0 {
		// Perturbations that reach no reader are consumed here, so later
		// calls do not look them up again.
		e.perturbed = nil
		return &Result[X, D]{Values: e.prev, ReusedUnknowns: n}, nil
	}

	if e.live == nil {
		// The generic solvers read cross-stratum intermediates: no cone
		// restriction preserves bit-identity (DESIGN.md §12), so the honest
		// incremental policy is a full re-solve of the edited system.
		st, err := e.full(cfg)
		if err != nil {
			return nil, err
		}
		e.consume()
		return &Result[X, D]{
			Values:        e.prev,
			Stats:         st,
			DirtyUnknowns: n,
			ConeStrata:    solver.DecompositionOf(e.sys).NumStrata(),
		}, nil
	}

	members, coneStrata := solver.DecompositionOf(e.sys).Cone(e.cone, seeds)
	e.cone = members
	st, err := e.live.SolveCone(members, cfg, e.prev)
	if err != nil {
		return nil, err
	}
	e.consume()
	return &Result[X, D]{
		Values:         e.prev,
		Stats:          st,
		DirtyUnknowns:  len(members),
		ReusedUnknowns: n - len(members),
		ConeStrata:     coneStrata,
	}, nil
}

// Values returns a snapshot of the engine's live assignment (the finals of
// the last completed solve), or nil before the first Solve. Unlike
// Result.Values, the snapshot is the caller's own: later re-solves do not
// change it.
func (e *Engine[X, D]) Values() map[X]D { return maps.Clone(e.prev) }
