// The improved solver family SLR2/SLR3/SLR4 of Amato, Scozzari, Seidl,
// Apinis and Vojdani, "Efficiently intertwining widening and narrowing"
// (arXiv:1503.00883), as global solvers over a finite system:
//
//   - SLR2 applies the supplied update operator ⊞ (usually ⊟) only at
//     widening points and plain replacement σ[x] ← fₓ(σ) everywhere else.
//     Widening points are the headers of the recursive SCC refinement of
//     the static dependence graph (Bourdoncle's hierarchical decomposition):
//     condense the graph, pick the first-defined member of every nontrivial
//     component as its header, remove the header and recurse on the rest.
//     Every dependence cycle lies inside some component and survives the
//     refinement until one of its members is picked as a header, so the set
//     is admissible; loop analyses get exactly their loop heads marked, and
//     every other unknown stabilizes by plain (cheap, ∇-free) replacement.
//   - SLR3 additionally restarts the descending iteration below a widening
//     point whose value shrinks: every unknown transitively influenced by x
//     that is ordered after it is reset to its initial value and
//     rescheduled, so the subtree re-ascends from scratch under x's tighter
//     value instead of narrowing down from stale widened values.
//   - SLR4 localizes the restart to the widening point's own component:
//     unknowns outside it are rescheduled but not reset — ordinary
//     iteration already propagates the tighter value downstream, so
//     resetting them would only discard converged work.
//
// All three iterate with the recursive strategy the decomposition induces —
// stabilize a component completely before its surrounding component
// re-evaluates — through one shared loop (slrxLoop) over the value-store
// seam of the other global solvers (execCore, boxed values or raw words);
// there is no second implementation of the iteration logic. Results
// certify as post-solutions via internal/certify whenever the run
// terminates (the stabilized updates satisfy σ(x) ⊒ fₓ(σ) at every
// unknown, by the same Lemma 1 argument as for ⊟ everywhere), but they are
// NOT bit-pinned to SW: applying ⊞ at fewer points changes the iterate
// sequence, generally to a pointwise smaller (more precise) result.
//
// Two iteration decisions are load-bearing for termination, standing in for
// the recursive evaluation discipline of the paper's local solvers (which
// re-solve an unknown's inputs before reading them, so a widening point
// never narrows against values it has itself outdated):
//
//   - Component-at-a-time stabilization: while a component iterates, every
//     unknown outside it is frozen, and nested components stabilize before
//     the enclosing pass continues. A header therefore always narrows
//     against fully restabilized inner values, and two sibling cycles can
//     never interleave their updates through a shared plain reader — the
//     interference that makes flat worklist orders creep forever on
//     plain-update cycles (∇ to ∞, Δ back to a slightly larger finite
//     bound, da capo) is structurally impossible.
//   - One cascade per widening point (SLR3/SLR4): a reset subtree re-ascends
//     through ∇ at its own widening points, which can overshoot the trigger
//     and re-widen it; its subsequent re-narrowing to the very same value
//     would re-trigger the cascade forever. Later shrinks at a spent trigger
//     still propagate by ordinary narrowing — the cascade is a precision
//     device, not a soundness one — and the cascade count is bounded by the
//     widening-point count.
//
// On non-monotonic systems the family, like every ⊟ solver here, is bounded
// by the watchdog (budget/deadline/flips) rather than by a termination
// proof.
package solver

import (
	"slices"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// wpointKey is the ShapeMemo slot the widening-point analysis lives under.
const wpointKey = "solver.wpoints"

// compSpan is one component of the hierarchical decomposition as a
// half-open interval of the linear order seq: the header sits at start, the
// body (including nested components) fills (start, end).
type compSpan struct{ start, end int32 }

// wpointInfo is the memoized widening-point analysis of a system shape: the
// recursive SCC refinement of the dependence graph, flattened into a linear
// order with nested component spans, and the header set derived from it.
// It depends only on the dependence structure, never on right-hand sides,
// so PatchRHS is a no-op and the analysis survives same-dependences
// redefines (the incremental engine's common case).
//
// The order seq lists dependencies before readers wherever the graph allows
// it: sibling components are emitted in topological order of the (sub-)
// condensation, and within a component the header comes first, followed by
// the refinement of the body. Iterating seq left to right and re-passing a
// component until it stabilizes is the recursive strategy of Bourdoncle,
// which the shared loop implements with an explicit frame stack.
type wpointInfo[X comparable, D any] struct {
	// wp marks the component headers — the widening points.
	wp bitset
	// ncomp is the number of top-level SCCs (reported as Stats.SCCs).
	ncomp int
	// seq is the flattened hierarchical order; pos is its inverse
	// (pos[seq[p]] == p). The restart cascade resets only unknowns ordered
	// after the trigger, the static analogue of the local solvers' "reset
	// what was discovered after x".
	seq []int32
	pos []int32
	// comps are the nontrivial components; startComp[p] is the index of the
	// component whose span starts at position p, or -1. A component's
	// header is seq[comps[ci].start].
	comps     []compSpan
	startComp []int32
}

// PatchRHS implements eqn.RHSPatcher; see wpointInfo.
func (w *wpointInfo[X, D]) PatchRHS(int, eqn.RHS[X, D], eqn.RawRHS[X]) {}

// wpointsOf computes (memoized) the hierarchical decomposition; see
// wpointInfo for the order and the header rule.
func wpointsOf[X comparable, D any](sys *eqn.System[X, D]) *wpointInfo[X, D] {
	return sys.ShapeMemo(wpointKey, func() any {
		adj := sys.DepGraph()
		n := len(adj)
		w := &wpointInfo[X, D]{
			wp:        newBitset(n),
			seq:       make([]int32, 0, n),
			pos:       make([]int32, n),
			startComp: make([]int32, n),
		}
		for p := range w.startComp {
			w.startComp[p] = -1
		}

		// sccs returns the components of the subgraph induced by nodes in
		// the traversal's emission order — every component before its
		// readers — each sorted by definition index (deterministic headers
		// and root order). The groups share one buffer of len(nodes), so
		// they stay valid across later calls.
		t := newTarjan(adj)
		sccs := func(nodes []int32) [][]int32 {
			flat := make([]int32, 0, len(nodes))
			var groups [][]int32
			t.sccs(nodes, func(comp []int32) {
				start := len(flat)
				flat = append(flat, comp...)
				g := flat[start:len(flat):len(flat)]
				slices.Sort(g)
				groups = append(groups, g)
			})
			return groups
		}

		selfLoop := func(v int32) bool {
			for _, u := range adj[v] {
				if int32(u) == v {
					return true
				}
			}
			return false
		}

		// The refinement driver: an explicit item stack in place of
		// recursion (component nesting can in principle track system size —
		// a complete graph refines one header per level).
		const (
			emitNode = iota
			openComp
			closeComp
		)
		type item struct {
			kind    int8
			node    int32 // emitNode: the node; openComp: the header; closeComp: comps index
			members []int32
		}
		var stack []item
		pushGroups := func(groups [][]int32) {
			for gi := len(groups) - 1; gi >= 0; gi-- {
				g := groups[gi]
				if len(g) == 1 && !selfLoop(g[0]) {
					stack = append(stack, item{kind: emitNode, node: g[0]})
					continue
				}
				stack = append(stack, item{kind: openComp, node: g[0], members: g[1:]})
			}
		}
		top := sccs(allNodes(n))
		w.ncomp = len(top)
		pushGroups(top)
		for len(stack) > 0 {
			it := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch it.kind {
			case emitNode:
				w.pos[it.node] = int32(len(w.seq))
				w.seq = append(w.seq, it.node)
			case openComp:
				ci := int32(len(w.comps))
				w.comps = append(w.comps, compSpan{start: int32(len(w.seq))})
				w.startComp[len(w.seq)] = ci
				w.wp.set(int(it.node))
				w.pos[it.node] = int32(len(w.seq))
				w.seq = append(w.seq, it.node)
				stack = append(stack, item{kind: closeComp, node: ci})
				pushGroups(sccs(it.members))
			case closeComp:
				w.comps[it.node].end = int32(len(w.seq))
			}
		}
		return w
	}).(*wpointInfo[X, D])
}

// restartMode selects the restarting-narrowing behavior of slrxRun.
type restartMode int8

const (
	// restartNone: SLR2 — no restarts.
	restartNone restartMode = iota
	// restartAll: SLR3 — a shrinking widening point resets every
	// transitively influenced unknown ordered after it.
	restartAll
	// restartSCC: SLR4 — like restartAll, but only within the widening
	// point's own component; unknowns outside it are rescheduled, not
	// reset.
	restartSCC
)

// SLR2 solves the system with ⊞ applied only at widening points and plain
// replacement everywhere else (Amato et al., SLR2). Same signature and
// bounds behavior as SW; checkpoints carry the assignment and the pending
// (dirty) unknowns under the solver name "slr2". The result is a certified
// post-solution whenever the run terminates, generally pointwise below
// SW's.
func SLR2[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("slr2", sys, l, op, init, cfg)
}

// SLR3 is SLR2 plus restarting narrowing: when a widening point's value
// shrinks, every unknown transitively influenced by it that is ordered
// after it is reset to its initial value and rescheduled (Amato et al.,
// SLR3). Stats.Restarts counts the resets.
func SLR3[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("slr3", sys, l, op, init, cfg)
}

// SLR4 is SLR3 with the restart localized to the widening point's own
// component: unknowns outside it are rescheduled but keep their values
// (Amato et al., SLR4-style localization).
func SLR4[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("slr4", sys, l, op, init, cfg)
}

// slrFrame is one active component of the recursive iteration strategy:
// scan position within the component's span and the update count at the
// start of the current pass (a pass that produced updates re-runs). ci is
// the comps index, or -1 for the virtual top-level span covering seq.
type slrFrame struct {
	ci   int32
	pos  int32
	base int
}

// slrxLoop is the one shared iteration of the family over a built core:
// the recursive strategy over the hierarchical decomposition (an explicit
// frame stack — component nesting can track system size, so no
// recursion), evaluating only dirty unknowns (those whose inputs changed
// since their last evaluation), with the update operator gated on the
// widening-point set and (SLR3/SLR4) the iterative, once-per-point restart
// cascade. name is the member's checkpoint name and mode its restart.
func slrxLoop[X comparable, D any](core execCore[X, D], wd *watchdog[X], cfg Config, name string, mode restartMode) (Stats, error) {
	sc := core.scope()
	n := sc.n
	w := wpointsOf(sc.sys)
	ck := newCkptSink(cfg)
	var st Stats
	st.Unknowns = n
	st.SCCs = w.ncomp
	if n == 0 {
		return st, nil
	}

	dirty := newBitset(n)
	dc := 0
	mark := func(i int) {
		if !dirty.has(i) {
			dirty.set(i)
			dc++
		}
	}
	if cp, err := resumeCheckpoint(cfg, name, sc); err != nil {
		return st, err
	} else if cp != nil {
		if err := core.restore(cp); err != nil {
			return st, err
		}
		cp.restoreStats(&st)
		queued, qerr := sc.queueIndices(cp.Queue)
		if qerr != nil {
			return st, qerr
		}
		for _, i := range queued {
			mark(i)
		}
	} else {
		for i := 0; i < n; i++ {
			mark(i)
		}
		st.MaxQueue = dc
	}
	capture := func() *Checkpoint[X, D] {
		cp := core.snapshot(name, st)
		// The queue is the dirty set in hierarchical order; a resumed run
		// restarts the sweep from the top with exactly these unknowns
		// pending (everything else is stable by the dirtiness invariant).
		idxs := make([]int, 0, dc)
		for _, ip := range w.seq {
			if dirty.has(int(ip)) {
				idxs = append(idxs, int(ip))
			}
		}
		cp.Queue = sc.queueUnknowns(idxs)
		return cp
	}
	// Only the restart cascade reads the step's phase.
	step := core.stepper(mode != restartNone)
	var reset func(int) bool
	// Restart-cascade scratch, reused across cascades: work is the explicit
	// iterative worklist (NEVER recursion — influence chains reach 10⁵
	// unknowns on synthetic systems, which would exhaust the goroutine
	// stack), seen dedups within one cascade, triggered caps each widening
	// point at one cascade per run (see the package comment on termination).
	var work []int32
	var seen, triggered bitset
	if mode != restartNone {
		reset = core.resetter()
		seen = newBitset(n)
		triggered = newBitset(n)
	}
	frames := []slrFrame{{ci: -1, pos: 0, base: st.Updates}}
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		start, end := int32(0), int32(n)
		if f.ci >= 0 {
			span := w.comps[f.ci]
			start, end = span.start, span.end
		}
		if f.pos == end {
			if st.Updates > f.base {
				// The pass updated some member: the component has not
				// stabilized, run another pass over its span.
				f.base, f.pos = st.Updates, start
				continue
			}
			frames = frames[:len(frames)-1]
			continue
		}
		if ci := w.startComp[f.pos]; ci >= 0 && ci != f.ci {
			// A nested component starts here: stabilize it completely
			// before this pass continues behind it.
			childStart := f.pos
			f.pos = w.comps[ci].end
			frames = append(frames, slrFrame{ci: ci, pos: childStart, base: st.Updates})
			continue
		}
		p := f.pos
		f.pos++
		i := int(w.seq[p])
		if !dirty.has(i) {
			continue
		}
		if err := wd.check(st.Evals); err != nil {
			return st, attachCheckpoint(err, capture())
		}
		if ck.due(st.Evals) {
			ck.emit(st.Evals, capture())
		}
		accel := w.wp.has(i)
		ph, changed, attempts, ee := step(i, accel)
		st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened: i stays dirty so the
			// checkpoint resumes by re-evaluating it.
			return st, attachCheckpoint(wd.failEval(ee, st.Evals), capture())
		}
		dirty.clear(i)
		dc--
		st.Evals++
		if !changed {
			continue
		}
		st.Updates++
		for _, j := range sc.infl(i) {
			mark(int(j))
		}
		if mode != restartNone && accel && ph == PhaseNarrow && !triggered.has(i) {
			// The widening point shrank for the first time: restart the
			// descending iteration below it. The shrink itself is part of
			// the restart, so erase its phase history too — without this,
			// the subtree's re-ascension would read as narrow→widen
			// oscillation and trip MaxFlips on perfectly convergent runs.
			triggered.set(i)
			if wd != nil {
				wd.observe(sc.sh.order[i], PhaseRestart)
			}
			pi := w.pos[i]
			compEnd := int32(n)
			if mode == restartSCC {
				compEnd = w.comps[w.startComp[pi]].end
			}
			work = append(work[:0], sc.infl(i)...)
			for len(work) > 0 {
				j := int(work[len(work)-1])
				work = work[:len(work)-1]
				if j == i || seen.has(j) {
					continue
				}
				seen.set(j)
				mark(j)
				// Reset strictly below the widening point — unknowns
				// ordered after it; SLR4 additionally stays inside its
				// component span. The cascade only crosses reset unknowns:
				// a non-reset reader is rescheduled and re-converges by
				// ordinary iteration.
				if pj := w.pos[j]; pj > pi && pj < compEnd {
					if reset(j) {
						st.Restarts++
					}
					work = append(work, sc.infl(j)...)
				}
			}
			clear(seen)
		}
		if dc > st.MaxQueue {
			st.MaxQueue = dc
		}
	}
	return st, nil
}
