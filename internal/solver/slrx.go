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
// re-evaluates — and run on the same three execution cores as the other
// global solvers (map, dense boxed, dense unboxed) through one shared loop
// (slrxRun) over a small core seam (slrxCore); there is no second
// implementation of the iteration logic. Results certify as post-solutions
// via internal/certify whenever the run terminates (the stabilized updates
// satisfy σ(x) ⊒ fₓ(σ) at every unknown, by the same Lemma 1 argument as
// for ⊟ everywhere), but they are NOT bit-pinned to SW: applying ⊞ at
// fewer points changes the iterate sequence, generally to a pointwise
// smaller (more precise) result.
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
	"fmt"
	"sort"

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

		// Scratch for the induced-subgraph Tarjan runs of the refinement;
		// each call initializes exactly the entries of its node set, so the
		// arrays are shared across all levels.
		member := newBitset(n)
		num := make([]int32, n)
		low := make([]int32, n)
		onStack := newBitset(n)

		// sccs condenses the subgraph induced by nodes, returning the
		// components in emission order of the iterative Tarjan traversal —
		// reverse topological order of the sub-condensation, i.e. every
		// component before its readers — with each component sorted by
		// definition index (deterministic headers and root order).
		sccs := func(nodes []int32) [][]int32 {
			for _, v := range nodes {
				member.set(int(v))
				num[v] = -1
			}
			var groups [][]int32
			var tstack []int32
			type tframe struct {
				v  int32
				ei int
			}
			var frames []tframe
			var counter int32
			for _, root := range nodes {
				if num[root] >= 0 {
					continue
				}
				num[root], low[root] = counter, counter
				counter++
				tstack = append(tstack, root)
				onStack.set(int(root))
				frames = append(frames[:0], tframe{root, 0})
				for len(frames) > 0 {
					f := &frames[len(frames)-1]
					v := f.v
					if f.ei < len(adj[v]) {
						u := int32(adj[v][f.ei])
						f.ei++
						if !member.has(int(u)) {
							continue
						}
						if num[u] < 0 {
							num[u], low[u] = counter, counter
							counter++
							tstack = append(tstack, u)
							onStack.set(int(u))
							frames = append(frames, tframe{u, 0})
						} else if onStack.has(int(u)) && num[u] < low[v] {
							low[v] = num[u]
						}
						continue
					}
					if low[v] == num[v] {
						var g []int32
						for {
							u := tstack[len(tstack)-1]
							tstack = tstack[:len(tstack)-1]
							onStack.clear(int(u))
							g = append(g, u)
							if u == v {
								break
							}
						}
						sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
						groups = append(groups, g)
					}
					frames = frames[:len(frames)-1]
					if len(frames) > 0 {
						p := frames[len(frames)-1].v
						if low[v] < low[p] {
							low[p] = low[v]
						}
					}
				}
			}
			for _, v := range nodes {
				member.clear(int(v))
			}
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
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		top := sccs(all)
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

// slrxCore is the seam the shared SLR2/3/4 loop runs on. It is index-space
// throughout (scheduling is over order positions on every core); the boxed
// and unboxed wrappers delegate to the compiled structures, the map core
// re-derives the same index view from the system's memoized maps, so the
// three cores iterate identically and produce bit-identical results, Stats
// and checkpoints.
type slrxCore[X comparable, D any] interface {
	// size is the number of unknowns.
	size() int
	// slrStepper returns the step function of one run: step(i, accel)
	// evaluates unknown i under the eval guard, observes the step's phase,
	// and stores op.Apply (accel — at widening points) or the plain
	// right-hand-side value (elsewhere). It reports the observed phase,
	// whether the value changed, the attempt count, and the evaluation
	// error, if any; on an error nothing is rolled forward.
	slrStepper() func(i int, accel bool) (Phase, bool, int, *EvalError)
	// slrReset returns the restart primitive: reset(i) sets σ[i] back to
	// init and reports whether that changed the value, emitting a
	// PhaseRestart observation when it did.
	slrReset() func(i int) bool
	// noteRestart records a PhaseRestart observation for unknown i without
	// touching its value — issued at a cascade's triggering widening point,
	// whose shrink is part of the restart, not oscillation.
	noteRestart(i int)
	// influenced is the CSR influence row of unknown i: the positions of
	// its readers, in the order eqn.Infl lists them.
	influenced(i int) []int32
	// unknowns and indices translate between order positions and X-space
	// for the checkpoint queue.
	unknowns(idxs []int) []X
	indices(queue []X) ([]int, error)
	// sigmaMap renders the assignment as the map the public API returns.
	sigmaMap() map[X]D
	// snapshot captures a checkpoint of the current assignment; the loop
	// fills in the queue.
	snapshot(name string, st Stats) *Checkpoint[X, D]
	// restore applies a checkpointed assignment (see execCore.restore).
	restore(cp *Checkpoint[X, D]) error
	// release returns pooled stores; the core must not be used afterwards.
	release()
}

// slrxBoxed runs the family on the dense core with boxed values. Unlike the
// plain dense solvers, the wrapped boxedCore holds the UNinstrumented
// operator: the slr step observes phases itself (it needs the phase to
// decide restarts), in the same before-apply position as observedOp.
type slrxBoxed[X comparable, D any] struct {
	*boxedCore[X, D]
	wd *watchdog[X]
}

func (c *slrxBoxed[X, D]) size() int                    { return len(c.order) }
func (c *slrxBoxed[X, D]) influenced(i int) []int32     { return c.denseShape.infl(i) }
func (c *slrxBoxed[X, D]) unknowns(idxs []int) []X      { return c.queueUnknowns(idxs) }
func (c *slrxBoxed[X, D]) indices(q []X) ([]int, error) { return c.queueIndices(q) }

func (c *slrxBoxed[X, D]) slrStepper() func(int, bool) (Phase, bool, int, *EvalError) {
	e := c.evaluator()
	return func(i int, accel bool) (Phase, bool, int, *EvalError) {
		x := c.order[i]
		e.cur = i
		rhsVal, attempts, ee := guardedEval(c.g, x, e.thunk)
		if ee != nil {
			return PhaseStable, false, attempts, ee
		}
		old := c.vals[i]
		ph := PhaseOf(c.l, old, rhsVal)
		if c.wd != nil {
			c.wd.observe(x, ph)
		}
		next := rhsVal
		if accel {
			next = c.op.Apply(x, old, rhsVal)
		}
		if c.l.Eq(old, next) {
			return ph, false, attempts, nil
		}
		c.vals[i] = next
		return ph, true, attempts, nil
	}
}

func (c *slrxBoxed[X, D]) slrReset() func(int) bool {
	return func(i int) bool {
		x := c.order[i]
		v0 := c.init(x)
		if c.l.Eq(c.vals[i], v0) {
			return false
		}
		if c.wd != nil {
			c.wd.observe(x, PhaseRestart)
		}
		c.vals[i] = v0
		return true
	}
}

func (c *slrxBoxed[X, D]) noteRestart(i int) {
	if c.wd != nil {
		c.wd.observe(c.order[i], PhaseRestart)
	}
}

// slrxRaw runs the family on the unboxed word core. rawCore already keeps
// its operator uninstrumented and its watchdog explicit, so the wrapper
// only adds the slr step and the reset primitive.
type slrxRaw[X comparable, D any] struct {
	*rawCore[X, D]
}

func (c *slrxRaw[X, D]) size() int                    { return len(c.order) }
func (c *slrxRaw[X, D]) influenced(i int) []int32     { return c.denseShape.infl(i) }
func (c *slrxRaw[X, D]) unknowns(idxs []int) []X      { return c.queueUnknowns(idxs) }
func (c *slrxRaw[X, D]) indices(q []X) ([]int, error) { return c.queueIndices(q) }

func (c *slrxRaw[X, D]) slrStepper() func(int, bool) (Phase, bool, int, *EvalError) {
	stride := c.stride
	words := c.words
	raw := c.raw
	e := c.rawCore.evaluator()
	res := make([]uint64, stride)
	return func(i int, accel bool) (Phase, bool, int, *EvalError) {
		e.cur = i
		x := c.order[i]
		_, attempts, ee := guardedEval(c.g, x, e.thunk)
		if ee != nil {
			return PhaseStable, false, attempts, ee
		}
		old := words[i*stride : (i+1)*stride]
		ph := rawPhase(raw, old, e.newv)
		if c.wd != nil {
			c.wd.observe(x, ph)
		}
		if accel {
			c.op.rawApply(raw, res, old, e.newv)
		} else {
			copy(res, e.newv)
		}
		if raw.RawEq(old, res) {
			return ph, false, attempts, nil
		}
		copy(old, res)
		return ph, true, attempts, nil
	}
}

func (c *slrxRaw[X, D]) slrReset() func(int) bool {
	scratch := make([]uint64, c.stride)
	return func(i int) bool {
		x := c.order[i]
		c.raw.RawEncode(scratch, c.init(x))
		old := c.words[i*c.stride : (i+1)*c.stride]
		if c.raw.RawEq(old, scratch) {
			return false
		}
		if c.wd != nil {
			c.wd.observe(x, PhaseRestart)
		}
		copy(old, scratch)
		return true
	}
}

func (c *slrxRaw[X, D]) noteRestart(i int) {
	if c.wd != nil {
		c.wd.observe(c.order[i], PhaseRestart)
	}
}

// slrxMap runs the family on the map core: sigma stays a hash map (the
// tiny-system fast path and the differential oracle the compiled wrappers
// are pinned against), while scheduling uses the same index-space view the
// dense cores use, derived once from the system's memoized order/Infl.
type slrxMap[X comparable, D any] struct {
	sys   *eqn.System[X, D]
	l     lattice.Lattice[D]
	op    Operator[X, D]
	init  func(X) D
	wd    *watchdog[X]
	g     *evalGuard
	order []X
	idx   map[X]int
	sigma map[X]D
	infl  *eqn.InflCSR[X]
}

func newSlrxMap[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (*slrxMap[X, D], *watchdog[X]) {
	order := sys.Order()
	idx := sys.Index()
	wd := newWatchdog(cfg, idx)
	c := &slrxMap[X, D]{
		sys: sys, l: l, op: op, init: init,
		wd: wd, g: newEvalGuard(cfg),
		order: order, idx: idx,
		sigma: make(map[X]D, len(order)),
		infl:  sys.InflCSR(),
	}
	for _, x := range order {
		c.sigma[x] = init(x)
	}
	return c, wd
}

func (c *slrxMap[X, D]) size() int                { return len(c.order) }
func (c *slrxMap[X, D]) influenced(i int) []int32 { return c.infl.Row(i) }
func (c *slrxMap[X, D]) sigmaMap() map[X]D        { return c.sigma }
func (c *slrxMap[X, D]) release()                 {}

func (c *slrxMap[X, D]) unknowns(idxs []int) []X {
	out := make([]X, len(idxs))
	for k, i := range idxs {
		out[k] = c.order[i]
	}
	return out
}

func (c *slrxMap[X, D]) indices(queue []X) ([]int, error) {
	out := make([]int, len(queue))
	for k, x := range queue {
		j, ok := c.idx[x]
		if !ok {
			return nil, fmt.Errorf("%w: queued unknown %v is not in the system", ErrBadCheckpoint, x)
		}
		out[k] = j
	}
	return out, nil
}

func (c *slrxMap[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	return snapshotGlobal(name, c.sys, c.sigma, st)
}

func (c *slrxMap[X, D]) restore(cp *Checkpoint[X, D]) error {
	for x, v := range cp.sigmaMap() {
		c.sigma[x] = v
	}
	return nil
}

func (c *slrxMap[X, D]) slrStepper() func(int, bool) (Phase, bool, int, *EvalError) {
	setCur, thunk := mapEvaluator(c.sys, c.sigma, c.init)
	return func(i int, accel bool) (Phase, bool, int, *EvalError) {
		x := c.order[i]
		setCur(x)
		rhsVal, attempts, ee := guardedEval(c.g, x, thunk)
		if ee != nil {
			return PhaseStable, false, attempts, ee
		}
		old := c.sigma[x]
		ph := PhaseOf(c.l, old, rhsVal)
		if c.wd != nil {
			c.wd.observe(x, ph)
		}
		next := rhsVal
		if accel {
			next = c.op.Apply(x, old, rhsVal)
		}
		if c.l.Eq(old, next) {
			return ph, false, attempts, nil
		}
		c.sigma[x] = next
		return ph, true, attempts, nil
	}
}

func (c *slrxMap[X, D]) slrReset() func(int) bool {
	return func(i int) bool {
		x := c.order[i]
		v0 := c.init(x)
		if c.l.Eq(c.sigma[x], v0) {
			return false
		}
		if c.wd != nil {
			c.wd.observe(x, PhaseRestart)
		}
		c.sigma[x] = v0
		return true
	}
}

func (c *slrxMap[X, D]) noteRestart(i int) {
	if c.wd != nil {
		c.wd.observe(c.order[i], PhaseRestart)
	}
}

// buildSlrxCore picks the execution core for an SLR2/3/4 solve, with the
// same selection rules as buildCore: dense for systems of at least
// denseMinUnknowns unknowns (override with Config.Core), unboxed when the
// operator is structured and the lattice has a clean raw encoding. The
// operator is never instrumented — the slr step observes phases itself.
func buildSlrxCore[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (slrxCore[X, D], *watchdog[X]) {
	if cfg.useDense(sys.Len()) {
		if cfg.Core != CoreDense {
			if ro, ok := op.(rawOperator[D]); ok {
				if raw := lattice.AsRaw[D](l); raw != nil {
					if rc, ok := tryRawCompile(sys, raw, init); ok {
						wd := newWatchdog(cfg, rc.idx)
						return &slrxRaw[X, D]{&rawCore[X, D]{rawCompiled: rc, op: ro, wd: wd, g: newEvalGuard(cfg)}}, wd
					}
				}
			}
		}
		c := compile(sys, init)
		wd := newWatchdog(cfg, c.idx)
		return &slrxBoxed[X, D]{boxedCore: &boxedCore[X, D]{compiled: c, l: l, op: op, g: newEvalGuard(cfg)}, wd: wd}, wd
	}
	return newSlrxMap(sys, l, op, init, cfg)
}

// SLR2 solves the system with ⊞ applied only at widening points and plain
// replacement everywhere else (Amato et al., SLR2). Same signature and
// bounds behavior as SW; checkpoints carry the assignment and the pending
// (dirty) unknowns under the solver name "slr2". The result is a certified
// post-solution whenever the run terminates, generally pointwise below
// SW's.
func SLR2[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return slrxRun(sys, l, op, init, cfg, "slr2", restartNone)
}

// SLR3 is SLR2 plus restarting narrowing: when a widening point's value
// shrinks, every unknown transitively influenced by it that is ordered
// after it is reset to its initial value and rescheduled (Amato et al.,
// SLR3). Stats.Restarts counts the resets.
func SLR3[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return slrxRun(sys, l, op, init, cfg, "slr3", restartAll)
}

// SLR4 is SLR3 with the restart localized to the widening point's own
// component: unknowns outside it are rescheduled but keep their values
// (Amato et al., SLR4-style localization).
func SLR4[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return slrxRun(sys, l, op, init, cfg, "slr4", restartSCC)
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

// slrxRun is the one shared iteration of the family: the recursive
// strategy over the hierarchical decomposition (an explicit frame stack —
// component nesting can track system size, so no recursion), evaluating
// only dirty unknowns (those whose inputs changed since their last
// evaluation), with the update operator gated on the widening-point set
// and (SLR3/SLR4) the iterative, once-per-point restart cascade.
func slrxRun[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config, name string, mode restartMode) (map[X]D, Stats, error) {
	return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return slrxSolve(sys, l, op, init, cfg, name, mode) })
}

// slrxSolve is one slrxRun on the core buildSlrxCore picks.
func slrxSolve[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config, name string, mode restartMode) (map[X]D, Stats, error) {
	core, wd := buildSlrxCore(sys, l, op, init, cfg)
	defer core.release()
	n := core.size()
	w := wpointsOf(sys)
	ck := newCkptSink(cfg)
	var st Stats
	st.Unknowns = n
	st.SCCs = w.ncomp
	if n == 0 {
		return core.sigmaMap(), st, nil
	}

	dirty := newBitset(n)
	dc := 0
	mark := func(i int) {
		if !dirty.has(i) {
			dirty.set(i)
			dc++
		}
	}
	if cp, err := resumeCheckpoint(cfg, name, sys); err != nil {
		return core.sigmaMap(), st, err
	} else if cp != nil {
		if err := core.restore(cp); err != nil {
			return core.sigmaMap(), st, err
		}
		cp.restoreStats(&st)
		queued, qerr := core.indices(cp.Queue)
		if qerr != nil {
			return core.sigmaMap(), st, qerr
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
		cp.Queue = core.unknowns(idxs)
		return cp
	}
	step := core.slrStepper()
	var reset func(int) bool
	// Restart-cascade scratch, reused across cascades: work is the explicit
	// iterative worklist (NEVER recursion — influence chains reach 10⁵
	// unknowns on synthetic systems, which would exhaust the goroutine
	// stack), seen dedups within one cascade, triggered caps each widening
	// point at one cascade per run (see the package comment on termination).
	var work []int32
	var seen, triggered bitset
	if mode != restartNone {
		reset = core.slrReset()
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
			return core.sigmaMap(), st, attachCheckpoint(err, capture())
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
			return core.sigmaMap(), st, attachCheckpoint(wd.failEval(ee, st.Evals), capture())
		}
		dirty.clear(i)
		dc--
		st.Evals++
		if !changed {
			continue
		}
		st.Updates++
		for _, j := range core.influenced(i) {
			mark(int(j))
		}
		if mode != restartNone && accel && ph == PhaseNarrow && !triggered.has(i) {
			// The widening point shrank for the first time: restart the
			// descending iteration below it. The shrink itself is part of
			// the restart, so erase its phase history too — without this,
			// the subtree's re-ascension would read as narrow→widen
			// oscillation and trip MaxFlips on perfectly convergent runs.
			triggered.set(i)
			core.noteRestart(i)
			pi := w.pos[i]
			compEnd := int32(n)
			if mode == restartSCC {
				compEnd = w.comps[w.startComp[pi]].end
			}
			work = append(work[:0], core.influenced(i)...)
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
					work = append(work, core.influenced(j)...)
				}
			}
			clear(seen)
		}
		if dc > st.MaxQueue {
			st.MaxQueue = dc
		}
	}
	return core.sigmaMap(), st, nil
}
