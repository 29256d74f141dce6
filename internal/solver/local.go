package solver

import (
	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// Result is the outcome of a local solver: a partial assignment over the
// unknowns encountered while answering the query.
type Result[X comparable, D any] struct {
	// Values maps every encountered unknown (the set dom) to its value.
	Values map[X]D
	// Stats records the work performed.
	Stats Stats
}

// RLD is the local solver of Hofmann, Karbyshev and Seidl (Fig. 5),
// generalized over the update operator. It is included for reference and
// comparison: as the paper observes, RLD is *not* a generic solver —
// because eval recursively solves on every lookup, an evaluation of a
// right-hand side may mix values from several intermediate assignments, so
// with a non-trivial ⊞ (such as ⊟) it is not guaranteed to return a
// ⊞-solution even when it terminates. Use SLR instead.
//
// Aborts attach a warm-restart checkpoint (the assignment in the order the
// unknowns first received a value); Config.Resume seeds σ₀ from it,
// restarting iteration from the checkpointed values — the
// localized-restart argument of Amato et al. makes the restarted run's
// result as sound as an uninterrupted one, but its eval counts are its own.
func RLD[X comparable, D any](sys eqn.Pure[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, x0 X, cfg Config) (Result[X, D], error) {
	if cp, err := resumeCheckpoint[X, D](cfg, "rld", nil); err != nil {
		return Result[X, D]{Values: map[X]D{}}, err
	} else if cp != nil {
		init = cp.overlayInit(init)
	}
	wd := newWatchdog[X](cfg, nil)
	op = instrument(wd, l, op)
	g := newEvalGuard(cfg)
	ck := newCkptSink(cfg)
	var st Stats
	// Unknowns are numbered when first encountered; σ, stability and the
	// influence lists are slices indexed by that number. An unknown holds a
	// value only once it has been set; set lists the numbers in the order
	// they first received one, which is the order of the checkpoint rows.
	s := newLocalStore[X, D]()
	var (
		has    []bool
		set    []int32
		stable []bool
		infl   [][]int32
	)
	number := func(y X) int32 {
		if i, ok := s.num[y]; ok {
			return i
		}
		has = append(has, false)
		stable = append(stable, false)
		infl = append(infl, nil)
		return s.add(y)
	}
	assign := func(i int32, v D) {
		if !has[i] {
			has[i] = true
			set = append(set, i)
		}
		s.sigma[i] = v
	}
	capture := func() *Checkpoint[X, D] {
		dom, sigma := make([]X, len(set)), make([]D, len(set))
		for k, i := range set {
			dom[k], sigma[k] = s.dom[i], s.sigma[i]
		}
		return snapshotLocal("rld", dom, sigma, st)
	}
	get := func(i int32) D {
		if has[i] {
			return s.sigma[i]
		}
		return init(s.dom[i])
	}
	// eval and thunk are allocated once per run and read the current frame
	// from cur; solve is reentrant (eval recurses into it), so each frame
	// saves and restores cur around its evaluation.
	var solve func(i int32) error
	var cur struct {
		x       int32
		rhs     eqn.RHS[X, D]
		evalErr error
	}
	eval := func(y X) D {
		i := number(y)
		if cur.evalErr == nil {
			cur.evalErr = solve(i)
		}
		infl[i] = append(infl[i], cur.x)
		return get(i)
	}
	thunk := func() D { return cur.rhs(eval) }
	solve = func(i int32) error {
		if stable[i] {
			return nil
		}
		stable[i] = true
		x := s.dom[i]
		rhs := sys(x)
		if rhs == nil {
			if !has[i] {
				assign(i, init(x))
			}
			return nil
		}
		if err := wd.check(st.Evals); err != nil {
			return err
		}
		if ck.due(st.Evals) {
			ck.emit(st.Evals, capture())
		}
		st.Evals++
		saved := cur
		cur.x, cur.rhs, cur.evalErr = i, rhs, nil
		rhsVal, attempts, ee := guardedEval(g, x, thunk)
		evalErr := cur.evalErr
		cur = saved
		st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened; roll its count back.
			// Evaluations of unknowns discovered during failed attempts did
			// happen and stand.
			st.Evals--
			return wd.failEval(ee, st.Evals)
		}
		tmp := op.Apply(x, get(i), rhsVal)
		if evalErr != nil {
			return evalErr
		}
		if !l.Eq(tmp, get(i)) {
			// The list is replaced, not truncated: the solves below may
			// append new readers of x while w is still being walked.
			w := infl[i]
			assign(i, tmp)
			st.Updates++
			infl[i] = nil
			for _, y := range w {
				stable[y] = false
			}
			for _, y := range w {
				if err := solve(y); err != nil {
					return err
				}
			}
		} else {
			assign(i, tmp)
		}
		return nil
	}
	err := solve(number(x0))
	if err != nil {
		err = attachCheckpoint(err, capture())
	}
	st.Unknowns = len(set)
	vals := make(map[X]D, len(set))
	for _, i := range set {
		vals[s.dom[i]] = s.sigma[i]
	}
	return Result[X, D]{Values: vals, Stats: st}, err
}

// localStore is the numbered store of the local solvers: each unknown is
// numbered on discovery through num, the only map keyed by X, and its value
// and every other per-unknown field live in slices indexed by that number.
// dom is the reverse mapping, so discovery order is number order.
type localStore[X comparable, D any] struct {
	num   map[X]int32
	dom   []X
	sigma []D
}

func newLocalStore[X comparable, D any]() localStore[X, D] {
	return localStore[X, D]{num: make(map[X]int32)}
}

// add numbers y, which must not be numbered yet. Its value slot holds D's
// zero value until the caller sets it.
func (s *localStore[X, D]) add(y X) int32 {
	i := int32(len(s.dom))
	s.num[y] = i
	s.dom = append(s.dom, y)
	var zero D
	s.sigma = append(s.sigma, zero)
	return i
}

// values builds the result map, once, at the end of a solve.
func (s *localStore[X, D]) values() map[X]D {
	m := make(map[X]D, len(s.dom))
	for i, x := range s.dom {
		m[x] = s.sigma[i]
	}
	return m
}

// slrState is the shared machinery of SLR and SLR⁺, over the numbered
// store: stability, priority keys, influence rows and queue positions are
// all indexed by discovery number.
type slrState[X comparable, D any] struct {
	localStore[X, D]
	name string
	l    lattice.Lattice[D]
	op   Operator[X, D]
	init func(X) D
	band func(X) int
	wd   *watchdog[X]
	g    *evalGuard
	ck   *ckptSink
	st   Stats

	stable []bool
	key    []int64
	// infl[i] lists the readers of i, starting with i itself, since every
	// unknown depends on itself. A row may repeat a reader: destabilize
	// marks and queues each entry, and both are idempotent. compact drops
	// the repeats before a row reallocates, so a row stays within twice its
	// distinct readers.
	infl [][]int32
	mark []bool // compact's scratch set; all false between calls
	q    idHeap
}

func newSLRState[X comparable, D any](name string, l lattice.Lattice[D], op Operator[X, D], init func(X) D, band func(X) int, cfg Config) *slrState[X, D] {
	wd := newWatchdog[X](cfg, nil)
	return &slrState[X, D]{
		localStore: newLocalStore[X, D](),
		name:       name,
		l:          l,
		op:         instrument(wd, l, op),
		init:       init,
		band:       band,
		wd:         wd,
		g:          newEvalGuard(cfg),
		ck:         newCkptSink(cfg),
	}
}

// capture snapshots the current partial assignment for a warm restart.
func (s *slrState[X, D]) capture() *Checkpoint[X, D] {
	return snapshotLocal(s.name, s.dom, s.sigma, s.st)
}

// initVar is the paper's init: y joins dom with a key smaller than all
// previously assigned keys within its priority band, depends on itself,
// and starts at σ₀[y]. Unknowns in a higher band always carry larger keys
// than every unknown in a lower band, so they are re-evaluated only after
// all their lower-band readers have refreshed — the scheduling refinement
// needed for side-effected unknowns (see SLRPlusKeyed). It returns y's
// number, which is also its discovery count.
func (s *slrState[X, D]) initVar(y X) int32 {
	band := 0
	if s.band != nil {
		band = s.band(y)
	}
	i := s.add(y)
	s.key = append(s.key, bandKey(band, int(i)))
	// Room for three readers: most unknowns never reallocate their row.
	row := make([]int32, 1, 4)
	row[0] = i
	s.infl = append(s.infl, row)
	s.stable = append(s.stable, false)
	s.mark = append(s.mark, false)
	s.sigma[i] = s.init(y)
	return i
}

// bandKey computes the priority key for the count-th discovered unknown of
// a band. The band occupies bits 32 and up, so it must be widened to int64
// before the shift: computed in int, band<<32 is zero on 32-bit platforms,
// which silently collapses every band to 0 and disables the scheduling
// refinement SLRPlusKeyed's termination argument relies on.
func bandKey(band, count int) int64 {
	return int64(band)<<32 - int64(count)
}

// addReader records that r read y. A reader that is already the row's
// last entry is not repeated.
func (s *slrState[X, D]) addReader(y, r int32) {
	row := s.infl[y]
	if row[len(row)-1] == r {
		return
	}
	if len(row) == cap(row) {
		row = s.compact(row)
	}
	s.infl[y] = append(row, r)
}

// compact removes repeated readers from a row in place, keeping each
// reader's first entry.
func (s *slrState[X, D]) compact(row []int32) []int32 {
	out := row[:0]
	for _, y := range row {
		if !s.mark[y] {
			s.mark[y] = true
			out = append(out, y)
		}
	}
	for _, y := range out {
		s.mark[y] = false
	}
	return out
}

// schedule marks y unstable and queues it.
func (s *slrState[X, D]) schedule(y int32) {
	s.stable[y] = false
	s.q.push(y, s.key[y])
	if s.q.len() > s.st.MaxQueue {
		s.st.MaxQueue = s.q.len()
	}
}

// destabilize removes the unknowns influenced by x from stable and
// schedules them, resetting infl[x] to {x}.
func (s *slrState[X, D]) destabilize(x int32) {
	row := s.infl[x]
	for _, y := range row {
		s.schedule(y)
	}
	s.infl[x] = row[:1]
}

// drain solves queued unknowns while the least key does not exceed bound.
//
// The unknowns it pops are solved with drainAfter=false: a popped unknown's
// own post-update drain would process exactly the same queue prefix in the
// same min-first order as this loop, so skipping it preserves the iteration
// order of the paper's recursive formulation while keeping update chains
// off the Go stack (the recursion that remains — solving freshly discovered
// unknowns inside eval — is bounded by the discovery-chain depth, not by
// the number of updates).
func (s *slrState[X, D]) drain(bound int64, solve func(int32, bool) error) error {
	for !s.q.empty() && s.q.minKey() <= bound {
		if err := solve(s.q.popMin(), false); err != nil {
			return err
		}
	}
	return nil
}

// SLR is the structured local recursive solver of Fig. 6: a variant of RLD
// in which right-hand sides are evaluated atomically (solve recurses only
// into *fresh* unknowns; already-known ones are just read), every unknown
// depends on itself, and destabilized unknowns are re-solved through a
// priority queue ordered by discovery time (later-discovered unknowns have
// smaller keys and are solved first). SLR is a generic local solver: upon
// termination it returns a partial ⊞-solution whose domain contains x0
// (Theorem 3.1), and with ⊟ it terminates whenever the system is monotonic
// and only finitely many unknowns are encountered (Theorem 3.2).
//
// Aborts attach a warm-restart checkpoint; see RLD for the resume contract.
func SLR[X comparable, D any](sys eqn.Pure[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, x0 X, cfg Config) (Result[X, D], error) {
	if cp, err := resumeCheckpoint[X, D](cfg, "slr", nil); err != nil {
		return Result[X, D]{Values: map[X]D{}}, err
	} else if cp != nil {
		init = cp.overlayInit(init)
	}
	s := newSLRState("slr", l, op, init, nil, cfg)
	// eval and thunk are allocated once per run and read the current frame
	// from cur; solve is reentrant (eval recurses into it for fresh
	// unknowns), so each frame saves and restores cur around its evaluation.
	var solve func(i int32, drainAfter bool) error
	var cur struct {
		x       int32
		rhs     eqn.RHS[X, D]
		evalErr error
	}
	eval := func(y X) D {
		i, ok := s.num[y]
		if !ok {
			i = s.initVar(y)
			if cur.evalErr == nil {
				cur.evalErr = solve(i, true)
			}
		}
		s.addReader(i, cur.x)
		return s.sigma[i]
	}
	thunk := func() D { return cur.rhs(eval) }
	solve = func(i int32, drainAfter bool) error {
		if s.stable[i] {
			return nil
		}
		s.stable[i] = true
		x := s.dom[i]
		rhs := sys(x)
		if rhs == nil {
			return nil // no equation: value stays σ₀[x]
		}
		if err := s.wd.check(s.st.Evals); err != nil {
			return err
		}
		if s.ck.due(s.st.Evals) {
			s.ck.emit(s.st.Evals, s.capture())
		}
		s.st.Evals++
		saved := cur
		cur.x, cur.rhs, cur.evalErr = i, rhs, nil
		rhsVal, attempts, ee := guardedEval(s.g, x, thunk)
		evalErr := cur.evalErr
		cur = saved
		s.st.Retries += attempts - 1
		if ee != nil {
			// The failed evaluation never happened; roll its count back.
			// Evaluations of unknowns discovered during failed attempts did
			// happen and stand.
			s.st.Evals--
			return s.wd.failEval(ee, s.st.Evals)
		}
		tmp := s.op.Apply(x, s.sigma[i], rhsVal)
		if evalErr != nil {
			return evalErr
		}
		if !s.l.Eq(tmp, s.sigma[i]) {
			s.destabilize(i)
			s.sigma[i] = tmp
			s.st.Updates++
			if drainAfter {
				return s.drain(s.key[i], solve)
			}
		}
		return nil
	}
	root := s.initVar(x0)
	err := solve(root, true)
	if err == nil {
		// The paper argues Q is empty here since x0 holds the largest key;
		// drain defensively so the result is a partial solution regardless.
		err = s.drain(s.key[root], solve)
	}
	if err != nil {
		err = attachCheckpoint(err, s.capture())
	}
	s.st.Unknowns = len(s.dom)
	return Result[X, D]{Values: s.values(), Stats: s.st}, err
}

// sidePair packs the numbers of a side effect's source and target into the
// key of SLRPlusKeyed's contribution index.
func sidePair(from, to int32) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// SLRPlus is the side-effecting solver of Sec. 6. Right-hand sides receive,
// besides get, a side callback contributing values to other unknowns — the
// mechanism by which context-sensitive analyses feed flow-insensitive
// globals. Each side effect (x → z) is stored in an auxiliary unknown
// (x, z); the effective right-hand side of z joins z's own equation (if
// any) with all recorded contributions before applying ⊞. Upon termination
// SLRPlus returns a partial post-solution (Theorem 4.1); with ⊟ it
// terminates for monotonic systems whenever finitely many unknowns are
// encountered (Theorem 4.2).
func SLRPlus[X comparable, D any](sys eqn.Sides[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, x0 X, cfg Config) (Result[X, D], error) {
	return SLRPlusKeyed(sys, l, op, init, x0, nil, cfg)
}

// SLRPlusKeyed is SLRPlus with a priority-band hook: unknowns with a larger
// band always receive larger keys than unknowns with a smaller band, on top
// of the discovery-time ordering within a band.
//
// The hook addresses a scheduling hazard the paper's uniform key scheme
// leaves open: an unknown z that is fed by side effects *computed from z's
// own value* (e.g. a flow-insensitive global accumulated as g = g + k) may
// be discovered during the evaluation of its own reader, giving z a smaller
// key than the reader. With ⊟, z is then always re-evaluated before the
// reader refreshes its contribution, so z narrows against a stale value,
// the reader bumps it again, and the widen/narrow phases alternate forever.
// Scheduling side-effected unknowns in a higher band (as Goblint does for
// globals) restores the invariant the termination proof of Theorem 4 needs:
// when z is re-evaluated, all of its lower-band readers are stable.
func SLRPlusKeyed[X comparable, D any](sys eqn.Sides[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, x0 X, band func(X) int, cfg Config) (Result[X, D], error) {
	if cp, err := resumeCheckpoint[X, D](cfg, "slr+", nil); err != nil {
		return Result[X, D]{Values: map[X]D{}}, err
	} else if cp != nil {
		init = cp.overlayInit(init)
	}
	s := newSLRState("slr+", l, op, init, band, cfg)
	// Each side effect (x → z) is the paper's auxiliary unknown (x, z).
	// contribs[z] holds the values of z's auxiliary unknowns in the order
	// their sources were first seen, indexed by z's number; slot maps the
	// pair of numbers to its entry in contribs[z].
	var contribs [][]D
	slot := make(map[uint64]int32)
	contribsOf := func(z int32) []D {
		if int(z) < len(contribs) {
			return contribs[z]
		}
		return nil
	}

	// sideErr is the shared error slot for the side callback: solving a
	// freshly discovered side-effected unknown has no error channel of its
	// own, and an abort raised there must not be dropped — if the caller
	// finishes without performing another evaluation, the solver would
	// otherwise report success on a truncated run.
	// eval, side and thunk are allocated once per run and read the current
	// frame from cur; solve is reentrant (eval and side recurse into it for
	// fresh unknowns), so each frame saves and restores cur around its
	// evaluation.
	var sideErr error
	var solve func(i int32, drainAfter bool) error
	var cur struct {
		x       int32
		rhs     eqn.SideRHS[X, D]
		evalErr error
	}
	side := func(z X, d D) {
		x := cur.x
		j, known := s.num[z]
		if known && j == x {
			// A contract violation, not an evaluation fault: the typed
			// panic passes through the recover barrier unchanged.
			panic(contractViolation{msg: "solver: SLRPlus right-hand side side-effects its own unknown"})
		}
		var old D
		k := int32(-1)
		if known {
			if k0, ok := slot[sidePair(x, j)]; ok {
				k = k0
				old = contribs[j][k]
			}
		}
		if k < 0 {
			old = l.Bottom()
		}
		if l.Eq(d, old) {
			return
		}
		if !known {
			j = s.initVar(z)
		}
		if k >= 0 {
			contribs[j][k] = d
		} else {
			for int(j) >= len(contribs) {
				contribs = append(contribs, nil)
			}
			slot[sidePair(x, j)] = int32(len(contribs[j]))
			contribs[j] = append(contribs[j], d)
		}
		if known {
			s.schedule(j)
		} else if err := solve(j, true); err != nil && sideErr == nil {
			sideErr = err
		}
	}
	eval := func(y X) D {
		i, ok := s.num[y]
		if !ok {
			i = s.initVar(y)
			if cur.evalErr == nil {
				cur.evalErr = solve(i, true)
			}
		}
		s.addReader(i, cur.x)
		return s.sigma[i]
	}
	thunk := func() D { return cur.rhs(eval, side) }
	solve = func(i int32, drainAfter bool) error {
		if s.stable[i] {
			return nil
		}
		s.stable[i] = true
		x := s.dom[i]
		rhs := sys(x)
		if rhs == nil && len(contribsOf(i)) == 0 {
			return nil
		}
		if err := s.wd.check(s.st.Evals); err != nil {
			return err
		}
		if s.ck.due(s.st.Evals) {
			s.ck.emit(s.st.Evals, s.capture())
		}
		s.st.Evals++
		v := l.Bottom()
		var evalErr error
		if rhs != nil {
			saved := cur
			cur.x, cur.rhs, cur.evalErr = i, rhs, nil
			rhsVal, attempts, ee := guardedEval(s.g, x, thunk)
			evalErr = cur.evalErr
			cur = saved
			s.st.Retries += attempts - 1
			if ee != nil {
				// The failed evaluation never happened; roll its count back.
				// Side effects and evaluations of unknowns discovered during
				// failed attempts did happen and stand — re-running the
				// evaluation replays them idempotently.
				s.st.Evals--
				return s.wd.failEval(ee, s.st.Evals)
			}
			v = rhsVal
		}
		if evalErr != nil {
			return evalErr
		}
		if sideErr != nil {
			return sideErr
		}
		// Read the contributions after the evaluation: side effects of the
		// unknowns it discovered may have added to them.
		for _, c := range contribsOf(i) {
			v = l.Join(v, c)
		}
		tmp := s.op.Apply(x, s.sigma[i], v)
		if !s.l.Eq(tmp, s.sigma[i]) {
			s.destabilize(i)
			s.sigma[i] = tmp
			s.st.Updates++
			if drainAfter {
				return s.drain(s.key[i], solve)
			}
		}
		return nil
	}
	root := s.initVar(x0)
	err := solve(root, true)
	for err == nil && !s.q.empty() {
		// Side effects may have scheduled unknowns after x0's last update;
		// keep draining until the queue is empty so the result is a partial
		// post-solution.
		err = s.drain(s.key[root], solve)
		if err == nil && !s.q.empty() {
			err = solve(s.q.popMin(), false)
		}
	}
	if err == nil {
		// A side-callback abort can be raised on a path where the caller
		// returns without another evaluation; surface it instead of
		// reporting success on a truncated run.
		err = sideErr
	}
	if err != nil {
		err = attachCheckpoint(err, s.capture())
	}
	s.st.Unknowns = len(s.dom)
	return Result[X, D]{Values: s.values(), Stats: s.st}, err
}
