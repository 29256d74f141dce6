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
// Aborts attach a warm-restart checkpoint (the assignment in discovery
// order); Config.Resume seeds σ₀ from it, restarting iteration from the
// checkpointed values — the localized-restart argument of Amato et al.
// makes the restarted run's result as sound as an uninterrupted one, but
// its eval counts are its own.
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
	sigma := make(map[X]D)
	var dom []X // discovery order of sigma's keys, for deterministic snapshots
	set := func(x X, v D) {
		if _, ok := sigma[x]; !ok {
			dom = append(dom, x)
		}
		sigma[x] = v
	}
	capture := func() *Checkpoint[X, D] { return snapshotLocal("rld", dom, sigma, st) }
	infl := make(map[X][]X)
	stable := make(map[X]bool)
	get := func(y X) D {
		if v, ok := sigma[y]; ok {
			return v
		}
		return init(y)
	}
	// eval and thunk are allocated once per run and read the current frame
	// from cur; solve is reentrant (eval recurses into it), so each frame
	// saves and restores cur around its evaluation.
	var solve func(x X) error
	var cur struct {
		x       X
		rhs     eqn.RHS[X, D]
		evalErr error
	}
	eval := func(y X) D {
		if cur.evalErr == nil {
			cur.evalErr = solve(y)
		}
		infl[y] = append(infl[y], cur.x)
		return get(y)
	}
	thunk := func() D { return cur.rhs(eval) }
	solve = func(x X) error {
		if stable[x] {
			return nil
		}
		stable[x] = true
		rhs := sys(x)
		if rhs == nil {
			if _, ok := sigma[x]; !ok {
				set(x, init(x))
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
		cur.x, cur.rhs, cur.evalErr = x, rhs, nil
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
		tmp := op.Apply(x, get(x), rhsVal)
		if evalErr != nil {
			return evalErr
		}
		if !l.Eq(tmp, get(x)) {
			w := infl[x]
			set(x, tmp)
			st.Updates++
			infl[x] = nil
			for _, y := range w {
				delete(stable, y)
			}
			for _, y := range w {
				if err := solve(y); err != nil {
					return err
				}
			}
		} else {
			set(x, tmp)
		}
		return nil
	}
	err := solve(x0)
	if err != nil {
		err = attachCheckpoint(err, capture())
	}
	st.Unknowns = len(sigma)
	return Result[X, D]{Values: sigma, Stats: st}, err
}

// slrState is the shared machinery of SLR and SLR⁺.
type slrState[X comparable, D any] struct {
	name string
	l    lattice.Lattice[D]
	op   Operator[X, D]
	init func(X) D
	band func(X) int
	wd   *watchdog[X]
	g    *evalGuard
	ck   *ckptSink
	st   Stats

	sigma  map[X]D
	dom    []X // discovery order, for deterministic snapshots
	infl   map[X]map[X]bool
	stable map[X]bool
	key    map[X]int64
	count  int
	q      *pq[X]
}

func newSLRState[X comparable, D any](name string, l lattice.Lattice[D], op Operator[X, D], init func(X) D, band func(X) int, cfg Config) *slrState[X, D] {
	wd := newWatchdog[X](cfg, nil)
	return &slrState[X, D]{
		name:   name,
		l:      l,
		op:     instrument(wd, l, op),
		init:   init,
		band:   band,
		wd:     wd,
		g:      newEvalGuard(cfg),
		ck:     newCkptSink(cfg),
		sigma:  make(map[X]D),
		infl:   make(map[X]map[X]bool),
		stable: make(map[X]bool),
		key:    make(map[X]int64),
		q:      newPQ[X](),
	}
}

// capture snapshots the current partial assignment for a warm restart.
func (s *slrState[X, D]) capture() *Checkpoint[X, D] {
	return snapshotLocal(s.name, s.dom, s.sigma, s.st)
}

// inDom reports whether y has been initialized.
func (s *slrState[X, D]) inDom(y X) bool {
	_, ok := s.key[y]
	return ok
}

// initVar is the paper's init: y joins dom with a key smaller than all
// previously assigned keys within its priority band, depends on itself,
// and starts at σ₀[y]. Unknowns in a higher band always carry larger keys
// than every unknown in a lower band, so they are re-evaluated only after
// all their lower-band readers have refreshed — the scheduling refinement
// needed for side-effected unknowns (see SLRPlusKeyed).
func (s *slrState[X, D]) initVar(y X) {
	band := 0
	if s.band != nil {
		band = s.band(y)
	}
	s.key[y] = bandKey(band, s.count)
	s.count++
	s.infl[y] = map[X]bool{y: true}
	s.sigma[y] = s.init(y)
	s.dom = append(s.dom, y)
}

// bandKey computes the priority key for the count-th discovered unknown of
// a band. The band occupies bits 32 and up, so it must be widened to int64
// before the shift: computed in int, band<<32 is zero on 32-bit platforms,
// which silently collapses every band to 0 and disables the scheduling
// refinement SLRPlusKeyed's termination argument relies on.
func bandKey(band, count int) int64 {
	return int64(band)<<32 - int64(count)
}

// destabilize removes the unknowns influenced by x from stable and
// schedules them, resetting infl[x] to {x}.
func (s *slrState[X, D]) destabilize(x X) {
	w := s.infl[x]
	s.infl[x] = map[X]bool{x: true}
	for y := range w {
		delete(s.stable, y)
		s.q.push(y, s.key[y])
	}
	if s.q.len() > s.st.MaxQueue {
		s.st.MaxQueue = s.q.len()
	}
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
func (s *slrState[X, D]) drain(bound int64, solve func(X, bool) error) error {
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
	var solve func(x X, drainAfter bool) error
	var cur struct {
		x       X
		rhs     eqn.RHS[X, D]
		evalErr error
	}
	eval := func(y X) D {
		if !s.inDom(y) {
			s.initVar(y)
			if cur.evalErr == nil {
				cur.evalErr = solve(y, true)
			}
		}
		s.infl[y][cur.x] = true
		return s.sigma[y]
	}
	thunk := func() D { return cur.rhs(eval) }
	solve = func(x X, drainAfter bool) error {
		if s.stable[x] {
			return nil
		}
		s.stable[x] = true
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
		cur.x, cur.rhs, cur.evalErr = x, rhs, nil
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
		tmp := s.op.Apply(x, s.sigma[x], rhsVal)
		if evalErr != nil {
			return evalErr
		}
		if !s.l.Eq(tmp, s.sigma[x]) {
			s.destabilize(x)
			s.sigma[x] = tmp
			s.st.Updates++
			if drainAfter {
				return s.drain(s.key[x], solve)
			}
		}
		return nil
	}
	s.initVar(x0)
	err := solve(x0, true)
	if err == nil {
		// The paper argues Q is empty here since x0 holds the largest key;
		// drain defensively so the result is a partial solution regardless.
		err = s.drain(s.key[x0], solve)
	}
	if err != nil {
		err = attachCheckpoint(err, s.capture())
	}
	s.st.Unknowns = len(s.sigma)
	return Result[X, D]{Values: s.sigma, Stats: s.st}, err
}

// sideKey identifies the auxiliary unknown (From, To) that the paper's SLR⁺
// creates for the side effect of From's right-hand side onto To.
type sideKey[X comparable] struct{ From, To X }

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
	contrib := make(map[sideKey[X]]D)
	contribSet := make(map[X][]X) // set[z]: contributors in first-seen order

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
	var solve func(x X, drainAfter bool) error
	var cur struct {
		x       X
		rhs     eqn.SideRHS[X, D]
		evalErr error
	}
	side := func(z X, d D) {
		x := cur.x
		if z == x {
			// A contract violation, not an evaluation fault: the typed
			// panic passes through the recover barrier unchanged.
			panic(contractViolation{msg: "solver: SLRPlus right-hand side side-effects its own unknown"})
		}
		p := sideKey[X]{From: x, To: z}
		old, seen := contrib[p]
		if !seen {
			old = l.Bottom()
		}
		if l.Eq(d, old) {
			return
		}
		contrib[p] = d
		if !seen {
			contribSet[z] = append(contribSet[z], x)
		}
		if s.inDom(z) {
			delete(s.stable, z)
			s.q.push(z, s.key[z])
			if s.q.len() > s.st.MaxQueue {
				s.st.MaxQueue = s.q.len()
			}
		} else {
			s.initVar(z)
			if err := solve(z, true); err != nil && sideErr == nil {
				sideErr = err
			}
		}
	}
	eval := func(y X) D {
		if !s.inDom(y) {
			s.initVar(y)
			if cur.evalErr == nil {
				cur.evalErr = solve(y, true)
			}
		}
		s.infl[y][cur.x] = true
		return s.sigma[y]
	}
	thunk := func() D { return cur.rhs(eval, side) }
	solve = func(x X, drainAfter bool) error {
		if s.stable[x] {
			return nil
		}
		s.stable[x] = true
		rhs := sys(x)
		if rhs == nil && len(contribSet[x]) == 0 {
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
			cur.x, cur.rhs, cur.evalErr = x, rhs, nil
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
		for _, z := range contribSet[x] {
			v = l.Join(v, contrib[sideKey[X]{From: z, To: x}])
		}
		tmp := s.op.Apply(x, s.sigma[x], v)
		if !s.l.Eq(tmp, s.sigma[x]) {
			s.destabilize(x)
			s.sigma[x] = tmp
			s.st.Updates++
			if drainAfter {
				return s.drain(s.key[x], solve)
			}
		}
		return nil
	}
	s.initVar(x0)
	err := solve(x0, true)
	for err == nil && !s.q.empty() {
		// Side effects may have scheduled unknowns after x0's last update;
		// keep draining until the queue is empty so the result is a partial
		// post-solution.
		err = s.drain(s.key[x0], solve)
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
	s.st.Unknowns = len(s.sigma)
	return Result[X, D]{Values: s.sigma, Stats: s.st}, err
}
