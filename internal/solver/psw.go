package solver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// PSW is the parallel structured worklist solver: SW (Fig. 4) stratified
// over the condensation of the system's static dependence graph and
// scheduled onto a bounded worker pool (Config.Workers).
//
// The decomposition: Tarjan condenses the dependence graph into SCCs, and
// stratify groups them into contiguous intervals of the linear order such
// that every dependence either stays inside a stratum or reads a strictly
// earlier one (for Bourdoncle/WTO orders each stratum is exactly one SCC;
// for orders that are not topologically consistent with the condensation,
// forward cross-SCC reads coarsen strata until the property holds). Each
// stratum is solved to stabilization by a sequential SW run restricted to
// its members, and a stratum is dispatched only once every stratum it reads
// has stabilized — so every evaluation sees exactly the values it would see
// in a sequential SW pass.
//
// Why the result is bit-identical to SW: sequential SW pops min-first, so
// it fully stabilizes each stratum before first popping a member of the
// next (changes only ever push the changed unknown and its readers, and
// readers never live in an earlier stratum). Restricted to one stratum,
// SW's pop sequence is therefore exactly the per-stratum run PSW performs:
// same initial queue, same priorities, same values read (external reads hit
// already-final strata), hence the same evaluations, the same updates, and
// the same solution — per unknown and per Stats.Evals — for any worker
// count and any update operator, ⊟ included. Incomparable strata share no
// unknowns and read disjoint, already-stable prefixes, so running them
// concurrently is safe; the scheduler's channel hand-offs order every write
// of a stratum before every read by its dependents.
//
// Like SW, PSW instantiated with ⊟ terminates for every finite monotonic
// system (Theorem 2 applies per stratum). The per-SCC stabilization premise
// is the same localized-iteration invariant exploited by Amato–Scozzari–
// Seidl–Apinis–Vojdani: all unknowns a component reads are stable when the
// component iterates.
//
// The update operator is shared by all workers and must be safe for
// concurrent use with Workers > 1: stateless operators (Op) are; the
// stateful Degrading operator is not and requires Workers == 1.
//
// On any abort — budget exhaustion, context cancellation, wall-clock
// deadline, the oscillation watchdog or a failed right-hand side — every
// worker stops at its next scheduling point, the stratum DAG drains without
// deadlock (completed strata release their successors, which the workers
// then suspend), and the first error is returned together with the partial
// assignment and a checkpoint recording, per stratum, whether it completed
// and which unknowns its suspended queue still held. The report's Evals is
// the run's final count, equal to Stats.Evals. Resuming skips
// completed strata entirely and restarts suspended ones from their captured
// queues, reproducing the uninterrupted run's Evals, Updates and assignment
// exactly (PSW totals are schedule-independent).
func PSW[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return psw(sys, l, op, init, cfg) })
}

// psw is one PSW run on the value store buildCore picks.
func psw[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	start := time.Now()
	vc, wd := buildCore(sys, l, op, init, cfg)
	defer vc.release()
	sh := vc.shape()
	order := sh.order
	n := len(order)
	adj := sys.DepGraph()
	dec := DecompositionOf(sys)
	strata := dec.strata

	r := &pswRun[X, D]{
		vc:     vc,
		sh:     sh,
		budget: int64(cfg.budget()),
		wd:     wd,
	}

	var st Stats
	st.Unknowns = n

	// done[si] is true for strata that stabilized — in a previous run (per
	// the resume checkpoint) or in this one. initQ[si], when non-nil, is the
	// queue a suspended stratum restarts from instead of its full range.
	done := make([]bool, len(strata))
	initQ := make([][]int, len(strata))
	if cp, err := resumeCheckpoint(cfg, "psw", sys); err != nil {
		return map[X]D{}, st, err
	} else if cp != nil {
		if len(cp.Strata) != len(strata) {
			return map[X]D{}, st, fmt.Errorf("%w: checkpoint has %d strata, system has %d", ErrBadCheckpoint, len(cp.Strata), len(strata))
		}
		if err := vc.restore(cp); err != nil {
			return map[X]D{}, st, err
		}
		for si, sc := range cp.Strata {
			switch {
			case sc.Done:
				done[si] = true
			case sc.Started:
				for _, i := range sc.Queue {
					if i < strata[si].lo || i > strata[si].hi {
						return map[X]D{}, st, fmt.Errorf("%w: queued index %d outside stratum %d", ErrBadCheckpoint, i, si)
					}
				}
				if len(sc.Queue) == 0 {
					done[si] = true
				} else {
					initQ[si] = sc.Queue
				}
			}
		}
		r.evals.Store(int64(cp.Evals))
		r.performed.Store(int64(cp.Evals))
		r.updates.Store(int64(cp.Updates))
		r.maxQueue.Store(int64(cp.MaxQueue))
		r.retries.Store(int64(cp.Retries))
		st.Rounds = cp.Rounds
	}

	workers := cfg.workers()
	if workers > len(strata) && len(strata) > 0 {
		workers = len(strata)
	}

	// Stratum DAG: preds counts how many distinct earlier strata a stratum
	// reads; succs lists the dependents to release on completion. Strata
	// already completed by a resumed run take no part in the DAG.
	preds := make([]int, len(strata))
	succs := make([][]int, len(strata))
	seen := make([]int, len(strata)) // last stratum that recorded an edge from us
	for i := range seen {
		seen[i] = -1
	}
	pending := 0
	for si, s := range strata {
		if done[si] {
			continue
		}
		pending++
		for i := s.lo; i <= s.hi; i++ {
			for _, j := range adj[i] {
				if sj := int(dec.stratumOf[j]); sj != si && !done[sj] && seen[sj] != si {
					seen[sj] = si
					preds[si]++
					succs[sj] = append(succs[sj], si)
				}
			}
		}
	}

	st.Workers = workers
	dec.observe(&st)

	if len(strata) == 0 {
		st.WallNs = time.Since(start).Nanoseconds()
		return map[X]D{}, st, nil
	}

	susp := make([][]int, len(strata))
	var firstErr error
	if pending > 0 {
		jobs := make(chan int, len(strata))
		doneCh := make(chan stratumResult, len(strata))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range jobs {
					suspended, err := r.runStratum(strata[si], initQ[si])
					doneCh <- stratumResult{si, suspended, err}
				}
			}()
		}
		for si, p := range preds {
			if p == 0 && !done[si] {
				jobs <- si
			}
		}
		for remaining := pending; remaining > 0; remaining-- {
			res := <-doneCh
			if res.err != nil && firstErr == nil {
				firstErr = res.err
				r.abort.Store(true)
			}
			if res.suspended == nil {
				done[res.si] = true
			} else {
				susp[res.si] = res.suspended
			}
			for _, t := range succs[res.si] {
				preds[t]--
				if preds[t] == 0 {
					// Dispatch even after an error: workers see the abort flag
					// and suspend immediately, which keeps the completion
					// accounting uniform (no stratum is ever lost).
					jobs <- t
				}
			}
		}
		close(jobs)
		wg.Wait()
	}

	st.Evals = int(r.performed.Load())
	st.Updates = int(r.updates.Load())
	st.Retries = int(r.retries.Load())
	st.MaxQueue = int(r.maxQueue.Load())
	st.WallNs = time.Since(start).Nanoseconds()

	sigma := vc.sigmaMap()
	if firstErr != nil {
		// The first abort's report was built while other workers still held
		// budget reservations; each has since performed its evaluation or
		// rolled it back. Only the final count is consistent with Stats.
		var ae *AbortError
		if errors.As(firstErr, &ae) {
			ae.Report.Evals = st.Evals
		}
		cp := vc.snapshot("psw", st)
		cp.Strata = make([]StratumCheckpoint, len(strata))
		for si := range strata {
			switch {
			case done[si]:
				cp.Strata[si] = StratumCheckpoint{Done: true}
			case susp[si] != nil:
				cp.Strata[si] = StratumCheckpoint{Started: true, Queue: susp[si]}
			}
		}
		firstErr = attachCheckpoint(firstErr, cp)
	}
	return sigma, st, firstErr
}

// stratumResult reports one dispatched stratum back to the scheduler:
// suspended is nil when the stratum stabilized, and otherwise holds the
// order indices still queued when the run was interrupted.
type stratumResult struct {
	si        int
	suspended []int
	err       error
}

// pswRun is the shared state of one PSW invocation. The core's assignment
// (boxed values or raw words) is indexed by order position; concurrent
// strata write disjoint index ranges and read only ranges whose strata
// completed before they were dispatched.
type pswRun[X comparable, D any] struct {
	vc execCore[X, D]
	sh *denseShape[X, D]

	budget int64
	wd     *watchdog[X]
	// evals counts budget reservations: a worker reserves its slot before
	// the watchdog check and rolls it back if the evaluation does not
	// happen, so at any instant it may include other workers' in-flight
	// reservations. performed counts completed evaluations only; it is what
	// Stats and the abort report carry.
	evals     atomic.Int64
	performed atomic.Int64
	updates   atomic.Int64
	retries   atomic.Int64
	maxQueue  atomic.Int64
	abort     atomic.Bool
}

// runStratum runs SW restricted to the unknowns of one stratum, with the
// global order indices as priorities — the exact evaluation sequence
// sequential SW performs on this index range. initQ, when non-nil, seeds
// the queue from a resumed checkpoint instead of the full index range.
// It returns the sorted indices still queued if the run was interrupted
// (nil when the stratum stabilized) and the abort error, if any.
func (r *pswRun[X, D]) runStratum(s stratum, initQ []int) ([]int, error) {
	q := newBucketQueue(s.lo, s.hi)
	if initQ == nil {
		for i := s.lo; i <= s.hi; i++ {
			q.push(i)
		}
	} else {
		for _, i := range initQ {
			q.push(i)
		}
	}
	// Each stratum gets its own step function: its evaluation scratch is
	// per-run mutable state, while the shared assignment is safe to touch —
	// concurrent strata write disjoint ranges and read only stable ones.
	step := r.vc.stepper(false)
	// suspend captures the still-queued indices in ascending order; the
	// result is never nil, which is how the scheduler tells an interrupted
	// stratum from a stabilized one.
	suspend := func() []int { return q.indices() }
	localMax := int64(q.len())
	for !q.empty() {
		if r.abort.Load() {
			return suspend(), nil
		}
		n := r.evals.Add(1)
		if n > r.budget {
			// A bounded budget implies an armed watchdog. The scheduler
			// rewrites the report's count once every worker has stopped.
			return suspend(), r.wd.abort(AbortBudget, int(r.budget))
		}
		if err := r.wd.check(int(r.performed.Load())); err != nil {
			// The reserved slot was never used — return it to the budget.
			r.evals.Add(-1)
			return suspend(), err
		}
		i := q.popMin()
		_, changed, attempts, ee := step(i, true)
		if attempts > 1 {
			r.retries.Add(int64(attempts - 1))
		}
		if ee != nil {
			// The failed evaluation never happened: roll the reservation back
			// and keep x scheduled so the checkpoint re-evaluates it.
			r.evals.Add(-1)
			q.push(i)
			return suspend(), r.wd.failEval(ee, int(r.performed.Load()))
		}
		r.performed.Add(1)
		if changed {
			r.updates.Add(1)
			q.push(i)
			for _, j := range r.sh.infl(i) {
				if int(j) >= s.lo && int(j) <= s.hi {
					q.push(int(j))
				}
			}
			if int64(q.len()) > localMax {
				localMax = int64(q.len())
			}
		}
	}
	for {
		cur := r.maxQueue.Load()
		if localMax <= cur || r.maxQueue.CompareAndSwap(cur, localMax) {
			return nil, nil
		}
	}
}
