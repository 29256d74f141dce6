package solver

import (
	"errors"
	"fmt"
	"slices"
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
// its members, and a stratum starts only once every stratum it reads has
// stabilized — so every evaluation sees exactly the values it would see in
// a sequential SW pass.
//
// Scheduling a stratum costs a constant amount of work beyond its own
// iteration and its DAG edges, and allocates nothing. The stratum DAG
// (predecessor counts and successor rows) is memoized with the
// decomposition, and a run copies only the counts. Each worker owns one
// step function and one bucket queue over the whole index range for the
// run. A worker runs the first stratum its completion releases itself,
// inline, and puts only further ones on the shared ready list. At
// Workers = 1 no goroutine starts and the strata run in index order, a
// topological order of the DAG.
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
// concurrently is safe; the ready list's mutex orders every write of a
// stratum before every read by its dependents on another worker.
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
// worker stops at its next scheduling point and no worker starts another
// stratum. The first error is returned together with the partial
// assignment and a checkpoint recording, per stratum, whether it
// completed, which unknowns a suspended stratum still had queued, or that
// it never started (a fresh row, which resumes from its full range). The
// report's Evals is the run's final count, equal to Stats.Evals. Resuming
// skips completed strata entirely and restarts suspended ones from their
// captured queues, reproducing the uninterrupted run's Evals, Updates,
// MaxQueue and assignment exactly (PSW totals are schedule-independent).
func PSW[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) { return psw(sys, l, op, init, cfg) })
}

// psw is one PSW run on the value store buildCore picks.
func psw[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	start := time.Now()
	vc, wd := buildCore(sys, l, op, init, cfg, false)
	defer vc.release()
	return pswLoop(vc, wd, cfg, start)
}

// pswLoop is PSW's run over a built core, shared by psw and the
// incremental engine's live store (Live); start is when the run began, for
// Stats.WallNs.
func pswLoop[X comparable, D any](vc execCore[X, D], wd *watchdog[X], cfg Config, start time.Time) (map[X]D, Stats, error) {
	sc := vc.scope()
	n := sc.n
	dec := sc.decomposition()
	strata := dec.strata

	r := &pswRun[X, D]{poolRun: poolRun[X, D]{
		vc:     vc,
		sc:     sc,
		strata: strata,
		budget: int64(cfg.budget()),
		wd:     wd,
	}}

	var st Stats
	st.Unknowns = n
	if err := r.resume(cfg, "psw", &st); err != nil {
		return map[X]D{}, st, err
	}

	workers := cfg.workers()
	if workers > len(strata) && len(strata) > 0 {
		workers = len(strata)
	}
	st.Workers = workers
	dec.observe(&st)

	if len(strata) == 0 {
		st.WallNs = time.Since(start).Nanoseconds()
		return map[X]D{}, st, nil
	}

	if workers == 1 {
		r.serial()
	} else {
		r.parallel(dec.stratumDAG(), workers)
	}

	st.WallNs = time.Since(start).Nanoseconds()
	sigma, err := r.settle("psw", &st)
	return sigma, st, err
}

// poolRun is the state PSW and CPW share across their worker pool: the
// value store, the per-stratum progress, the budget envelope, the counters
// and the first abort error.
type poolRun[X comparable, D any] struct {
	vc     execCore[X, D]
	sc     *scope[X, D]
	strata []stratum

	// done[si] reports that stratum si has stabilized, in this run or in
	// the one it resumes; only the worker running a stratum writes its
	// slot. resumed[si], when present, is the queue stratum si restarts
	// from instead of its full range; the map is read-only, and nil unless
	// the run resumes a checkpoint with a suspended stratum. suspended
	// lists the strata this run interrupted, with the indices each still
	// had queued; it is guarded by errMu. settle turns the three into the
	// checkpoint's rows.
	done      []bool
	resumed   map[int][]int
	suspended []stratumQueue

	budget int64
	wd     *watchdog[X]
	// evals counts budget reservations: a worker reserves its slot before
	// the watchdog check and rolls it back if the evaluation does not
	// happen, so at any instant it may include other workers' in-flight
	// reservations. It is kept only while a bound is armed (see reserve).
	// performed counts completed evaluations only; it is what Stats and the
	// abort report carry. Each worker counts its own evaluations (PSW: and
	// updates and its queue high-water mark) and adds them when it stops,
	// so no counter is written by every worker on every evaluation of an
	// unbounded run.
	evals     atomic.Int64
	performed atomic.Int64
	updates   atomic.Int64
	retries   atomic.Int64
	maxQueue  atomic.Int64
	abort     atomic.Bool

	errMu    sync.Mutex
	firstErr error
}

// stratumQueue is an interrupted stratum and the order indices it still
// had queued, ascending.
type stratumQueue struct {
	si    int
	queue []int
}

// resume sizes the per-stratum progress and applies the PSW or CPW
// checkpoint cfg.Resume holds, if any: it restores the assignment, the
// counters, st.Rounds, and which strata stabilized or restart from a
// queue.
func (r *poolRun[X, D]) resume(cfg Config, name string, st *Stats) error {
	r.done = make([]bool, len(r.strata))
	cp, err := resumeCheckpoint(cfg, name, r.sc)
	if err != nil || cp == nil {
		return err
	}
	if len(cp.Strata) != len(r.strata) {
		return fmt.Errorf("%w: checkpoint has %d strata, system has %d", ErrBadCheckpoint, len(cp.Strata), len(r.strata))
	}
	if err := r.vc.restore(cp); err != nil {
		return err
	}
	for si, sc := range cp.Strata {
		switch {
		case sc.Done:
			r.done[si] = true
		case sc.Started:
			s := r.strata[si]
			for _, i := range sc.Queue {
				if i < s.lo || i > s.hi {
					return fmt.Errorf("%w: queued index %d outside stratum %d", ErrBadCheckpoint, i, si)
				}
			}
			if len(sc.Queue) == 0 {
				r.done[si] = true
				continue
			}
			if r.resumed == nil {
				r.resumed = make(map[int][]int)
			}
			r.resumed[si] = sc.Queue
		}
	}
	r.evals.Store(int64(cp.Evals))
	r.performed.Store(int64(cp.Evals))
	r.updates.Store(int64(cp.Updates))
	r.maxQueue.Store(int64(cp.MaxQueue))
	r.retries.Store(int64(cp.Retries))
	st.Rounds = cp.Rounds
	return nil
}

// reserve takes one evaluation from the budget and consults the watchdog
// before a worker evaluates. The abort reports of reserve and account
// carry a provisional count, which settle rewrites once every worker has
// stopped.
func (r *poolRun[X, D]) reserve() error {
	if r.wd == nil {
		// No bound is armed — a bounded budget implies a watchdog — so no
		// evaluation can be refused, and the counter every worker would
		// write on every evaluation is left alone.
		return nil
	}
	n := r.evals.Add(1)
	if n > r.budget {
		return r.wd.abort(AbortBudget, int(r.budget))
	}
	if err := r.wd.check(int(n - 1)); err != nil {
		// The reserved slot was never used — return it to the budget.
		r.evals.Add(-1)
		return err
	}
	return nil
}

// account records one reserved step's retries and, when its evaluation
// failed, returns the abort error. The failed evaluation never happened,
// so its reservation goes back to the budget.
func (r *poolRun[X, D]) account(attempts int, ee *EvalError) error {
	if attempts > 1 {
		r.retries.Add(int64(attempts - 1))
	}
	if ee == nil {
		return nil
	}
	return r.wd.failEval(ee, int(r.evals.Add(-1)))
}

// fail records the first abort error and raises the abort flag every worker
// polls at its next scheduling point.
func (r *poolRun[X, D]) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.abort.Store(true)
}

// suspend records that stratum si stopped before stabilizing, with queue
// still pending.
func (r *poolRun[X, D]) suspend(si int, queue []int) {
	r.errMu.Lock()
	r.suspended = append(r.suspended, stratumQueue{si, queue})
	r.errMu.Unlock()
}

// observeQueue raises the run's MaxQueue to a queue high-water mark.
func (r *poolRun[X, D]) observeQueue(high int64) {
	for {
		cur := r.maxQueue.Load()
		if high <= cur || r.maxQueue.CompareAndSwap(cur, high) {
			return
		}
	}
}

// settle ends a run once every worker has stopped: it copies the counters
// into st and renders σ. After an abort it rewrites the report's Evals to
// the final count — the first abort's report was built while other
// workers still held budget reservations, each since performed or rolled
// back — and attaches the checkpoint, which records per stratum whether it
// stabilized, which indices a started one still had queued, and otherwise
// that it starts fresh.
func (r *poolRun[X, D]) settle(name string, st *Stats) (map[X]D, error) {
	st.Evals = int(r.performed.Load())
	st.Updates = int(r.updates.Load())
	st.Retries = int(r.retries.Load())
	st.MaxQueue = int(r.maxQueue.Load())
	sigma := r.vc.sigmaMap()
	err := r.firstErr
	if err == nil {
		return sigma, nil
	}
	var ae *AbortError
	if errors.As(err, &ae) {
		ae.Report.Evals = st.Evals
	}
	cp := r.vc.snapshot(name, *st)
	cp.Strata = make([]StratumCheckpoint, len(r.strata))
	for si := range cp.Strata {
		switch {
		case r.done[si]:
			cp.Strata[si] = StratumCheckpoint{Done: true}
		case r.resumed[si] != nil:
			cp.Strata[si] = StratumCheckpoint{Started: true, Queue: r.resumed[si]}
		}
	}
	for _, s := range r.suspended {
		cp.Strata[s.si] = StratumCheckpoint{Started: true, Queue: s.queue}
	}
	return sigma, attachCheckpoint(err, cp)
}

// pswRun is the state of one PSW invocation. The core's assignment (boxed
// values or raw words) is indexed by order position; concurrent strata
// write disjoint index ranges and read only ranges whose strata stabilized
// before they started.
type pswRun[X comparable, D any] struct {
	poolRun[X, D]
	pool pswPool
}

// pswWorker is what one PSW worker owns for the whole run: a step function,
// whose evaluation scratch no other worker touches, a bucket queue over the
// whole index range, which every stratum that stabilizes leaves empty, and
// its counts, which it adds to the run's when it stops.
type pswWorker struct {
	step                     func(i int, accel bool) (Phase, bool, int, *EvalError)
	q                        bucketQueue
	performed, updates, high int64
}

func (r *pswRun[X, D]) newWorker() *pswWorker {
	return &pswWorker{step: r.vc.stepper(false), q: *newBucketQueue(0, r.sc.n-1)}
}

// stop adds a worker's counts to the run's.
func (r *pswRun[X, D]) stop(w *pswWorker) {
	r.performed.Add(w.performed)
	r.updates.Add(w.updates)
	r.observeQueue(w.high)
}

// serial runs the strata on the calling goroutine in index order, which is
// a topological order of the stratum DAG (stratify's guarantee), so it
// needs no schedule. It stops at the first interrupted stratum. parallel
// with one worker computes the same result but measured about a fifth
// slower, warm or cold, on BenchmarkPSW's N = 4096 system (2,236 strata,
// 2-CPU Xeon).
func (r *pswRun[X, D]) serial() {
	w := r.newWorker()
	defer r.stop(w)
	for si := range r.strata {
		if !r.done[si] && !r.runStratum(w, si) {
			return
		}
	}
}

// pswPool is the schedule PSW's workers share when Workers > 1. mu guards
// every field but wg, which joins the goroutines.
type pswPool struct {
	mu   sync.Mutex
	cond sync.Cond
	// preds counts, per stratum, the strata it reads that have not
	// stabilized yet; a stratum is ready when its count reaches zero.
	preds []int32
	// ready[head:] are the ready strata no worker has taken yet, oldest
	// first. Every stratum enters ready at most once, so the slice never
	// grows past its initial capacity.
	ready []int32
	head  int
	left  int // strata not yet stabilized
	idle  int // workers waiting on cond

	wg sync.WaitGroup
}

// parallel runs the strata on a pool of workers: the calling goroutine and
// workers-1 goroutines, each with its own pswWorker for the whole run. The
// stratum DAG's predecessor counts are the only per-run copy of it; strata
// a resumed run already finished release their readers up front.
func (r *pswRun[X, D]) parallel(g *stratumDAG, workers int) {
	p := &r.pool
	p.cond.L = &p.mu
	p.preds = slices.Clone(g.preds)
	p.ready = make([]int32, 0, len(r.strata))
	for si, done := range r.done {
		if done {
			for _, t := range g.succs(si) {
				p.preds[t]--
			}
		}
	}
	for si, done := range r.done {
		if !done {
			p.left++
			if p.preds[si] == 0 {
				p.ready = append(p.ready, int32(si))
			}
		}
	}
	for k := 1; k < workers; k++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			r.work(g)
		}()
	}
	r.work(g)
	p.wg.Wait()
}

// work is one worker's loop over the shared schedule. Running a stratum
// releases the strata that read it: the worker keeps the first one that
// becomes ready and runs it next, inline, and puts only further ones on
// the ready list, waking an idle worker for each. The worker stops once
// every stratum has stabilized or the run aborts; after an abort no worker
// starts a stratum, so the ones never started keep their fresh (or
// resumed) checkpoint rows.
func (r *pswRun[X, D]) work(g *stratumDAG) {
	w := r.newWorker()
	defer r.stop(w)
	p := &r.pool
	next := -1
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if next < 0 {
			for p.head == len(p.ready) && p.left > 0 && !r.abort.Load() {
				p.idle++
				p.cond.Wait()
				p.idle--
			}
			if p.head == len(p.ready) || r.abort.Load() {
				return
			}
			next = int(p.ready[p.head])
			p.head++
		}
		si := next
		next = -1
		p.mu.Unlock()
		ok := r.runStratum(w, si)
		p.mu.Lock()
		if !ok {
			// Interrupted: the abort flag is up. Wake the idle workers so
			// they see it and stop.
			p.cond.Broadcast()
			return
		}
		p.left--
		for _, t := range g.succs(si) {
			if p.preds[t]--; p.preds[t] == 0 {
				if next < 0 {
					next = int(t)
				} else {
					p.ready = append(p.ready, t)
					if p.idle > 0 {
						p.cond.Signal()
					}
				}
			}
		}
		if p.left == 0 {
			p.cond.Broadcast()
		}
		if r.abort.Load() {
			return
		}
	}
}

// runStratum runs SW restricted to the unknowns of stratum si, with the
// global order indices as priorities — the exact evaluation sequence
// sequential SW performs on this index range — starting from the stratum's
// resumed queue if it has one and from its full range otherwise. It
// reports whether the stratum stabilized and records the outcome in done
// or, through suspend, in the checkpoint's rows. The stratum's queue
// high-water mark counts toward MaxQueue on every exit, so an interrupted
// stratum's mark reaches the checkpoint and a resumed run reports the
// uninterrupted run's MaxQueue.
func (r *pswRun[X, D]) runStratum(w *pswWorker, si int) bool {
	s, q := r.strata[si], &w.q
	if initQ := r.resumed[si]; initQ == nil {
		for i := s.lo; i <= s.hi; i++ {
			q.push(i)
		}
	} else {
		for _, i := range initQ {
			q.push(i)
		}
	}
	high := q.len()
	var err error
	for !q.empty() {
		if r.abort.Load() {
			break
		}
		if err = r.reserve(); err != nil {
			break
		}
		i := q.popMin()
		_, changed, attempts, ee := w.step(i, true)
		if err = r.account(attempts, ee); err != nil {
			// Keep x scheduled so the checkpoint re-evaluates it.
			q.push(i)
			break
		}
		w.performed++
		if changed {
			w.updates++
			q.push(i)
			for _, j := range r.sc.infl(i) {
				if int(j) >= s.lo && int(j) <= s.hi {
					q.push(int(j))
				}
			}
			high = max(high, q.len())
		}
	}
	w.high = max(w.high, int64(high))
	if q.empty() {
		r.done[si] = true
		return true
	}
	// Interrupted: by this worker's abort error, or by another worker's
	// (err == nil), whose flag is already up.
	r.suspend(si, q.indices())
	if err != nil {
		r.fail(err)
	}
	return false
}
