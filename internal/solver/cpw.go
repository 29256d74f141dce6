package solver

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// CPW is the chaotic parallel warrowing solver: PSW's SCC stratification
// with the sequential per-stratum SW loop replaced by N asynchronous
// workers iterating the SAME stratum concurrently. It exists for the regime
// PSW cannot touch — one giant SCC is one stratum, so stratum-level
// parallelism degenerates to a serial run no matter how many workers the
// pool has (DESIGN.md §15).
//
// The license for chaotic order is the paper's central result: the ⊟
// (warrowing) combination of ∇ and Δ makes fixpoint iteration terminate for
// arbitrary — even non-monotonic — systems regardless of the order in which
// unknowns are updated. CPW leans on exactly that robustness: within a
// stratum, workers claim dirty unknowns from a sharded worklist in whatever
// order the scheduler produces, every write goes through the update
// operator at that unknown, and iteration runs until the stratum-wide dirty
// count drains.
//
// Concurrency discipline, bottom to top:
//
//   - Claim states. Each unknown carries an atomic state — idle, queued,
//     running, runningDirty — and only the transition queued→running admits
//     evaluation, so two workers NEVER evaluate the same unknown
//     concurrently. An unknown marked dirty mid-evaluation moves to
//     runningDirty (counted in Stats.Contention) and is re-queued by its
//     owner when the evaluation completes, which closes the lost-wakeup
//     window: under Go's sequentially-consistent atomics, a marker that
//     finds the state queued or running has its value-write ordered before
//     the next evaluation's reads, and a marker that finds idle re-queues
//     the unknown itself.
//   - σ reads are racy but atomic. Values live in Run's shared store
//     (boxed: an atomic pointer to an immutable value; unboxed: atomic
//     words under a per-unknown seqlock for multi-word strides, see
//     valuerep.go). A worker may read a neighbor mid-update and see the OLD
//     value — that is the chaos warrowing tolerates — but never a torn one.
//   - Writes are owned. Only the running claim-holder stores to a slot, so
//     the read-combine-write in the step function needs no CAS loop.
//
// What CPW promises — and deliberately does not. The assignment it returns
// is certified-quality (post-solution checking via internal/certify is the
// gate everywhere in this repo: diffsolve column, chaos harness, serving
// tier), but it is NOT bit-pinned to SW: with chaotic scheduling the
// warrowing trajectory, and with it Evals, Updates, MaxQueue and even the
// final fixpoint on non-monotonic systems, are schedule-dependent. Callers
// that need SW's exact numbers use SW or PSW; callers that need a certified
// solution at intra-SCC parallel speed use CPW. DESIGN.md §15 spells out
// the full claim ladder.
//
// Termination inherits SW's posture, not its theorem: per-unknown warrowing
// still forces every individual trajectory through a widening ascent and a
// narrowing descent, but the bounded-flip argument is per schedule, so CPW
// runs under the same watchdog/budget envelope as every other solver and
// aborts with a resumable checkpoint rather than diverging silently.
//
// Aborts quiesce-and-drain: every worker stops at its next scheduling
// point, the pool joins, and the still-dirty indices of the aborted stratum
// are captured into a warm checkpoint (solver name "cpw") in the same
// per-stratum format PSW uses — which is what lets eqsolved preempt a CPW
// solve on its quantum and resume it later, on any core. As in PSW, the
// report's Evals is the run's final count of performed evaluations, equal
// to Stats.Evals and to the checkpoint's. Because totals are
// schedule-dependent, a resumed run reproduces a certified solution, not
// the uninterrupted run's exact Stats.
//
// Like PSW, the update operator is shared by all workers and must be safe
// for concurrent use with Workers > 1: stateless operators (Op, WarrowOp
// and the other structured operators) are; the stateful Degrading operator
// is not and requires Workers == 1.
func CPW[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	return Run("cpw", sys, l, op, init, cfg)
}

// cpwLoop is CPW's run over a built core on the shared store; start is
// when the run began, for Stats.WallNs.
func cpwLoop[X comparable, D any](vc execCore[X, D], wd *watchdog[X], cfg Config, start time.Time) (Stats, error) {
	sc := vc.scope()
	n := sc.n
	dec := sc.decomposition()
	strata := dec.strata

	workers := cfg.workers()

	r := &cpwRun[X, D]{
		poolRun: poolRun[X, D]{
			vc:     vc,
			sc:     sc,
			strata: strata,
			budget: int64(cfg.budget()),
			wd:     wd,
		},
		steps:       make([]func(int, bool) (Phase, bool, int, *EvalError), workers),
		state:       make([]atomic.Uint32, n),
		workerEvals: make([]int64, workers),
	}

	var st Stats
	st.Unknowns = n
	if err := r.resume(cfg, "cpw", &st); err != nil {
		return st, err
	}

	st.Workers = workers
	dec.observe(&st)

	// Strata are solved one after another in index order — stratify
	// guarantees every dependence stays inside a stratum or reads a
	// strictly earlier one, so index order is a topological order of the
	// stratum DAG. CPW's parallelism is deliberately INTRA-stratum only:
	// the workloads it targets are dominated by one giant SCC, where
	// PSW-style stratum-level concurrency has nothing to schedule. One
	// shard queue over the whole index range serves every stratum; each
	// stratum that stabilizes leaves it empty. On an abort the loop stops
	// and later strata keep their fresh (or resumed) checkpoint rows, as in
	// PSW.
	sq := newShardQueue(0, n-1, workers)
	for si := range strata {
		if !r.done[si] && !r.runStratum(si, workers, sq) {
			break
		}
	}
	// MaxQueue is the maximum over the shards' high-water marks (see
	// shardQueue — the sum would re-count a stratum). The queue is empty
	// between strata, so the run-wide marks are the per-stratum maxima,
	// merged across strata by maximum like PSW's per-stratum queues.
	r.observeQueue(int64(sq.maxShardHigh()))

	st.Contention = int(r.contention.Load())
	for _, we := range r.workerEvals {
		st.WorkerEvals.Observe(int(we))
	}
	st.WallNs = time.Since(start).Nanoseconds()
	return st, r.settle("cpw", &st)
}

// Claim states of one unknown. Only queued→running admits evaluation;
// running→runningDirty is the dirty-while-running collision markDirty
// resolves by making the owner re-queue.
const (
	cpwIdle uint32 = iota
	cpwQueued
	cpwRunning
	cpwRunningDirty
)

// cpwRun is the shared state of one CPW invocation.
type cpwRun[X comparable, D any] struct {
	poolRun[X, D]

	// steps holds worker w's step function, built once per run: strata run
	// one after another, so no two goroutines ever use one step function's
	// evaluation scratch at once. Worker w builds its own on first use, in
	// the goroutine that runs it (worker 0 is the caller), which keeps the
	// buffers the workers write on every evaluation apart in memory; built
	// by one goroutine, they can share cache lines.
	steps []func(i int, accel bool) (Phase, bool, int, *EvalError)

	// state holds the per-unknown claim machine; pending counts unknowns
	// whose state is not idle and is the stratum-wide termination criterion
	// (the dirty count that must drain).
	state   []atomic.Uint32
	pending atomic.Int64

	contention atomic.Int64

	// workerEvals accumulates per-worker evaluation counts across the
	// sequentially-run strata; only worker w's goroutine writes slot w.
	workerEvals []int64

	// wg joins the goroutines working on the running stratum.
	wg sync.WaitGroup
}

// runStratum iterates stratum si chaotically to quiescence on the run's
// shard queue sq. The caller works as worker 0 beside one goroutine per
// further worker, so a stratum that only one worker can take — one
// unknown, or Workers = 1 — starts no goroutine. It reports whether the
// stratum stabilized and records the outcome in done or, through suspend,
// in the checkpoint's rows.
func (r *cpwRun[X, D]) runStratum(si, workers int, sq *shardQueue) bool {
	s := r.strata[si]
	if size := s.hi - s.lo + 1; workers > size {
		workers = size
	}
	seeded := 0
	seed := func(i int) {
		r.state[i].Store(cpwQueued)
		sq.push(i)
		seeded++
	}
	if initQ := r.resumed[si]; initQ == nil {
		for i := s.lo; i <= s.hi; i++ {
			seed(i)
		}
	} else {
		for _, i := range initQ {
			seed(i)
		}
	}
	r.pending.Store(int64(seeded))

	for w := 1; w < workers; w++ {
		r.wg.Add(1)
		go func(w int) {
			defer r.wg.Done()
			r.work(w, s, sq)
		}(w)
	}
	r.work(0, s, sq)
	r.wg.Wait()

	if !r.abort.Load() {
		r.done[si] = true
		return true
	}
	// Quiesce-and-drain: the workers have stopped and every in-flight
	// evaluation has settled its claim, so the non-idle states ARE the
	// dirty set the resumed run must re-iterate.
	suspended := make([]int, 0)
	for i := s.lo; i <= s.hi; i++ {
		if r.state[i].Load() != cpwIdle {
			suspended = append(suspended, i)
		}
	}
	r.suspend(si, suspended)
	return false
}

// work is one worker's loop: claim a dirty unknown, evaluate it under the
// budget/watchdog envelope, propagate the change, settle the claim; exit
// when the stratum's dirty count drains or the run aborts.
func (r *cpwRun[X, D]) work(w int, s stratum, sq *shardQueue) {
	if r.steps[w] == nil {
		r.steps[w] = r.vc.stepper(false)
	}
	step := r.steps[w]
	local := int64(0)
	defer func() {
		r.workerEvals[w] += local
		r.performed.Add(local)
	}()
	for {
		if r.abort.Load() {
			return
		}
		if r.pending.Load() == 0 {
			return
		}
		i, ok := sq.pop(w)
		if !ok {
			// pending > 0 but nothing poppable: some claim is mid-flight on
			// another worker. Yield rather than spin hot.
			runtime.Gosched()
			continue
		}
		r.state[i].Store(cpwRunning)
		if err := r.reserve(); err != nil {
			r.requeue(i, sq)
			r.fail(err)
			return
		}
		_, changed, attempts, ee := step(i, true)
		if err := r.account(attempts, ee); err != nil {
			// Keep i dirty so the checkpoint re-evaluates it.
			r.requeue(i, sq)
			r.fail(err)
			return
		}
		local++
		if changed {
			r.updates.Add(1)
			for _, j := range r.sc.infl(i) {
				if int(j) >= s.lo && int(j) <= s.hi && int(j) != i {
					r.markDirty(int(j), sq)
				}
			}
			// Re-queue i itself, like SW: an unknown's final evaluation must
			// be a stable one, or certification of its slot would hinge on a
			// neighbor happening to re-dirty it.
			r.requeue(i, sq)
			continue
		}
		if !r.state[i].CompareAndSwap(cpwRunning, cpwIdle) {
			// Marked dirty mid-evaluation (runningDirty): the marker's write
			// may not have been visible to the evaluation just performed, so
			// the owner re-queues on its behalf.
			r.requeue(i, sq)
			continue
		}
		r.pending.Add(-1)
	}
}

// requeue moves an unknown the caller holds the running claim on (or just
// seeded) back to queued and stacks it. pending is NOT incremented: the
// unknown never left the dirty set.
func (r *cpwRun[X, D]) requeue(i int, sq *shardQueue) {
	r.state[i].Store(cpwQueued)
	sq.push(i)
}

// markDirty is the propagation edge of the claim machine: called by the
// writer of a changed value for each in-stratum reader j. Every
// interleaving either queues j or defers to a claim-holder that will:
// idle→queued queues it here (pending grows); queued means it is already
// stacked and its next evaluation is ordered after our write; running flips
// to runningDirty so the owner re-queues it; runningDirty needs nothing.
func (r *cpwRun[X, D]) markDirty(j int, sq *shardQueue) {
	for {
		switch r.state[j].Load() {
		case cpwIdle:
			if r.state[j].CompareAndSwap(cpwIdle, cpwQueued) {
				r.pending.Add(1)
				sq.push(j)
				return
			}
		case cpwQueued:
			return
		case cpwRunning:
			if r.state[j].CompareAndSwap(cpwRunning, cpwRunningDirty) {
				r.contention.Add(1)
				return
			}
		default: // cpwRunningDirty
			return
		}
	}
}
