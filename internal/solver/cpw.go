package solver

import (
	"fmt"
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
// pool has (ROADMAP, "Million-unknown interprocedural scale").
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
//   - σ reads are racy but atomic. Values live in atomic slots (boxed: an
//     atomic pointer to an immutable value; unboxed: atomic words under a
//     per-unknown seqlock for multi-word strides, see atomicWords). A
//     worker may read a neighbor mid-update and see the OLD value — that is
//     the chaos warrowing tolerates — but never a torn one.
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
// solve on its quantum and resume it later, on any core. Because totals are
// schedule-dependent, a resumed run reproduces a certified solution, not
// the uninterrupted run's exact Stats.
//
// Like PSW, the update operator is shared by all workers and must be safe
// for concurrent use with Workers > 1: stateless operators (Op, WarrowOp
// and the other structured operators) are; the stateful Degrading operator
// is not and requires Workers == 1.
func CPW[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (map[X]D, Stats, error) {
	start := time.Now()
	en, wd := buildCPWEngine(sys, l, op, init, cfg)
	sh := en.shape()
	n := len(sh.order)
	dec := DecompositionOf(sys)
	strata := dec.strata

	workers := cfg.workers()

	r := &cpwRun[X, D]{
		en:          en,
		sh:          sh,
		budget:      int64(cfg.budget()),
		wd:          wd,
		state:       make([]atomic.Uint32, n),
		workerEvals: make([]int64, workers),
	}

	var st Stats
	st.Unknowns = n

	// done[si] is true for strata that stabilized — in a previous run (per
	// the resume checkpoint) or in this one. initQ[si], when non-nil, is the
	// queue a suspended stratum restarts from instead of its full range.
	done := make([]bool, len(strata))
	initQ := make([][]int, len(strata))
	if cp, err := resumeCheckpoint[X, D](cfg, "cpw", Fingerprint(sys)); err != nil {
		return map[X]D{}, st, err
	} else if cp != nil {
		if len(cp.Strata) != len(strata) {
			return map[X]D{}, st, fmt.Errorf("%w: checkpoint has %d strata, system has %d", ErrBadCheckpoint, len(cp.Strata), len(strata))
		}
		en.restore(cp)
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
		r.updates.Store(int64(cp.Updates))
		r.maxQueue.Store(int64(cp.MaxQueue))
		r.retries.Store(int64(cp.Retries))
		st.Rounds = cp.Rounds
	}

	st.Workers = workers
	dec.observe(&st)

	// Strata are solved one after another in index order — stratify
	// guarantees every dependence stays inside a stratum or reads a
	// strictly earlier one, so index order is a topological order of the
	// stratum DAG. CPW's parallelism is deliberately INTRA-stratum only:
	// the workloads it targets are dominated by one giant SCC, where
	// PSW-style stratum-level concurrency has nothing to schedule. On an
	// abort the loop stops and later strata stay fresh (zero-value rows in
	// the checkpoint), exactly like PSW strata that were never dispatched.
	susp := make([][]int, len(strata))
	var firstErr error
	for si := range strata {
		if done[si] {
			continue
		}
		suspended, err := r.runStratum(strata[si], initQ[si], workers)
		if err != nil {
			firstErr = err
			susp[si] = suspended
			break
		}
		done[si] = true
	}

	st.Evals = int(r.evals.Load())
	if firstErr != nil && int64(st.Evals) > r.budget {
		// Several workers can trip the shared budget at once; report the
		// budget itself, matching SW's "stopped at exactly MaxEvals".
		st.Evals = int(r.budget)
	}
	st.Updates = int(r.updates.Load())
	st.Retries = int(r.retries.Load())
	st.MaxQueue = int(r.maxQueue.Load())
	st.Contention = int(r.contention.Load())
	for _, we := range r.workerEvals {
		st.WorkerEvals.Observe(int(we))
	}
	st.WallNs = time.Since(start).Nanoseconds()

	sigma := en.sigmaMap()
	if firstErr != nil {
		cp := en.snapshot("cpw", st)
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
	en cpwEngine[X, D]
	sh *denseShape[X, D]

	budget int64
	wd     *watchdog[X]

	// state holds the per-unknown claim machine; pending counts unknowns
	// whose state is not idle and is the stratum-wide termination criterion
	// (the dirty count that must drain).
	state   []atomic.Uint32
	pending atomic.Int64

	evals      atomic.Int64
	updates    atomic.Int64
	retries    atomic.Int64
	maxQueue   atomic.Int64
	contention atomic.Int64
	abort      atomic.Bool

	// workerEvals accumulates per-worker evaluation counts across the
	// sequentially-run strata; only worker w's goroutine writes slot w.
	workerEvals []int64

	errMu    sync.Mutex
	firstErr error
}

// fail records the first abort error and raises the abort flag every worker
// polls at its next scheduling point.
func (r *cpwRun[X, D]) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.abort.Store(true)
}

// runStratum iterates one stratum chaotically to quiescence with a pool of
// workers. It returns the indices still dirty if the run was interrupted
// (never nil on error — quiesce-and-drain collects them after the pool
// joins) and the abort error, if any.
func (r *cpwRun[X, D]) runStratum(s stratum, initQ []int, workers int) ([]int, error) {
	size := s.hi - s.lo + 1
	if workers > size {
		workers = size
	}
	sq := newShardQueue(s.lo, s.hi, workers)
	seeded := 0
	seed := func(i int) {
		r.state[i].Store(cpwQueued)
		sq.push(i)
		seeded++
	}
	if initQ == nil {
		for i := s.lo; i <= s.hi; i++ {
			seed(i)
		}
	} else {
		for _, i := range initQ {
			seed(i)
		}
	}
	r.pending.Store(int64(seeded))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.work(w, s, sq)
		}(w)
	}
	wg.Wait()

	// Per-stratum MaxQueue contribution: the maximum over shard high-water
	// marks (see shardQueue — the sum would re-count the stratum), merged
	// across strata by maximum like PSW's per-stratum queues.
	localMax := int64(sq.maxShardHigh())
	for {
		cur := r.maxQueue.Load()
		if localMax <= cur || r.maxQueue.CompareAndSwap(cur, localMax) {
			break
		}
	}

	r.errMu.Lock()
	err := r.firstErr
	r.errMu.Unlock()
	if err == nil {
		return nil, nil
	}
	// Quiesce-and-drain: the pool has joined, every in-flight evaluation
	// has settled its claim, so the non-idle states ARE the dirty set the
	// resumed run must re-iterate.
	suspended := make([]int, 0)
	for i := s.lo; i <= s.hi; i++ {
		if r.state[i].Load() != cpwIdle {
			suspended = append(suspended, i)
		}
	}
	return suspended, err
}

// work is one worker's loop: claim a dirty unknown, evaluate it under the
// budget/watchdog envelope, propagate the change, settle the claim; exit
// when the stratum's dirty count drains or the run aborts.
func (r *cpwRun[X, D]) work(w int, s stratum, sq *shardQueue) {
	step := r.en.stepper()
	local := int64(0)
	defer func() { r.workerEvals[w] += local }()
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

		n := r.evals.Add(1)
		if n > r.budget {
			// A bounded budget implies an armed watchdog; report the budget
			// value itself, matching SW's "stopped at exactly MaxEvals" even
			// when several workers trip the shared counter at once.
			r.requeue(i, sq)
			r.fail(r.wd.abort(AbortBudget, int(r.budget)))
			return
		}
		if err := r.wd.check(int(n - 1)); err != nil {
			// The reserved slot was never used — undo it so Stats.Evals
			// counts performed evaluations only.
			r.evals.Add(-1)
			r.requeue(i, sq)
			r.fail(err)
			return
		}
		changed, attempts, ee := step(i)
		if attempts > 1 {
			r.retries.Add(int64(attempts - 1))
		}
		if ee != nil {
			// The failed evaluation never happened: roll the reservation back
			// and keep i dirty so the checkpoint re-evaluates it.
			r.evals.Add(-1)
			r.requeue(i, sq)
			r.fail(r.wd.failEval(ee, int(n-1)))
			return
		}
		local++
		if changed {
			r.updates.Add(1)
			for _, j := range r.sh.infl(i) {
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

// cpwEngine is execCore's concurrency-safe sibling: same boundary surface,
// but stepper() may be called once per worker and the steppers run
// concurrently against the shared atomic value store.
type cpwEngine[X comparable, D any] interface {
	shape() *denseShape[X, D]
	stepper() func(i int) (changed bool, attempts int, ee *EvalError)
	sigmaMap() map[X]D
	snapshot(name string, st Stats) *Checkpoint[X, D]
	restore(cp *Checkpoint[X, D])
}

// buildCPWEngine mirrors buildCore's selection: the atomic-word engine when
// the core choice allows it, the operator is structured, the lattice has a
// raw encoding and the initial assignment encodes cleanly; the
// atomic-pointer boxed engine otherwise. Value stores are NOT pooled —
// unlike the sequential cores the slots are atomic types, and recycling
// them across solves would thread one solve's happens-before edges into the
// next for no measurable win.
func buildCPWEngine[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (cpwEngine[X, D], *watchdog[X]) {
	if cfg.Core != CoreDense {
		if ro, ok := op.(rawOperator[D]); ok {
			if raw := lattice.AsRaw[D](l); raw != nil {
				if en, ok := tryCPWRaw(sys, raw, init); ok {
					wd := newWatchdog(cfg, en.sh.idx)
					en.op = ro
					en.wd = wd
					en.g = newEvalGuard(cfg)
					return en, wd
				}
			}
		}
	}
	sh := sys.ShapeMemo(denseShapeKey, func() any { return buildDenseShape(sys) }).(*denseShape[X, D])
	wd := newWatchdog(cfg, sh.idx)
	bc := &cpwBoxed[X, D]{
		sh:   sh,
		sys:  sys,
		init: init,
		l:    l,
		op:   instrument(wd, l, op),
		g:    newEvalGuard(cfg),
		vals: make([]atomic.Pointer[D], len(sh.order)),
	}
	for i, x := range sh.order {
		v := init(x)
		bc.vals[i].Store(&v)
	}
	return bc, wd
}

// cpwBoxed is the boxed chaotic engine: each slot is an atomic pointer to
// an immutable value, so readers either see the old value or the new one,
// never a mix — publication is the pointer swap.
type cpwBoxed[X comparable, D any] struct {
	sh   *denseShape[X, D]
	sys  *eqn.System[X, D]
	init func(X) D
	l    lattice.Lattice[D]
	// op is the instrumented operator: the watchdog's phase hook is already
	// attached (its observation path is mutex-guarded, so concurrent Apply
	// calls are safe, as in PSW).
	op   Operator[X, D]
	g    *evalGuard
	vals []atomic.Pointer[D]
}

func (bc *cpwBoxed[X, D]) shape() *denseShape[X, D] { return bc.sh }

// stepper builds one worker's step function. The closure scratch (cur) is
// per-worker; the shared assignment is touched only through atomic loads
// and the claim-holder's final store.
func (bc *cpwBoxed[X, D]) stepper() func(i int) (bool, int, *EvalError) {
	cur := 0
	var get func(X) D
	if bc.sh.identInt {
		n := len(bc.sh.order)
		initInt := any(bc.init).(func(int) D)
		get = any(func(y int) D {
			if uint(y) < uint(n) {
				return *bc.vals[y].Load()
			}
			return initInt(y)
		}).(func(X) D)
	} else {
		get = func(y X) D {
			if j, ok := bc.sh.idx[y]; ok {
				return *bc.vals[j].Load()
			}
			return bc.init(y)
		}
	}
	thunk := func() D { return bc.sh.rhs[cur](get) }
	return func(i int) (bool, int, *EvalError) {
		cur = i
		x := bc.sh.order[i]
		rhsVal, attempts, ee := guardedEval(bc.g, x, thunk)
		if ee != nil {
			return false, attempts, ee
		}
		old := *bc.vals[i].Load()
		next := bc.op.Apply(x, old, rhsVal)
		if bc.l.Eq(old, next) {
			return false, attempts, nil
		}
		p := new(D)
		*p = next
		bc.vals[i].Store(p)
		return true, attempts, nil
	}
}

func (bc *cpwBoxed[X, D]) sigmaMap() map[X]D {
	sigma := make(map[X]D, len(bc.sh.order))
	for i, x := range bc.sh.order {
		sigma[x] = *bc.vals[i].Load()
	}
	return sigma
}

func (bc *cpwBoxed[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	cp := &Checkpoint[X, D]{Solver: name, SysFP: Fingerprint(bc.sys)}
	cp.Evals, cp.Updates, cp.Rounds, cp.MaxQueue, cp.Retries =
		st.Evals, st.Updates, st.Rounds, st.MaxQueue, st.Retries
	cp.Sigma = make([]CheckpointEntry[X, D], len(bc.sh.order))
	for i, x := range bc.sh.order {
		cp.Sigma[i] = CheckpointEntry[X, D]{X: x, V: *bc.vals[i].Load()}
	}
	return cp
}

func (bc *cpwBoxed[X, D]) restore(cp *Checkpoint[X, D]) {
	for _, e := range cp.Sigma {
		if j, ok := bc.sh.idx[e.X]; ok {
			v := e.V
			bc.vals[j].Store(&v)
		}
	}
}

// cpwRaw is the unboxed chaotic engine: rawCompiled's flat word layout with
// every access routed through atomicWords (plain atomic words for
// single-word strides, per-unknown seqlocks above that).
type cpwRaw[X comparable, D any] struct {
	sh   *denseShape[X, D]
	sys  *eqn.System[X, D]
	init func(X) D
	raw  lattice.Raw[D]
	st   *atomicWords
	op   rawOperator[D]
	wd   *watchdog[X]
	g    *evalGuard
}

// tryCPWRaw builds the atomic word store with the encode panic converted
// into a fallback signal, exactly like tryRawCompile.
func tryCPWRaw[X comparable, D any](sys *eqn.System[X, D], raw lattice.Raw[D], init func(X) D) (en *cpwRaw[X, D], ok bool) {
	defer func() {
		if r := recover(); r != nil {
			en, ok = nil, false
		}
	}()
	sh := sys.ShapeMemo(denseShapeKey, func() any { return buildDenseShape(sys) }).(*denseShape[X, D])
	stride := raw.RawWords()
	st := newAtomicWords(len(sh.order), stride)
	tmp := make([]uint64, stride)
	for i, x := range sh.order {
		raw.RawEncode(tmp, init(x))
		st.store(i, tmp)
	}
	return &cpwRaw[X, D]{sh: sh, sys: sys, init: init, raw: raw, st: st}, true
}

func (rc *cpwRaw[X, D]) shape() *denseShape[X, D] { return rc.sh }

// stepper builds one worker's step function over the atomic word store. All
// buffers are per-worker scratch; unlike rawCore's evaluator, getRaw cannot
// hand out live word slices (another worker may be mid-store), so every
// in-system read snapshots into readBuf — the fused right-hand sides'
// consume-before-next-get contract makes one buffer enough.
func (rc *cpwRaw[X, D]) stepper() func(i int) (bool, int, *EvalError) {
	stride := rc.st.stride
	raw := rc.raw
	cur := 0
	newv := make([]uint64, stride)
	readBuf := make([]uint64, stride)
	ext := make([]uint64, stride)
	oldBuf := make([]uint64, stride)
	res := make([]uint64, stride)

	var getRaw func(X) []uint64
	if rc.sh.identInt {
		n := len(rc.sh.order)
		initInt := any(rc.init).(func(int) D)
		getRaw = any(func(y int) []uint64 {
			if uint(y) < uint(n) {
				rc.st.load(y, readBuf)
				return readBuf
			}
			raw.RawEncode(ext, initInt(y))
			return ext
		}).(func(X) []uint64)
	} else {
		getRaw = func(y X) []uint64 {
			if j, ok := rc.sh.idx[y]; ok {
				rc.st.load(j, readBuf)
				return readBuf
			}
			raw.RawEncode(ext, rc.init(y))
			return ext
		}
	}
	getBoxed := func(y X) D {
		if j, ok := rc.sh.idx[y]; ok {
			rc.st.load(j, readBuf)
			return raw.RawDecode(readBuf)
		}
		return rc.init(y)
	}
	thunk := func() struct{} {
		if rf := rc.sh.rawRHS[cur]; rf != nil {
			rf(getRaw, newv)
		} else {
			raw.RawEncode(newv, rc.sh.rhs[cur](getBoxed))
		}
		return struct{}{}
	}
	return func(i int) (bool, int, *EvalError) {
		cur = i
		x := rc.sh.order[i]
		_, attempts, ee := guardedEval(rc.g, x, thunk)
		if ee != nil {
			return false, attempts, ee
		}
		// The caller holds the running claim on i, so this load observes
		// the slot's settled value: nobody else may store to it.
		rc.st.load(i, oldBuf)
		if rc.wd != nil {
			rc.wd.observe(x, rawPhase(raw, oldBuf, newv))
		}
		rc.op.rawApply(raw, res, oldBuf, newv)
		if raw.RawEq(oldBuf, res) {
			return false, attempts, nil
		}
		rc.st.store(i, res)
		return true, attempts, nil
	}
}

func (rc *cpwRaw[X, D]) sigmaMap() map[X]D {
	stride := rc.st.stride
	buf := make([]uint64, stride)
	sigma := make(map[X]D, len(rc.sh.order))
	for i, x := range rc.sh.order {
		rc.st.load(i, buf)
		sigma[x] = rc.raw.RawDecode(buf)
	}
	return sigma
}

func (rc *cpwRaw[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	stride := rc.st.stride
	buf := make([]uint64, stride)
	cp := &Checkpoint[X, D]{Solver: name, SysFP: Fingerprint(rc.sys)}
	cp.Evals, cp.Updates, cp.Rounds, cp.MaxQueue, cp.Retries =
		st.Evals, st.Updates, st.Rounds, st.MaxQueue, st.Retries
	cp.Sigma = make([]CheckpointEntry[X, D], len(rc.sh.order))
	for i, x := range rc.sh.order {
		rc.st.load(i, buf)
		cp.Sigma[i] = CheckpointEntry[X, D]{X: x, V: rc.raw.RawDecode(buf)}
	}
	return cp
}

func (rc *cpwRaw[X, D]) restore(cp *Checkpoint[X, D]) {
	stride := rc.st.stride
	buf := make([]uint64, stride)
	for _, e := range cp.Sigma {
		if j, ok := rc.sh.idx[e.X]; ok {
			rc.raw.RawEncode(buf, e.V)
			rc.st.store(j, buf)
		}
	}
}
