// Value stores of the compiled global solvers.
//
// Every global solver loop — RR, W, SRR and SW (dense.go), PSW (psw.go),
// CPW (cpw.go) and SLR2–4 (slrx.go) — is written against execCore, over
// one store: the assignment by order position, in one of two forms.
//
//   - Boxed values: a []D.
//   - Raw machine words (lattice.Raw): the assignment is one flat
//     []uint64, update steps run entirely on word slices, and a boxed D
//     materializes only at the boundaries — snapshots, the σ map, and
//     right-hand sides that have no fused raw form.
//
// The store is the one place σ₀ is written (reset), for a run start and
// for a cone of Live alike, and it implements the boundaries once for both
// forms: snapshot, restore, σ rendering (sigma), boxing and release. The
// loops return Stats and an error only; the store's owner renders the
// result — Run the σ map, Live the values of the unknowns that changed.
//
// Selection: under CoreAuto the word store is used when the lattice has a
// raw encoding (lattice.AsRaw) and the update operator is structured
// (rawOperator — WarrowOp and friends), see wordsFor; otherwise the solve
// runs on boxed values. A value the words cannot hold — in σ₀, in the
// resume checkpoint, or computed mid-solve — fails the word-store run with
// lattice.ErrUnencodable, and redoBoxed answers the solve on boxed values
// instead. Config.Core = CoreDense forces the boxed store.
//
// Shared mode. CPW's workers run step functions of one store concurrently,
// so its store is built shared, in a form other workers can read while one
// worker writes: boxed, it holds one atomic pointer per unknown to an
// immutable value in place of the []D slice; on words, every update is
// published under a per-unknown seqlock (see store.load and publish). A
// reader sees some value the slot actually held — possibly a stale one,
// which chaotic warrowing tolerates — but never a torn one. Each step
// function reads its own unknown directly, because CPW's claim makes its
// caller that slot's only writer, and the boundaries (reset, snapshot,
// restore, sigma, release) are the sequential ones, because they run only
// while no worker does. A shared store comes from and returns to the
// shape's pools like every other store Run owns.
//
// Bit-identity: the raw lattice operations are certified word-for-word
// against the boxed ones (lattice.CheckRawAgreement and the raw tests), the
// structured operators take the same branches on words as on values, and
// both step functions observe the same phases in the same order — so
// values, Stats, abort reports and checkpoints are identical across the two
// forms, and checkpoints (always boxed X-space on the wire) cross freely
// between them. The differential tests in internal/diffsolve pin this per
// solver, per domain, and across resume boundaries, and compare both forms
// with a map-based transcription of Figs. 1–4.
package solver

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// execCore is what a compiled solver loop needs: the store's scope and
// boundaries (scope, snapshot, restore) plus the step function for the hot
// loop and the restart primitive of SLR3/SLR4, which depend on the form.
type execCore[X comparable, D any] interface {
	// scope exposes the index space the run iterates over (its size, its
	// influence rows, queue translation).
	scope() *scope[X, D]
	// stepper returns the step function of one run (PSW and CPW: of one
	// worker, for the whole run):
	// step(i, accel) evaluates the unknown at local position i under the
	// eval guard, hands the step's phase to the watchdog, and stores
	// op.Apply(old, rhs) when accel is set and the right-hand-side value rhs
	// otherwise. It reports the phase, whether the value changed, how many
	// evaluation attempts were made, and the evaluation error, if any. On
	// an error nothing is rolled forward — the failed evaluation never
	// happened. The phase is computed only when the watchdog is armed or
	// phases is set; otherwise step reports PhaseStable.
	stepper(phases bool) func(i int, accel bool) (ph Phase, changed bool, attempts int, ee *EvalError)
	// resetter returns the restart primitive of SLR3/SLR4, which run over
	// the whole system and never on a shared store: reset(i) sets unknown
	// i back to its initial value and reports whether that changed it,
	// handing a PhaseRestart to the watchdog when it did.
	resetter() func(i int) bool
	// snapshot captures a checkpoint of the scope's assignment; the caller
	// fills in the solver-specific scheduling state.
	snapshot(name string, st Stats) *Checkpoint[X, D]
	// restore applies a checkpointed assignment. It fails, wrapping
	// lattice.ErrUnencodable, only on the word form when the words cannot
	// hold one of the values.
	restore(cp *Checkpoint[X, D]) error
}

// store is the assignment of a compiled run by order position: raw words
// while words is non-nil, boxed values otherwise. Its slots come from the
// shape's pools. Run's store lives for one run and gives them back on
// release; Live's persists between runs, never released, and sets sc
// before each.
type store[X comparable, D any] struct {
	*denseShape[X, D]
	// sc is the index space the run iterates over; reset, snapshot and
	// restore touch its unknowns only.
	sc   scope[X, D]
	init func(X) D
	// The word form holds unknown p at words[p*stride:(p+1)*stride].
	raw    lattice.Raw[D]
	stride int
	words  []uint64
	// The boxed form holds unknown p at vals[p] or, in a shared store, at
	// ptrs[p]: one atomic pointer per unknown to an immutable value, so a
	// worker reading a slot while its owner replaces it sees the old value
	// or the new one, never a mix.
	vals []D
	ptrs []atomic.Pointer[D]
	// shared marks a store CPW's workers use concurrently: on words, reads
	// of other unknowns go through load and updates through publish, and
	// seq holds the per-unknown seqlock versions when the stride is more
	// than one word; an atomic load of a single word is already a
	// consistent snapshot.
	shared bool
	seq    []atomic.Uint32
}

// newStore returns a store over sys's whole system for runs from init: on
// raw's words when raw is non-nil, boxed values otherwise, and shared for
// CPW's workers. Its slots hold no values until reset writes σ₀.
func newStore[X comparable, D any](sys *eqn.System[X, D], init func(X) D, raw lattice.Raw[D], shared bool) *store[X, D] {
	sh := shapeOf(sys)
	n := len(sh.order)
	s := &store[X, D]{denseShape: sh, sc: wholeScope(sys, sh), init: init, shared: shared}
	switch {
	case raw != nil:
		s.raw, s.stride = raw, raw.RawWords()
		s.words = take[uint64](&sh.wordsPool, n*s.stride)
		if shared && s.stride > 1 {
			s.seq = make([]atomic.Uint32, n)
		}
	case shared:
		s.ptrs = make([]atomic.Pointer[D], n)
	default:
		s.vals = take[D](&sh.valsPool, n)
	}
	return s
}

// take returns a slice of n elements, from pool when it holds one of that
// length.
func take[T any](pool *sync.Pool, n int) []T {
	if v, ok := pool.Get().([]T); ok && len(v) == n {
		return v
	}
	return make([]T, n)
}

func (s *store[X, D]) scope() *scope[X, D] { return &s.sc }

// slot returns the words of unknown p.
func (s *store[X, D]) slot(p int) []uint64 { return s.words[p*s.stride : (p+1)*s.stride] }

// at returns unknown p's boxed value.
func (s *store[X, D]) at(p int) D {
	if s.ptrs != nil {
		return *s.ptrs[p].Load()
	}
	return s.vals[p]
}

// set makes v unknown p's boxed value; a shared store publishes a fresh
// copy.
func (s *store[X, D]) set(p int, v D) {
	if s.ptrs != nil {
		c := new(D)
		*c = v
		s.ptrs[p].Store(c)
		return
	}
	s.vals[p] = v
}

// value returns unknown p's value in either form, decoding words. It does
// not synchronize: on a shared store, call it only while no worker runs.
func (s *store[X, D]) value(p int) D {
	if s.words != nil {
		return s.raw.RawDecode(s.slot(p))
	}
	return s.at(p)
}

// put makes v unknown p's value in either form. On words it panics,
// wrapping lattice.ErrUnencodable, when they cannot hold v.
func (s *store[X, D]) put(p int, v D) {
	if s.words != nil {
		s.raw.RawEncode(s.slot(p), v)
		return
	}
	s.set(p, v)
}

// reset writes σ₀ to the scope's slots: the one place a run start, and a
// cone of Live, writes the initial assignment. On words it fails, wrapping
// lattice.ErrUnencodable, when they cannot hold a value of σ₀; its owner
// then redoes the run on boxed values (redoBoxed).
func (s *store[X, D]) reset() (err error) {
	defer recoverUnencodable(&err)
	for k := 0; k < s.sc.n; k++ {
		p := s.sc.parent(k)
		s.put(p, s.init(s.order[p]))
	}
	return nil
}

// snapshot captures the shared part of a compiled-solver checkpoint —
// name, fingerprint, counters and the scope's assignment in linear order —
// read straight off the store, without a σ map. Raw encodings are
// canonical and RawDecode inverts RawEncode exactly, so both forms give
// byte-identical wire output on the same state, which is what lets a
// checkpoint captured on one resume on the other.
func (s *store[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	cp := s.sc.newCheckpoint(name, st)
	for k := range cp.Sigma {
		p := s.sc.parent(k)
		cp.Sigma[k] = CheckpointEntry[X, D]{X: s.order[p], V: s.value(p)}
	}
	return cp
}

// restore applies a checkpointed assignment. Entries for unknowns outside
// the scope are ignored; a fingerprint-matched checkpoint carries none. A
// value the words cannot hold — a boxed run may have checkpointed one —
// fails the restore with lattice.ErrUnencodable.
func (s *store[X, D]) restore(cp *Checkpoint[X, D]) (err error) {
	defer recoverUnencodable(&err)
	for _, e := range cp.Sigma {
		if k, ok := s.sc.lookup(e.X); ok {
			s.put(s.sc.parent(k), e.V)
		}
	}
	return nil
}

// sigma renders the whole assignment as the map the public API returns.
func (s *store[X, D]) sigma() map[X]D {
	m := make(map[X]D, len(s.order))
	for p, x := range s.order {
		m[x] = s.value(p)
	}
	return m
}

// box converts an unshared word store that is never released — Live's —
// to boxed values for good.
func (s *store[X, D]) box() {
	if s.words == nil {
		return
	}
	s.vals = make([]D, len(s.words)/s.stride)
	for p := range s.vals {
		s.vals[p] = s.raw.RawDecode(s.slot(p))
	}
	s.words = nil
}

// release returns the store's slots to the shape's pools; the store must
// not be used afterwards. Maps and snapshots taken earlier hold copies of
// the values and stay valid. A shared boxed store has no pooled slots.
func (s *store[X, D]) release() {
	if s.words != nil {
		s.wordsPool.Put(s.words)
		s.words = nil
	}
	if s.vals != nil {
		s.valsPool.Put(s.vals)
		s.vals = nil
	}
}

// load copies unknown i's value into dst (len ≥ stride) as a consistent
// snapshot of a shared store. Under the seqlock a reader retries until it
// sees the same even version on both sides of its copy: the writer makes
// the version odd, stores the words, and makes it even again.
func (s *store[X, D]) load(i int, dst []uint64) {
	base := i * s.stride
	if s.seq == nil {
		dst[0] = atomic.LoadUint64(&s.words[base])
		return
	}
	for {
		v := s.seq[i].Load()
		if v&1 == 0 {
			for k := 0; k < s.stride; k++ {
				dst[k] = atomic.LoadUint64(&s.words[base+k])
			}
			if s.seq[i].Load() == v {
				return
			}
		}
		// A write is in flight; yield so its goroutine can finish even on
		// GOMAXPROCS=1.
		runtime.Gosched()
	}
}

// publish stores src (len ≥ stride) as unknown i's value in a shared
// store. Only one goroutine may store to a given slot at a time — CPW's
// running claim is what enforces that.
func (s *store[X, D]) publish(i int, src []uint64) {
	base := i * s.stride
	if s.seq == nil {
		atomic.StoreUint64(&s.words[base], src[0])
		return
	}
	s.seq[i].Add(1) // odd: write in flight
	for k := 0; k < s.stride; k++ {
		atomic.StoreUint64(&s.words[base+k], src[k])
	}
	s.seq[i].Add(1) // even: published
}

// local returns step, which takes order positions, as the step function of
// the run's scope, which takes local positions: a cone's maps them, and
// the whole system's needs no mapping.
func (s *store[X, D]) local(step func(int, bool) (Phase, bool, int, *EvalError)) func(int, bool) (Phase, bool, int, *EvalError) {
	pos := s.sc.pos
	if pos == nil {
		return step
	}
	return func(i int, accel bool) (Phase, bool, int, *EvalError) { return step(pos[i], accel) }
}

// boxedCore is the core over the boxed form: the store plus the pieces
// the step function needs.
type boxedCore[X comparable, D any] struct {
	*store[X, D]
	l lattice.Lattice[D]
	// op is the plain update operator: the step function observes each
	// phase itself, right before Apply, as rawCore does.
	op Operator[X, D]
	wd *watchdog[X]
	g  *evalGuard
}

func (bc *boxedCore[X, D]) stepper(phases bool) func(int, bool) (Phase, bool, int, *EvalError) {
	e := bc.evaluator()
	wd := bc.wd
	track := phases || wd != nil
	return bc.local(func(i int, accel bool) (Phase, bool, int, *EvalError) {
		x := bc.order[i]
		e.cur = i
		rhsVal, attempts, ee := guardedEval(bc.g, x, e.thunk)
		if ee != nil {
			return PhaseStable, false, attempts, ee
		}
		old := bc.at(i)
		ph := PhaseStable
		if track {
			ph = PhaseOf(bc.l, old, rhsVal)
			if wd != nil {
				wd.observe(x, ph)
			}
		}
		next := rhsVal
		if accel {
			next = bc.op.Apply(x, old, rhsVal)
		}
		if bc.l.Eq(old, next) {
			return ph, false, attempts, nil
		}
		bc.set(i, next)
		return ph, true, attempts, nil
	})
}

func (bc *boxedCore[X, D]) resetter() func(int) bool {
	return func(i int) bool {
		x := bc.order[i]
		v0 := bc.init(x)
		if bc.l.Eq(bc.vals[i], v0) {
			return false
		}
		if bc.wd != nil {
			bc.wd.observe(x, PhaseRestart)
		}
		bc.vals[i] = v0
		return true
	}
}

// recoverUnencodable, deferred, turns a raw-encoding panic into *err. Any
// other panic keeps unwinding.
func recoverUnencodable(err *error) {
	if r := recover(); r != nil {
		e, ok := r.(error)
		if !ok || !errors.Is(e, lattice.ErrUnencodable) {
			panic(r)
		}
		*err = e
	}
}

// rawCore is the core over the word form: the store plus the structured
// operator and the watchdog hook.
type rawCore[X comparable, D any] struct {
	*store[X, D]
	// op is the structured operator; the phase observation runs on words
	// (rawPhase), right before rawApply, as in boxedCore.
	op rawOperator[D]
	wd *watchdog[X]
	g  *evalGuard
}

// rawPhase is PhaseOf on encoded values: equality is word equality because
// encodings are canonical, and RawLeq mirrors the boxed order bit for bit.
func rawPhase[D any](r lattice.Raw[D], old, new []uint64) Phase {
	if r.RawEq(new, old) {
		return PhaseStable
	}
	if r.RawLeq(new, old) {
		return PhaseNarrow
	}
	return PhaseWiden
}

// rawEval is the reusable evaluation environment of one raw run (under PSW
// and CPW, of one worker), the unboxed twin of denseEval:
// newv receives the right-hand-side value of the unknown cur points at when
// thunk runs.
type rawEval struct {
	cur   int
	newv  []uint64
	thunk func() struct{}
}

// evaluator builds the closure environment of one raw run. Per-evaluator
// scratch: newv receives the right-hand-side value, ext the encoding of an
// out-of-system read. Under PSW and CPW each worker owns one evaluator for
// the whole run, so the buffers are never shared across goroutines.
func (rc *rawCore[X, D]) evaluator() *rawEval {
	stride := rc.stride
	words := rc.words
	raw := rc.raw
	n := len(rc.order)
	e := &rawEval{newv: make([]uint64, stride)}
	ext := make([]uint64, stride)

	// getRaw translates a right-hand side's X-typed reads to word slices, the
	// raw twin of denseEval.get; out-of-system reads encode σ₀ into ext (the
	// returned slice is only valid until the next get, which fused right-hand
	// sides respect by consuming each read before the next). getBoxed is the
	// boundary adapter for right-hand sides without a fused raw form: decode
	// on read, evaluate boxed, encode the result.
	var getRaw func(X) []uint64
	var getBoxed func(X) D
	if rc.shared {
		// Another worker may be storing to any slot but the caller's own, so
		// a shared store hands out no live slice: every in-system read is
		// loaded into read, and the same consume-before-next-get contract
		// makes one buffer enough.
		read := make([]uint64, stride)
		if rc.identInt {
			initInt := any(rc.init).(func(int) D)
			getRaw = any(func(y int) []uint64 {
				if uint(y) < uint(n) {
					rc.load(y, read)
					return read
				}
				raw.RawEncode(ext, initInt(y))
				return ext
			}).(func(X) []uint64)
		} else {
			getRaw = func(y X) []uint64 {
				if j, ok := rc.idx[y]; ok {
					rc.load(j, read)
					return read
				}
				raw.RawEncode(ext, rc.init(y))
				return ext
			}
		}
		getBoxed = func(y X) D {
			if j, ok := rc.idx[y]; ok {
				rc.load(j, read)
				return raw.RawDecode(read)
			}
			return rc.init(y)
		}
	} else {
		if rc.identInt {
			initInt := any(rc.init).(func(int) D)
			getRaw = any(func(y int) []uint64 {
				if uint(y) < uint(n) {
					return words[y*stride : (y+1)*stride]
				}
				raw.RawEncode(ext, initInt(y))
				return ext
			}).(func(X) []uint64)
		} else {
			getRaw = func(y X) []uint64 {
				if j, ok := rc.idx[y]; ok {
					return words[j*stride : (j+1)*stride]
				}
				raw.RawEncode(ext, rc.init(y))
				return ext
			}
		}
		getBoxed = func(y X) D {
			if j, ok := rc.idx[y]; ok {
				return raw.RawDecode(words[j*stride : (j+1)*stride])
			}
			return rc.init(y)
		}
	}
	// The thunk runs under the eval guard so that panics — in the right-hand
	// side or in the result encoding — become EvalErrors, exactly like boxed
	// evaluation failures.
	e.thunk = func() struct{} {
		if rf := rc.rawRHS[e.cur]; rf != nil {
			rf(getRaw, e.newv)
		} else {
			raw.RawEncode(e.newv, rc.rhs[e.cur](getBoxed))
		}
		return struct{}{}
	}
	return e
}

func (rc *rawCore[X, D]) stepper(phases bool) func(int, bool) (Phase, bool, int, *EvalError) {
	stride := rc.stride
	words := rc.words
	raw := rc.raw
	e := rc.evaluator()
	wd := rc.wd
	track := phases || wd != nil
	shared := rc.shared
	// res receives the combined result of each accelerated step.
	res := make([]uint64, stride)
	return rc.local(func(i int, accel bool) (Phase, bool, int, *EvalError) {
		e.cur = i
		x := rc.order[i]
		_, attempts, ee := guardedEval(rc.g, x, e.thunk)
		if ee != nil {
			return PhaseStable, false, attempts, ee
		}
		// On a shared store the caller holds i's claim, so no other worker
		// stores to old while this step reads it.
		old := words[i*stride : (i+1)*stride]
		ph := PhaseStable
		if track {
			ph = rawPhase(raw, old, e.newv)
			if wd != nil {
				wd.observe(x, ph)
			}
		}
		next := e.newv
		if accel {
			rc.op.rawApply(raw, res, old, e.newv)
			next = res
		}
		if raw.RawEq(old, next) {
			return ph, false, attempts, nil
		}
		if shared {
			rc.publish(i, next)
		} else {
			copy(old, next)
		}
		return ph, true, attempts, nil
	})
}

func (rc *rawCore[X, D]) resetter() func(int) bool {
	scratch := make([]uint64, rc.stride)
	return func(i int) bool {
		x := rc.order[i]
		rc.raw.RawEncode(scratch, rc.init(x))
		old := rc.slot(i)
		if rc.raw.RawEq(old, scratch) {
			return false
		}
		if rc.wd != nil {
			rc.wd.observe(x, PhaseRestart)
		}
		copy(old, scratch)
		return true
	}
}

// redoBoxed runs a compiled solve and covers the word store's one gap: a
// value its words cannot hold (an interval bound at the int64 extremes, a
// set element outside the universe), whether σ₀ or the resume checkpoint
// carries it or an evaluation computes it. The word store then fails the
// run with lattice.ErrUnencodable, and redoBoxed runs the solve again from
// the same starting point on boxed values, which hold every value. Up to
// that value both stores run identically, and right-hand sides are pure
// (eqn.RHS), so the redo answers exactly as a boxed solve would — values,
// Stats, abort report and checkpoint — and store selection never changes
// an answer. A stateful right-hand side, such as a chaos fault injector,
// observes the failed run's evaluations too. The redo keeps the first
// run's wall-clock deadline and skips the periodic checkpoints the first
// run already delivered.
func redoBoxed[X comparable, D any](cfg Config, run func(Config) (map[X]D, Stats, error)) (map[X]D, Stats, error) {
	if cfg.Core == CoreDense {
		return run(cfg)
	}
	cfg = cfg.started(time.Now())
	sink, emitted := cfg.CheckpointSink, 0
	if sink != nil {
		cfg.CheckpointSink = func(cp any) { emitted++; sink(cp) }
	}
	sigma, st, err := run(cfg)
	if !errors.Is(err, lattice.ErrUnencodable) {
		return sigma, st, err
	}
	cfg.Core = CoreDense
	if sink != nil {
		cfg.CheckpointSink = func(cp any) {
			if emitted > 0 {
				emitted--
				return
			}
			sink(cp)
		}
	}
	return run(cfg)
}

// wordsFor returns the lattice's word encoding when a compiled solve
// under cfg may run on the word store: that needs a core selection that
// allows it (anything but CoreDense), a structured update operator, and a
// lattice with a raw encoding. σ₀ must still encode (see store.reset).
func wordsFor[X comparable, D any](l lattice.Lattice[D], op Operator[X, D], cfg Config) lattice.Raw[D] {
	if cfg.Core == CoreDense {
		return nil
	}
	if _, ok := op.(rawOperator[D]); !ok {
		return nil
	}
	return lattice.AsRaw[D](l)
}

// newCore builds the core of one run over s, with its watchdog: on the
// word form the operator is the structured one wordsFor required.
func newCore[X comparable, D any](s *store[X, D], l lattice.Lattice[D], op Operator[X, D], cfg Config) (execCore[X, D], *watchdog[X]) {
	wd, g := newWatchdog(cfg, s.idx), newEvalGuard(cfg)
	if s.words != nil {
		return &rawCore[X, D]{store: s, op: op.(rawOperator[D]), wd: wd, g: g}, wd
	}
	return &boxedCore[X, D]{store: s, l: l, op: op, wd: wd, g: g}, wd
}
