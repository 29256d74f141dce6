// Value stores of the compiled global solvers.
//
// Every global solver loop — RR, W, SRR and SW (dense.go), PSW (psw.go),
// CPW (cpw.go) and SLR2–4 (slrx.go) — is written against execCore, which
// hides how the assignment is stored. Two implementations exist:
//
//   - boxedCore keeps []D exactly as compile.go builds it;
//   - rawCore stores every value as raw machine words (lattice.Raw): the
//     assignment is one flat []uint64, update steps run entirely on word
//     slices, and a boxed D materializes only at the boundaries — snapshots,
//     sigma maps, and right-hand sides that have no fused raw form.
//
// Selection happens in buildCore: under CoreAuto the word store is used
// when the lattice has a raw encoding (lattice.AsRaw), the update operator
// is structured (rawOperator — WarrowOp and friends), and the initial
// assignment encodes cleanly; otherwise the solve runs on boxed values. A
// value the words cannot hold that turns up later — in the resume
// checkpoint or computed mid-solve — fails the word-store run with
// lattice.ErrUnencodable, and redoBoxed answers the solve on boxed values
// instead. Config.Core = CoreDense forces the boxed store.
//
// Shared mode. CPW's workers run step functions of one store concurrently,
// so buildCore's shared flag, which only CPW sets, builds either store in a
// form other workers can read while one worker writes: the boxed store
// holds one atomic pointer per unknown to an immutable value in place of
// the []D slice, and the word store publishes every update under a
// per-unknown seqlock (see rawCompiled.load and store). A reader sees some
// value the slot actually held — possibly a stale one, which chaotic
// warrowing tolerates — but never a torn one. Each step function reads its
// own unknown directly, because CPW's claim makes its caller that slot's
// only writer, and the boundaries (sigmaMap, snapshot, restore, release)
// are the sequential ones, because CPW calls them only while no worker
// runs. The shared word store comes from and returns to the shape's pool
// like every other.
//
// Bit-identity: the raw lattice operations are certified word-for-word
// against the boxed ones (lattice.CheckRawAgreement and the raw tests), the
// structured operators take the same branches on words as on values, and
// both step functions observe the same phases in the same order — so
// values, Stats, abort reports and checkpoints are identical across the two
// stores, and checkpoints (always boxed X-space on the wire) cross freely
// between them. The differential tests in internal/diffsolve pin this per
// solver, per domain, and across resume boundaries, and compare both
// stores with a map-based transcription of Figs. 1–4.
package solver

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// execCore is what a compiled solver loop needs from the value store: shape
// access for scheduling, a step function for the hot loop, the restart
// primitive of SLR3/SLR4, and the boxed boundary operations (results,
// checkpoints).
type execCore[X comparable, D any] interface {
	// scope exposes the index space the run iterates over (its size, its
	// influence rows, queue translation).
	scope() *scope[X, D]
	// stepper returns the step function of one run (PSW and CPW: of one
	// worker, for the whole run):
	// step(i, accel) evaluates unknown i under the eval guard, hands the
	// step's phase to the watchdog, and stores op.Apply(old, rhs) when accel
	// is set and the right-hand-side value rhs otherwise. It reports the
	// phase, whether the value changed, how many evaluation attempts were
	// made, and the evaluation error, if any. On an error nothing is rolled
	// forward — the failed evaluation never happened. The phase is computed
	// only when the watchdog is armed or phases is set; otherwise step
	// reports PhaseStable.
	stepper(phases bool) func(i int, accel bool) (ph Phase, changed bool, attempts int, ee *EvalError)
	// resetter returns the restart primitive of SLR3/SLR4, which never run
	// on a shared store: reset(i) sets unknown i back to its initial value
	// and reports whether that changed it, handing a PhaseRestart to the
	// watchdog when it did.
	resetter() func(i int) bool
	// sigmaMap renders the assignment as the map the public API returns.
	sigmaMap() map[X]D
	// snapshot captures a checkpoint of the current assignment; the caller
	// fills in the solver-specific scheduling state.
	snapshot(name string, st Stats) *Checkpoint[X, D]
	// restore applies a checkpointed assignment. It fails, wrapping
	// lattice.ErrUnencodable, only on a word store that cannot hold one of
	// the values.
	restore(cp *Checkpoint[X, D]) error
	// release returns the value store to the shape's pool; the core must not
	// be used afterwards.
	release()
}

// boxedCore is the compiled core with boxed values: compiled's assignment
// (its []D, or its atomic pointers when shared) plus the pieces the step
// function needs. snapshot, restore, sigmaMap and release come from the
// embedded compiled.
type boxedCore[X comparable, D any] struct {
	*compiled[X, D]
	l lattice.Lattice[D]
	// op is the plain update operator: the step function observes each
	// phase itself, right before Apply, as rawCore does.
	op Operator[X, D]
	wd *watchdog[X]
	g  *evalGuard
}

func (bc *boxedCore[X, D]) scope() *scope[X, D] { return &bc.sc }

func (bc *boxedCore[X, D]) stepper(phases bool) func(int, bool) (Phase, bool, int, *EvalError) {
	e := bc.evaluator()
	wd := bc.wd
	track := phases || wd != nil
	return func(i int, accel bool) (Phase, bool, int, *EvalError) {
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
	}
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

// rawCompiled is the unboxed twin of compiled: the assignment is one flat
// []uint64, stride words per unknown, indexed by order position.
type rawCompiled[X comparable, D any] struct {
	*denseShape[X, D]
	// sc is the index space the run iterates over, as in compiled.
	sc     scope[X, D]
	init   func(X) D
	raw    lattice.Raw[D]
	stride int
	// words is the assignment: unknown i lives at words[i*stride:(i+1)*stride].
	words []uint64
	// shared marks a store CPW's workers use concurrently: reads of other
	// unknowns go through load, updates through store. seq holds its
	// per-unknown seqlock versions when the stride is more than one word;
	// an atomic load of a single word is already a consistent snapshot.
	shared bool
	seq    []atomic.Uint32
}

// rawCompile builds the unboxed store, shared or not, and encodes the
// initial assignment. It panics if an initial value has no raw encoding;
// buildCore catches that and falls back to the boxed core.
func rawCompile[X comparable, D any](sys *eqn.System[X, D], raw lattice.Raw[D], init func(X) D, shared bool) *rawCompiled[X, D] {
	sh := shapeOf(sys)
	stride := raw.RawWords()
	n := len(sh.order)
	var words []uint64
	if w, ok := sh.wordsPool.Get().([]uint64); ok && len(w) == n*stride {
		words = w
	} else {
		words = make([]uint64, n*stride)
	}
	rc := &rawCompiled[X, D]{denseShape: sh, sc: wholeScope(sys, sh), init: init, raw: raw, stride: stride, words: words, shared: shared}
	if shared && stride > 1 {
		rc.seq = make([]atomic.Uint32, n)
	}
	for i, x := range sh.order {
		raw.RawEncode(words[i*stride:(i+1)*stride], init(x))
	}
	return rc
}

// tryRawCompile is rawCompile with the encode panic converted into a
// fallback signal: an initial assignment the encoding cannot represent
// (sentinel-colliding interval bounds, out-of-universe set elements) sends
// the solve to the boxed core instead of crashing.
func tryRawCompile[X comparable, D any](sys *eqn.System[X, D], raw lattice.Raw[D], init func(X) D, shared bool) (rc *rawCompiled[X, D], ok bool) {
	defer func() {
		if r := recover(); r != nil {
			rc, ok = nil, false
		}
	}()
	return rawCompile(sys, raw, init, shared), true
}

// load copies unknown i's value into dst (len ≥ stride) as a consistent
// snapshot of a shared store. Under the seqlock a reader retries until it
// sees the same even version on both sides of its copy: the writer makes
// the version odd, stores the words, and makes it even again.
func (rc *rawCompiled[X, D]) load(i int, dst []uint64) {
	base := i * rc.stride
	if rc.seq == nil {
		dst[0] = atomic.LoadUint64(&rc.words[base])
		return
	}
	for {
		v := rc.seq[i].Load()
		if v&1 == 0 {
			for k := 0; k < rc.stride; k++ {
				dst[k] = atomic.LoadUint64(&rc.words[base+k])
			}
			if rc.seq[i].Load() == v {
				return
			}
		}
		// A write is in flight; yield so its goroutine can finish even on
		// GOMAXPROCS=1.
		runtime.Gosched()
	}
}

// store publishes src (len ≥ stride) as unknown i's value in a shared
// store. Only one goroutine may store to a given slot at a time — CPW's
// running claim is what enforces that.
func (rc *rawCompiled[X, D]) store(i int, src []uint64) {
	base := i * rc.stride
	if rc.seq == nil {
		atomic.StoreUint64(&rc.words[base], src[0])
		return
	}
	rc.seq[i].Add(1) // odd: write in flight
	for k := 0; k < rc.stride; k++ {
		atomic.StoreUint64(&rc.words[base+k], src[k])
	}
	rc.seq[i].Add(1) // even: published
}

// release returns the word store to the shape's pool.
func (rc *rawCompiled[X, D]) release() {
	if rc.words == nil {
		return
	}
	rc.wordsPool.Put(rc.words)
	rc.words = nil
}

// sigmaMap decodes the assignment into the map the public API returns.
func (rc *rawCompiled[X, D]) sigmaMap() map[X]D {
	sigma := make(map[X]D, len(rc.order))
	for i, x := range rc.order {
		sigma[x] = rc.raw.RawDecode(rc.words[i*rc.stride : (i+1)*rc.stride])
	}
	return sigma
}

// snapshot decodes the assignment into boxed Sigma rows in linear order.
// Raw encodings are canonical and RawDecode inverts RawEncode exactly, so
// the wire output is byte-identical to the boxed store's on the same state —
// which is what lets a checkpoint captured here resume on either store.
func (rc *rawCompiled[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	cp := rc.sc.newCheckpoint(name, st)
	for k := range cp.Sigma {
		i := rc.sc.parent(k)
		cp.Sigma[k] = CheckpointEntry[X, D]{X: rc.order[i], V: rc.raw.RawDecode(rc.words[i*rc.stride : (i+1)*rc.stride])}
	}
	return cp
}

// restore encodes a checkpointed assignment into the word store. Entries for
// unknowns outside the scope are ignored, like the boxed store does. A value
// the encoding cannot represent — a boxed run may have checkpointed one —
// fails the restore with lattice.ErrUnencodable.
func (rc *rawCompiled[X, D]) restore(cp *Checkpoint[X, D]) (err error) {
	defer recoverUnencodable(&err)
	for _, e := range cp.Sigma {
		if k, ok := rc.sc.lookup(e.X); ok {
			j := rc.sc.parent(k)
			rc.raw.RawEncode(rc.words[j*rc.stride:(j+1)*rc.stride], e.V)
		}
	}
	return nil
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

// rawCore is the word-store core: rawCompiled's word store plus the
// structured operator and the watchdog hook.
type rawCore[X comparable, D any] struct {
	*rawCompiled[X, D]
	// op is the structured operator; the phase observation runs on words
	// (rawPhase), right before rawApply, as in boxedCore.
	op rawOperator[D]
	wd *watchdog[X]
	g  *evalGuard
}

func (rc *rawCore[X, D]) scope() *scope[X, D] { return &rc.sc }

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
	return func(i int, accel bool) (Phase, bool, int, *EvalError) {
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
			rc.store(i, next)
		} else {
			copy(old, next)
		}
		return ph, true, attempts, nil
	}
}

func (rc *rawCore[X, D]) resetter() func(int) bool {
	scratch := make([]uint64, rc.stride)
	return func(i int) bool {
		x := rc.order[i]
		rc.raw.RawEncode(scratch, rc.init(x))
		old := rc.words[i*rc.stride : (i+1)*rc.stride]
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
// set element outside the universe), whether the resume checkpoint carries
// it or an evaluation computes it. The word store then fails the run with
// lattice.ErrUnencodable, and redoBoxed runs the solve again from the same
// starting point on boxed values, which hold every value. Up to that value
// both stores run identically, and right-hand sides are pure (eqn.RHS), so
// the redo answers exactly as a boxed solve would — values, Stats, abort
// report and checkpoint — and store selection never changes an answer. A stateful right-hand side, such as a chaos fault injector,
// observes the failed run's evaluations too. The redo keeps the first run's
// wall-clock deadline and skips the periodic checkpoints the first run
// already delivered.
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

// buildCore picks the value store for a compiled solve and builds the core
// together with its watchdog: the word store where rawStoreFor allows it
// and the initial assignment encodes cleanly, boxed values otherwise.
// shared builds the store in the form concurrent workers can share (CPW);
// the choice between words and boxed values does not depend on it.
func buildCore[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config, shared bool) (execCore[X, D], *watchdog[X]) {
	if raw, ro, ok := rawStoreFor(l, op, cfg); ok {
		if rc, ok := tryRawCompile(sys, raw, init, shared); ok {
			return newRawCore(rc, ro, cfg)
		}
	}
	return newBoxedCore(compile(sys, init, shared), l, op, cfg)
}

// rawStoreFor returns the lattice's word encoding and the operator's word
// form when a compiled solve under cfg may run on the word store: that
// needs a core selection that allows it (anything but CoreDense), a
// structured update operator, and a lattice with a raw encoding. The
// initial assignment must still encode; where it does not, the solve runs
// on boxed values.
func rawStoreFor[X comparable, D any](l lattice.Lattice[D], op Operator[X, D], cfg Config) (lattice.Raw[D], rawOperator[D], bool) {
	if cfg.Core == CoreDense {
		return nil, nil, false
	}
	ro, ok := op.(rawOperator[D])
	if !ok {
		return nil, nil, false
	}
	raw := lattice.AsRaw[D](l)
	return raw, ro, raw != nil
}

// newRawCore builds the core over a word store, with its watchdog.
func newRawCore[X comparable, D any](rc *rawCompiled[X, D], ro rawOperator[D], cfg Config) (execCore[X, D], *watchdog[X]) {
	wd := newWatchdog(cfg, rc.idx)
	return &rawCore[X, D]{rawCompiled: rc, op: ro, wd: wd, g: newEvalGuard(cfg)}, wd
}

// newBoxedCore builds the core over a boxed store, with its watchdog.
func newBoxedCore[X comparable, D any](c *compiled[X, D], l lattice.Lattice[D], op Operator[X, D], cfg Config) (execCore[X, D], *watchdog[X]) {
	wd := newWatchdog(cfg, c.idx)
	return &boxedCore[X, D]{compiled: c, l: l, op: op, wd: wd, g: newEvalGuard(cfg)}, wd
}
