// Value-representation cores of the compiled global solvers.
//
// The dense loops of dense.go and psw.go are written against execCore, which
// hides how the assignment is stored. Two implementations exist:
//
//   - boxedCore keeps []D exactly as compile.go builds it — the dense core
//     that existed before the unboxed work;
//   - rawCore stores every value as raw machine words (lattice.Raw): the
//     assignment is one flat []uint64, update steps run entirely on word
//     slices, and a boxed D materializes only at the boundaries — snapshots,
//     sigma maps, and right-hand sides that have no fused raw form.
//
// Selection happens in buildCore: the unboxed store is used when the lattice
// has a raw encoding (lattice.AsRaw), the update operator is structured
// (rawOperator — WarrowOp and friends), and the initial assignment encodes
// cleanly; otherwise the solve falls back to the boxed core. A value the
// words cannot hold that turns up later — in the resume checkpoint or
// computed mid-solve — fails the unboxed run with lattice.ErrUnencodable,
// and redoBoxed answers the solve on the boxed core instead. Config.Core =
// CoreDense forces the boxed store; CoreUnboxed requests the raw one but
// still falls back when the domain cannot support it, so the flag is always
// safe to set.
//
// Bit-identity: the raw lattice operations are certified word-for-word
// against the boxed ones (lattice.CheckRawAgreement and the raw tests), the
// structured operators take the same branches on words as on values, and the
// watchdog observes the same phases in the same order — so values, Stats,
// abort reports and checkpoints are identical across all three cores, and
// checkpoints (always boxed X-space on the wire) cross freely between them.
// The differential tests in internal/diffsolve pin this per solver, per
// domain, and across resume boundaries.
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
// access for scheduling, a step function for the hot loop, and the boxed
// boundary operations (results, checkpoints).
type execCore[X comparable, D any] interface {
	// shape exposes the memoized dense shape (order, CSR influence rows,
	// queue translation).
	shape() *denseShape[X, D]
	// stepper returns the step function of one run (PSW: one stratum): step(i)
	// evaluates unknown i under the eval guard, applies the update operator,
	// and stores the result, reporting whether the value changed, how many
	// evaluation attempts were made, and the evaluation error, if any. On an
	// error nothing is rolled forward — the failed evaluation never happened.
	stepper() func(i int) (changed bool, attempts int, ee *EvalError)
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

// boxedCore is the dense core with boxed values: compiled's []D assignment
// plus the pieces the step function needs. snapshot, restore, sigmaMap and
// release come from the embedded compiled.
type boxedCore[X comparable, D any] struct {
	*compiled[X, D]
	l lattice.Lattice[D]
	// op is the instrumented operator: the watchdog's phase hook is already
	// attached, so Apply both observes and combines.
	op Operator[X, D]
	g  *evalGuard
}

func (bc *boxedCore[X, D]) shape() *denseShape[X, D] { return bc.denseShape }

func (bc *boxedCore[X, D]) stepper() func(i int) (bool, int, *EvalError) {
	e := bc.evaluator()
	return func(i int) (bool, int, *EvalError) {
		x := bc.order[i]
		e.cur = i
		rhsVal, attempts, ee := guardedEval(bc.g, x, e.thunk)
		if ee != nil {
			return false, attempts, ee
		}
		next := bc.op.Apply(x, bc.vals[i], rhsVal)
		if bc.l.Eq(bc.vals[i], next) {
			return false, attempts, nil
		}
		bc.vals[i] = next
		return true, attempts, nil
	}
}

// rawCompiled is the unboxed twin of compiled: the assignment is one flat
// []uint64, stride words per unknown, indexed by order position.
type rawCompiled[X comparable, D any] struct {
	*denseShape[X, D]
	sys    *eqn.System[X, D]
	init   func(X) D
	raw    lattice.Raw[D]
	stride int
	// words is the assignment: unknown i lives at words[i*stride:(i+1)*stride].
	words []uint64
}

// rawCompile builds the unboxed store and encodes the initial assignment.
// It panics if an initial value has no raw encoding; buildCore catches that
// and falls back to the boxed core.
func rawCompile[X comparable, D any](sys *eqn.System[X, D], raw lattice.Raw[D], init func(X) D) *rawCompiled[X, D] {
	sh := sys.ShapeMemo(denseShapeKey, func() any { return buildDenseShape(sys) }).(*denseShape[X, D])
	stride := raw.RawWords()
	n := len(sh.order)
	var words []uint64
	if w, ok := sh.wordsPool.Get().([]uint64); ok && len(w) == n*stride {
		words = w
	} else {
		words = make([]uint64, n*stride)
	}
	rc := &rawCompiled[X, D]{denseShape: sh, sys: sys, init: init, raw: raw, stride: stride, words: words}
	for i, x := range sh.order {
		raw.RawEncode(words[i*stride:(i+1)*stride], init(x))
	}
	return rc
}

// tryRawCompile is rawCompile with the encode panic converted into a
// fallback signal: an initial assignment the encoding cannot represent
// (sentinel-colliding interval bounds, out-of-universe set elements) sends
// the solve to the boxed core instead of crashing.
func tryRawCompile[X comparable, D any](sys *eqn.System[X, D], raw lattice.Raw[D], init func(X) D) (rc *rawCompiled[X, D], ok bool) {
	defer func() {
		if r := recover(); r != nil {
			rc, ok = nil, false
		}
	}()
	return rawCompile(sys, raw, init), true
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
// the wire output is byte-identical to the boxed cores' on the same state —
// which is what lets a checkpoint captured here resume on either of them.
func (rc *rawCompiled[X, D]) snapshot(name string, st Stats) *Checkpoint[X, D] {
	cp := &Checkpoint[X, D]{Solver: name, SysFP: Fingerprint(rc.sys)}
	cp.Evals, cp.Updates, cp.Rounds, cp.MaxQueue, cp.Retries =
		st.Evals, st.Updates, st.Rounds, st.MaxQueue, st.Retries
	cp.Sigma = make([]CheckpointEntry[X, D], len(rc.order))
	for i, x := range rc.order {
		cp.Sigma[i] = CheckpointEntry[X, D]{X: x, V: rc.raw.RawDecode(rc.words[i*rc.stride : (i+1)*rc.stride])}
	}
	return cp
}

// restore encodes a checkpointed assignment into the word store. Entries for
// unknowns outside the system are ignored, like the boxed cores do. A value
// the encoding cannot represent — a boxed run may have checkpointed one —
// fails the restore with lattice.ErrUnencodable.
func (rc *rawCompiled[X, D]) restore(cp *Checkpoint[X, D]) (err error) {
	defer recoverUnencodable(&err)
	for _, e := range cp.Sigma {
		if j, ok := rc.idx[e.X]; ok {
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

// rawCore is the unboxed execution core: rawCompiled's word store plus the
// structured operator and the watchdog hook.
type rawCore[X comparable, D any] struct {
	*rawCompiled[X, D]
	// op is NOT instrumented — on the raw side the phase observation runs on
	// words (rawPhase) and is issued explicitly by the step function, in the
	// same before-apply position where observedOp.Apply issues it.
	op rawOperator[D]
	wd *watchdog[X]
	g  *evalGuard
}

func (rc *rawCore[X, D]) shape() *denseShape[X, D] { return rc.denseShape }

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

// rawEval is the reusable evaluation environment of one raw run (or, under
// PSW, of one stratum), the unboxed twin of denseEval: newv receives the
// right-hand-side value of the unknown cur points at when thunk runs.
type rawEval struct {
	cur   int
	newv  []uint64
	thunk func() struct{}
}

// evaluator builds the closure environment of one raw run. Per-evaluator
// scratch: newv receives the right-hand-side value, ext the encoding of an
// out-of-system read. One stratum owns one evaluator, so the buffers are
// never shared across goroutines.
func (rc *rawCore[X, D]) evaluator() *rawEval {
	stride := rc.stride
	words := rc.words
	raw := rc.raw
	e := &rawEval{newv: make([]uint64, stride)}
	ext := make([]uint64, stride)

	// getRaw translates a right-hand side's X-typed reads to word slices, the
	// raw twin of denseEval.get; out-of-system reads encode σ₀ into ext (the
	// returned slice is only valid until the next get, which fused right-hand
	// sides respect by consuming each read before the next).
	var getRaw func(X) []uint64
	if rc.identInt {
		n := len(rc.order)
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
	// getBoxed is the boundary adapter for right-hand sides without a fused
	// raw form: decode on read, evaluate boxed, encode the result.
	getBoxed := func(y X) D {
		if j, ok := rc.idx[y]; ok {
			return raw.RawDecode(words[j*stride : (j+1)*stride])
		}
		return rc.init(y)
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

func (rc *rawCore[X, D]) stepper() func(i int) (bool, int, *EvalError) {
	stride := rc.stride
	words := rc.words
	raw := rc.raw
	e := rc.evaluator()
	// res receives the combined result of each step.
	res := make([]uint64, stride)
	return func(i int) (bool, int, *EvalError) {
		e.cur = i
		x := rc.order[i]
		_, attempts, ee := guardedEval(rc.g, x, e.thunk)
		if ee != nil {
			return false, attempts, ee
		}
		old := words[i*stride : (i+1)*stride]
		if rc.wd != nil {
			rc.wd.observe(x, rawPhase(raw, old, e.newv))
		}
		rc.op.rawApply(raw, res, old, e.newv)
		if raw.RawEq(old, res) {
			return false, attempts, nil
		}
		copy(old, res)
		return true, attempts, nil
	}
}

// atomicWords is the racy-but-atomic word store of the chaotic solver: the
// same flat stride-words-per-unknown layout as rawCompiled, but every access
// goes through sync/atomic so concurrent workers can read a slot while its
// single writer (CPW's claim protocol guarantees at most one) replaces it.
//
// For single-word domains (flat, sign, parity, powerset) an atomic load IS a
// consistent snapshot. For wider strides a per-unknown seqlock removes torn
// values entirely: the writer makes the version odd, stores the words, and
// makes it even again; a reader retries until it sees the same even version
// on both sides of its copy. Readers therefore always observe some value the
// slot actually held — possibly a stale one, which chaotic warrowing
// tolerates by construction (a staleness-induced change re-queues the
// reader), but never a bit-mix of two values, which nothing tolerates.
type atomicWords struct {
	stride int
	// words is the assignment: unknown i lives at words[i*stride:(i+1)*stride].
	words []uint64
	// seq holds the per-unknown seqlock versions; nil when stride == 1 and
	// plain atomic word access already yields consistent snapshots.
	seq []atomic.Uint32
}

func newAtomicWords(n, stride int) *atomicWords {
	a := &atomicWords{stride: stride, words: make([]uint64, n*stride)}
	if stride > 1 {
		a.seq = make([]atomic.Uint32, n)
	}
	return a
}

// load copies unknown i's value into dst (len ≥ stride) as a consistent
// snapshot.
func (a *atomicWords) load(i int, dst []uint64) {
	base := i * a.stride
	if a.seq == nil {
		dst[0] = atomic.LoadUint64(&a.words[base])
		return
	}
	for {
		v := a.seq[i].Load()
		if v&1 == 0 {
			for k := 0; k < a.stride; k++ {
				dst[k] = atomic.LoadUint64(&a.words[base+k])
			}
			if a.seq[i].Load() == v {
				return
			}
		}
		// A write is in flight; yield so its goroutine can finish even on
		// GOMAXPROCS=1.
		runtime.Gosched()
	}
}

// store publishes src (len ≥ stride) as unknown i's value. Only one
// goroutine may store to a given slot at a time — CPW's running claim is
// what enforces that.
func (a *atomicWords) store(i int, src []uint64) {
	base := i * a.stride
	if a.seq == nil {
		atomic.StoreUint64(&a.words[base], src[0])
		return
	}
	a.seq[i].Add(1) // odd: write in flight
	for k := 0; k < a.stride; k++ {
		atomic.StoreUint64(&a.words[base+k], src[k])
	}
	a.seq[i].Add(1) // even: published
}

// redoBoxed runs a compiled solve and covers the unboxed core's one gap: a
// value its words cannot hold (an interval bound at the int64 extremes, a
// set element outside the universe), whether the resume checkpoint carries
// it or an evaluation computes it. The word store then fails the run with
// lattice.ErrUnencodable, and redoBoxed runs the solve again from the same
// starting point on the boxed dense core, which holds every value. Up to
// that value both cores run identically, and right-hand sides are pure
// (eqn.RHS), so the redo answers exactly as a boxed solve would — values,
// Stats, abort report and checkpoint — and core selection never changes an
// answer. A stateful right-hand side, such as a chaos fault injector,
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

// buildCore picks the value representation for a compiled solve and builds
// the core together with its watchdog. The unboxed store requires all three
// of: a core selection that allows it (anything but CoreDense), a structured
// update operator, and a lattice with a raw encoding whose initial
// assignment encodes cleanly; any miss falls back to boxed values with the
// exact pre-unboxed behavior.
func buildCore[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, cfg Config) (execCore[X, D], *watchdog[X]) {
	if cfg.Core != CoreDense {
		if ro, ok := op.(rawOperator[D]); ok {
			if raw := lattice.AsRaw[D](l); raw != nil {
				if rc, ok := tryRawCompile(sys, raw, init); ok {
					wd := newWatchdog(cfg, rc.idx)
					return &rawCore[X, D]{rawCompiled: rc, op: ro, wd: wd, g: newEvalGuard(cfg)}, wd
				}
			}
		}
	}
	c := compile(sys, init)
	wd := newWatchdog(cfg, c.idx)
	return &boxedCore[X, D]{compiled: c, l: l, op: instrument(wd, l, op), g: newEvalGuard(cfg)}, wd
}
