package solver

import (
	"fmt"
	"slices"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// Live is a value store that persists between solves of one system with
// SRR, SW or PSW: the incremental engine's live assignment (internal/incr),
// kept by order position in the store buildCore would pick — the word
// store where the lattice has a raw encoding and the operator is
// structured, boxed values otherwise.
//
// Solve runs the whole system on the store and leaves the solution there.
// SolveCone then re-solves a dirty cone in place: its members restart from
// σ₀, every read of an unknown outside the cone loads that unknown's
// stored final from its slot, and only the members' new values are
// written to the caller's map. The cone runs the solver's own loop over a
// scope of the parent's compiled shape (see scope): local positions over
// the members, influence rows restricted to them. Values, Stats, abort
// reports and checkpoints are therefore those of a solve of the subsystem
// the members induce, with every other unknown pinned at its final —
// which, by stratum-compositionality, is the scratch solve's (DESIGN.md
// §12). A checkpoint of a cone fingerprints that subsystem, so it resumes
// only on the same cone.
//
// The caller's map is its copy of the solution: a completed run writes the
// values of its unknowns that changed to the map it is given, so every run
// after the first completed one must be given the same map. A run that
// fails or aborts puts its unknowns' slots back as it found them, so the
// store always holds the last completed solution. A value the words cannot
// hold, and Config.Core = CoreDense, convert the store to boxed values for
// good, an O(n) step; the run is then redone on them as redoBoxed does for
// any solve.
//
// A Live is not safe for concurrent use; like the system it solves, it
// expects edits and solves to be serialized.
type Live[X comparable, D any] struct {
	sys  *eqn.System[X, D]
	l    lattice.Lattice[D]
	op   Operator[X, D]
	init func(X) D
	name string

	// The store holds the unknown at order position p in
	// words[p*stride:(p+1)*stride] while words is non-nil, in vals[p]
	// otherwise; it is allocated by the first run.
	raw    lattice.Raw[D]
	ro     rawOperator[D]
	stride int
	words  []uint64
	vals   []D
	// solved is the number of leading slots a completed Solve filled; the
	// slots after it were appended for unknowns defined since, which no
	// map holds until a run solves them.
	solved int
	// savedWords and savedVals hold a run's slots as it found them, by
	// local position: put back if the run does not complete, and compared
	// with its results so that only changed values are written out.
	savedWords []uint64
	savedVals  []D
	// cone's rows and sparse index are reused by every cone scope.
	cone scope[X, D]
}

// NewLive returns an empty live store for solving sys with the named
// solver ("srr", "sw" or "psw"), update operator op and initial assignment
// init. init is consulted on every run, so it may change between runs.
func NewLive[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, name string) (*Live[X, D], error) {
	switch name {
	case "srr", "sw", "psw":
	default:
		return nil, fmt.Errorf("solver: no live store for %q (want srr, sw or psw)", name)
	}
	return &Live[X, D]{sys: sys, l: l, op: op, init: init, name: name}, nil
}

// Solve solves the whole system on the store, from σ₀ or from cfg.Resume,
// and on success writes every unknown's value to vals.
func (lv *Live[X, D]) Solve(cfg Config, vals map[X]D) (Stats, error) {
	return lv.solve(nil, cfg, vals)
}

// SolveCone re-solves the unknowns at the given order positions — a dirty
// cone, ascending, as Decomposition.Cone returns it — on the store, from σ₀
// or from cfg.Resume, reading every other unknown's value from the store,
// and on success writes the members' values to vals.
func (lv *Live[X, D]) SolveCone(members []int, cfg Config, vals map[X]D) (Stats, error) {
	if len(members) == 0 {
		return Stats{}, nil
	}
	return lv.solve(members, cfg, vals)
}

// solve runs the scope of pos (the whole system when nil), redone on boxed
// values if the word store cannot hold a value the run meets.
func (lv *Live[X, D]) solve(pos []int, cfg Config, vals map[X]D) (Stats, error) {
	_, st, err := redoBoxed(cfg, func(cfg Config) (map[X]D, Stats, error) {
		st, err := lv.run(pos, cfg, vals)
		return nil, st, err
	})
	return st, err
}

// run is one run of the solver's loop on the store.
func (lv *Live[X, D]) run(pos []int, cfg Config, vals map[X]D) (Stats, error) {
	start := time.Now()
	sh := shapeOf(lv.sys)
	lv.fit(len(sh.order), cfg)
	sc := lv.scopeOf(sh, pos)
	lv.save(&sc)
	if lv.reset(&sc) != nil {
		// A σ₀ the words cannot hold: as buildCore does, run on boxed
		// values.
		lv.restore(&sc)
		lv.box()
		lv.save(&sc)
		lv.reset(&sc)
	}
	vc, wd := lv.core(sh, sc, cfg)
	var st Stats
	var err error
	switch lv.name {
	case "srr":
		_, st, err = srrLoop(vc, wd, cfg)
	case "sw":
		_, st, err = swLoop(vc, wd, cfg)
	default:
		_, st, err = pswLoop(vc, wd, cfg, start)
	}
	if err != nil {
		lv.restore(&sc)
		return st, err
	}
	lv.write(&sc, vals)
	if pos == nil {
		lv.solved = sc.n
	}
	return st, nil
}

// fit picks the store's form and sizes it for n unknowns. The first run
// picks words where rawStoreFor allows them, as buildCore does, and boxed
// values otherwise; a later run it disallows them for (CoreDense) converts
// the store to boxed values. When the system has grown, fit appends slots
// for the new unknowns, which every run that reads them solves first.
func (lv *Live[X, D]) fit(n int, cfg Config) {
	raw, ro, words := rawStoreFor(lv.l, lv.op, cfg)
	switch {
	case lv.words == nil && lv.vals == nil && words:
		lv.raw, lv.ro, lv.stride = raw, ro, raw.RawWords()
		lv.words = make([]uint64, n*lv.stride)
	case lv.words == nil && lv.vals == nil:
		lv.vals = make([]D, n)
	case !words:
		lv.box()
	}
	if lv.words != nil && len(lv.words) < n*lv.stride {
		lv.words = append(lv.words, make([]uint64, n*lv.stride-len(lv.words))...)
	} else if lv.words == nil && len(lv.vals) < n {
		lv.vals = append(lv.vals, make([]D, n-len(lv.vals))...)
	}
}

// box converts a word store to boxed values.
func (lv *Live[X, D]) box() {
	if lv.words == nil {
		return
	}
	s := lv.stride
	lv.vals = make([]D, len(lv.words)/s)
	for p := range lv.vals {
		lv.vals[p] = lv.raw.RawDecode(lv.words[p*s : (p+1)*s])
	}
	lv.words, lv.savedWords = nil, nil
}

// scopeOf returns the scope of pos over sh: the whole system when pos is
// nil, else the cone, its rows filtered from the parent's into the reused
// buffers.
func (lv *Live[X, D]) scopeOf(sh *denseShape[X, D], pos []int) scope[X, D] {
	if pos == nil {
		return wholeScope(lv.sys, sh)
	}
	c := &lv.cone
	if n := len(sh.order); len(c.local) < n {
		c.local = append(c.local, make([]int32, n-len(c.local))...)
	}
	c.sh, c.sys, c.n, c.pos = sh, lv.sys, len(pos), pos
	for k, p := range pos {
		c.local[p] = int32(k)
	}
	c.off = append(c.off[:0], 0)
	c.dat = c.dat[:0]
	for _, p := range pos {
		// The parent row is p itself, then its readers ascending; its
		// members, renumbered, are the subsystem's row.
		for _, r := range sh.infl(p) {
			if k, ok := c.localOf(int(r)); ok {
				c.dat = append(c.dat, int32(k))
			}
		}
		c.off = append(c.off, int32(len(c.dat)))
	}
	return *c
}

// save copies the scope's slots aside, by local position.
func (lv *Live[X, D]) save(sc *scope[X, D]) {
	if lv.words == nil {
		lv.savedVals = slices.Grow(lv.savedVals[:0], sc.n)[:sc.n]
		for k := range lv.savedVals {
			lv.savedVals[k] = lv.vals[sc.parent(k)]
		}
		return
	}
	s := lv.stride
	lv.savedWords = slices.Grow(lv.savedWords[:0], sc.n*s)[:sc.n*s]
	if sc.pos == nil {
		copy(lv.savedWords, lv.words)
		return
	}
	for k, p := range sc.pos {
		copy(lv.savedWords[k*s:(k+1)*s], lv.words[p*s:(p+1)*s])
	}
}

// restore puts back the slots save copied aside.
func (lv *Live[X, D]) restore(sc *scope[X, D]) {
	if lv.words == nil {
		for k, v := range lv.savedVals {
			lv.vals[sc.parent(k)] = v
		}
		return
	}
	s := lv.stride
	for k := 0; k < sc.n; k++ {
		p := sc.parent(k)
		copy(lv.words[p*s:(p+1)*s], lv.savedWords[k*s:(k+1)*s])
	}
}

// write writes the scope's values to vals after a completed run. On the
// word store a slot that ends where it started, and that a completed Solve
// filled, already has its value in vals and is skipped: most of a cone's
// members end at their previous finals.
func (lv *Live[X, D]) write(sc *scope[X, D], vals map[X]D) {
	order := sc.sh.order
	if lv.words == nil {
		for k := 0; k < sc.n; k++ {
			p := sc.parent(k)
			vals[order[p]] = lv.vals[p]
		}
		return
	}
	s := lv.stride
	for k := 0; k < sc.n; k++ {
		p := sc.parent(k)
		w := lv.words[p*s : (p+1)*s]
		if p < lv.solved && slices.Equal(w, lv.savedWords[k*s:(k+1)*s]) {
			continue
		}
		vals[order[p]] = lv.raw.RawDecode(w)
	}
}

// reset sets the scope's unknowns to σ₀. On the word store it fails,
// wrapping lattice.ErrUnencodable, when the words cannot hold one of them.
func (lv *Live[X, D]) reset(sc *scope[X, D]) (err error) {
	order := sc.sh.order
	if lv.words != nil {
		defer recoverUnencodable(&err)
		s := lv.stride
		for k := 0; k < sc.n; k++ {
			p := sc.parent(k)
			lv.raw.RawEncode(lv.words[p*s:(p+1)*s], lv.init(order[p]))
		}
		return nil
	}
	for k := 0; k < sc.n; k++ {
		p := sc.parent(k)
		lv.vals[p] = lv.init(order[p])
	}
	return nil
}

// core builds the run's core over the store.
func (lv *Live[X, D]) core(sh *denseShape[X, D], sc scope[X, D], cfg Config) (execCore[X, D], *watchdog[X]) {
	// The watchdog breaks ties by order position; local positions are
	// ascending in it, so a cone's reports rank as the subsystem's would.
	var vc execCore[X, D]
	var wd *watchdog[X]
	if lv.words != nil {
		vc, wd = newRawCore(&rawCompiled[X, D]{denseShape: sh, sc: sc, init: lv.init, raw: lv.raw, stride: lv.stride, words: lv.words}, lv.ro, cfg)
	} else {
		vc, wd = newBoxedCore(&compiled[X, D]{denseShape: sh, sc: sc, init: lv.init, vals: lv.vals}, lv.l, lv.op, cfg)
	}
	return &liveCore[X, D]{vc}, wd
}

// liveCore is a core over a Live store. Its step functions take the
// scope's local positions, it renders no σ map — the store's owner reads
// the members' values itself — and its store goes back to no pool.
type liveCore[X comparable, D any] struct{ execCore[X, D] }

func (lc *liveCore[X, D]) stepper(phases bool) func(int, bool) (Phase, bool, int, *EvalError) {
	step := lc.execCore.stepper(phases)
	pos := lc.scope().pos
	if pos == nil {
		return step
	}
	return func(i int, accel bool) (Phase, bool, int, *EvalError) { return step(pos[i], accel) }
}

func (*liveCore[X, D]) sigmaMap() map[X]D { return nil }

func (*liveCore[X, D]) release() {}
