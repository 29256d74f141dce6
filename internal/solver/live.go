package solver

import (
	"fmt"
	"slices"
	"time"

	"warrow/internal/eqn"
	"warrow/internal/lattice"
)

// Live is a value store that persists between solves of one system: the
// incremental engine's live assignment (internal/incr), kept by order
// position in the store Run would pick — the word store where the lattice
// has a raw encoding and the operator is structured, boxed values
// otherwise. It runs RR, W, SRR, SW or PSW.
//
// Solve runs the whole system on the store and leaves the solution there.
// SolveCone then re-solves a dirty cone in place, with SRR, SW or PSW only:
// a cone is exact for the structured solvers alone (DESIGN.md §12). Its
// members restart from σ₀, every read of an unknown outside the cone loads
// that unknown's stored final from its slot, and only the members' new
// values are written to the caller's map. The cone runs the solver's own
// loop over a scope of the parent's compiled shape (see scope): local
// positions over the members, influence rows restricted to them. Values,
// Stats, abort reports and checkpoints are therefore those of a solve of
// the subsystem the members induce, with every other unknown pinned at its
// final — which, by stratum-compositionality, is the scratch solve's
// (DESIGN.md §12). A checkpoint of a cone fingerprints that subsystem, so
// it resumes only on the same cone.
//
// The caller's map is its copy of the solution: a completed run writes the
// values of its unknowns that changed to the map it is given, so every run
// after the first completed one must be given the same map. A run that
// fails or aborts puts its unknowns' slots back as it found them, so the
// store always holds the last completed solution. A value the words cannot
// hold, σ₀ included, and Config.Core = CoreDense convert the store to
// boxed values for good, an O(n) step; the run is then redone on them as
// redoBoxed does for any solve.
//
// A Live is not safe for concurrent use; like the system it solves, it
// expects edits and solves to be serialized.
type Live[X comparable, D any] struct {
	sys  *eqn.System[X, D]
	l    lattice.Lattice[D]
	op   Operator[X, D]
	init func(X) D
	name string

	// s is the store, made by the first run and never released.
	s *store[X, D]
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
// solver ("rr", "w", "srr", "sw" or "psw"), update operator op and initial
// assignment init. init is consulted on every run, so it may change
// between runs.
func NewLive[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op Operator[X, D], init func(X) D, name string) (*Live[X, D], error) {
	switch name {
	case "rr", "w", "srr", "sw", "psw":
	default:
		return nil, fmt.Errorf("solver: no live store for %q (want rr, w, srr, sw or psw)", name)
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
// and on success writes the members' values to vals. It refuses RR and W,
// whose sweeps read cross-stratum intermediates, so that no cone of theirs
// is exact.
func (lv *Live[X, D]) SolveCone(members []int, cfg Config, vals map[X]D) (Stats, error) {
	if lv.name == "rr" || lv.name == "w" {
		return Stats{}, fmt.Errorf("solver: %s cannot re-solve a cone (only srr, sw and psw solve one exactly)", lv.name)
	}
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
	s := lv.fit(cfg)
	s.sc = lv.scopeOf(s.denseShape, pos)
	lv.save()
	var st Stats
	err := s.reset()
	if err == nil {
		// The watchdog breaks ties by order position; local positions are
		// ascending in it, so a cone's reports rank as the subsystem's
		// would.
		vc, wd := newCore(s, lv.l, lv.op, cfg)
		lp, _ := loopOf[X, D](lv.name)
		st, err = lp(vc, wd, cfg, start)
	}
	if err != nil {
		lv.restore()
		return st, err
	}
	lv.write(vals)
	if pos == nil {
		lv.solved = s.sc.n
	}
	return st, nil
}

// fit makes the store on the first run, or sizes it for the system's
// unknowns. The first run picks words where wordsFor allows them, as Run
// does, and boxed values otherwise; a later run it disallows them for
// (CoreDense) converts the store to boxed values. When the system has
// grown, fit appends slots for the new unknowns, which every run that
// reads them solves first.
func (lv *Live[X, D]) fit(cfg Config) *store[X, D] {
	raw := wordsFor(lv.l, lv.op, cfg)
	if lv.s == nil {
		lv.s = newStore(lv.sys, lv.init, raw, false)
	} else if raw == nil && lv.s.words != nil {
		lv.s.box()
		lv.savedWords = nil
	}
	s := lv.s
	s.denseShape = shapeOf(lv.sys)
	if n := len(s.order); s.words != nil && len(s.words) < n*s.stride {
		s.words = append(s.words, make([]uint64, n*s.stride-len(s.words))...)
	} else if s.words == nil && len(s.vals) < n {
		s.vals = append(s.vals, make([]D, n-len(s.vals))...)
	}
	return s
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
func (lv *Live[X, D]) save() {
	s, sc := lv.s, &lv.s.sc
	if s.words == nil {
		lv.savedVals = slices.Grow(lv.savedVals[:0], sc.n)[:sc.n]
		for k := range lv.savedVals {
			lv.savedVals[k] = s.vals[sc.parent(k)]
		}
		return
	}
	w := s.stride
	lv.savedWords = slices.Grow(lv.savedWords[:0], sc.n*w)[:sc.n*w]
	if sc.pos == nil {
		copy(lv.savedWords, s.words)
		return
	}
	for k, p := range sc.pos {
		copy(lv.savedWords[k*w:(k+1)*w], s.slot(p))
	}
}

// restore puts back the slots save copied aside.
func (lv *Live[X, D]) restore() {
	s, sc := lv.s, &lv.s.sc
	if s.words == nil {
		for k, v := range lv.savedVals {
			s.vals[sc.parent(k)] = v
		}
		return
	}
	w := s.stride
	for k := 0; k < sc.n; k++ {
		copy(s.slot(sc.parent(k)), lv.savedWords[k*w:(k+1)*w])
	}
}

// write writes the scope's values to vals after a completed run. On the
// word store a slot that ends where it started, and that a completed Solve
// filled, already has its value in vals and is skipped: most of a cone's
// members end at their previous finals.
func (lv *Live[X, D]) write(vals map[X]D) {
	s, sc := lv.s, &lv.s.sc
	w := s.stride
	for k := 0; k < sc.n; k++ {
		p := sc.parent(k)
		if s.words != nil && p < lv.solved && slices.Equal(s.slot(p), lv.savedWords[k*w:(k+1)*w]) {
			continue
		}
		vals[s.order[p]] = s.value(p)
	}
}
