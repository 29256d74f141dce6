package diffsolve

import (
	"fmt"

	"warrow/internal/certify"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/incr"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// This file is the differential verdict for the incremental re-solve engine
// (internal/incr). The claim under test is the engine's exactness contract:
// after any batch of equation redefinitions and initial-value perturbations,
// the merged incremental result is bit-identical — values, and for the
// full-re-solve solvers also Stats — to re-running the same solver from
// scratch on the edited system, for every solver × core × workers
// configuration. The edits come from eqgen.Mutate, so a failing case is a
// complete reproduction recipe: (generator config, edit seed).

// incrGenerations is the number of edit batches CheckIncremental pushes
// through every engine: enough to certify that baselines compound correctly
// (generation k re-solves on top of generation k-1's merged result, not on
// the original solve).
const incrGenerations = 3

// editRNG is a splitmix64 stream for deriving edit batches; deliberately the
// same generator family eqgen uses, duplicated here because eqgen's stream
// is internal to its shapes.
type editRNG struct{ s uint64 }

func (r *editRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *editRNG) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// incrEngine is one cell of the incremental test matrix: an engine plus the
// solver configuration it always runs under.
type incrEngine[D any] struct {
	name string
	e    *incr.Engine[int, D]
	cfg  solver.Config
	dead bool // diverged (acceptable abort): skipped for the rest of the run
}

// buildIncrMatrix builds the engine matrix over one shared system: RR, W,
// SRR and SW on each value store, PSW once per worker count (CoreAuto). All engines share the system object, so journaled edits made
// by eqgen.Mutate reach every engine — and every engine exercises the same
// memoized compiled shape, including in-place patching.
func buildIncrMatrix[D any](l lattice.Lattice[D], sys *eqn.System[int, D], opt Options) ([]incrEngine[D], error) {
	init := eqn.ConstBottom[int, D](l)
	var out []incrEngine[D]
	for _, name := range []string{"rr", "w", "srr", "sw"} {
		for _, core := range stores {
			e, err := incr.New(l, sys, init, name)
			if err != nil {
				return nil, err
			}
			cfg := solver.Config{MaxEvals: opt.MaxEvals, Core: core}
			out = append(out, incrEngine[D]{name: name + "/" + core.String(), e: e, cfg: cfg})
		}
	}
	for _, wk := range opt.Workers {
		e, err := incr.New(l, sys, init, "psw")
		if err != nil {
			return nil, err
		}
		cfg := solver.Config{MaxEvals: opt.MaxEvals, Workers: wk}
		out = append(out, incrEngine[D]{name: fmt.Sprintf("psw/w=%d", wk), e: e, cfg: cfg})
	}
	return out, nil
}

// checkIncremental is the generic core of the incremental verdict. For every
// engine in the matrix it demands, per edit generation:
//
//   - the incremental result's values are bit-identical to a from-scratch
//     run of the same solver on the edited system (same core, same workers,
//     same live initial assignment);
//   - the incremental result certifies as a post-solution of the edited
//     system;
//   - the delta accounting is coherent: DirtyUnknowns + ReusedUnknowns is
//     the system size, and for the structured solvers the incremental Evals
//     never exceed the scratch Evals (stratum-compositionality makes the
//     cone re-solve a subset of the scratch work), while for RR and W —
//     which re-solve in full — Stats match scratch exactly;
//   - an incremental abort is only acceptable if the scratch run aborts on
//     the same budget too (the subset property in contrapositive).
//
// Engines whose workload diverges (acceptable abort) are marked dead and
// skipped — with ⊟, RR and W may legitimately diverge, and on deliberately
// non-monotonic systems any solver may.
func checkIncremental[D any](l lattice.Lattice[D], g eqgen.System, sys *eqn.System[int, D], editSeed uint64, opt Options, perturb func(u uint64) D) error {
	opt = opt.defaults()
	engines, err := buildIncrMatrix(l, sys, opt)
	if err != nil {
		return err
	}
	n := sys.Len()

	for i := range engines {
		en := &engines[i]
		if _, err := en.e.Solve(en.cfg); err != nil {
			if acceptableAbort(err) {
				en.dead = true
				continue
			}
			return fmt.Errorf("%s: initial solve: %w", en.name, err)
		}
	}

	r := &editRNG{s: editSeed ^ 0x6a09e667f3bcc909}
	for gen := 0; gen < incrGenerations; gen++ {
		k := 1 + r.intn(8)
		edited := eqgen.Mutate(g, r.next(), k)
		if len(edited) == 0 {
			return fmt.Errorf("gen %d: Mutate produced no edits", gen)
		}
		if r.next()%2 == 0 {
			// Half the generations also perturb one initial value, applied
			// identically to every engine so their live inits stay equal.
			px, pv := r.intn(n), perturb(r.next())
			for i := range engines {
				engines[i].e.Apply(incr.Perturb(px, pv))
			}
		}

		for i := range engines {
			en := &engines[i]
			if en.dead {
				continue
			}
			res, rerr := en.e.Resolve(en.cfg)
			scratch, scratchSt, serr := solver.Run(en.e.SolverName(), sys, l, solver.WarrowOp[int](l), en.e.Init(), en.cfg)
			if rerr != nil {
				if !acceptableAbort(rerr) {
					return fmt.Errorf("%s gen %d: resolve: %w", en.name, gen, rerr)
				}
				// Incremental work is a subset of scratch work, so the
				// scratch run must have hit the same budget.
				if serr == nil {
					return fmt.Errorf("%s gen %d: incremental aborted (%v) but scratch terminated in %d evals",
						en.name, gen, rerr, scratchSt.Evals)
				}
				en.dead = true
				continue
			}
			if serr != nil {
				if !acceptableAbort(serr) {
					return fmt.Errorf("%s gen %d: scratch control: %w", en.name, gen, serr)
				}
				// Scratch diverged where the incremental run terminated —
				// for rr/w the runs are identical, so this cannot happen;
				// for the structured solvers it cannot either (subset).
				return fmt.Errorf("%s gen %d: incremental terminated in %d evals but scratch aborted: %v",
					en.name, gen, res.Stats.Evals, serr)
			}
			if res.DirtyUnknowns+res.ReusedUnknowns != n {
				return fmt.Errorf("%s gen %d: dirty %d + reused %d != n %d",
					en.name, gen, res.DirtyUnknowns, res.ReusedUnknowns, n)
			}
			name := en.e.SolverName()
			if name == "rr" || name == "w" {
				if res.ReusedUnknowns != 0 {
					return fmt.Errorf("%s gen %d: generic solver reported %d reused unknowns", en.name, gen, res.ReusedUnknowns)
				}
				if res.Stats.Evals != scratchSt.Evals || res.Stats.Updates != scratchSt.Updates {
					return fmt.Errorf("%s gen %d: full re-solve evals/updates %d/%d differ from scratch %d/%d",
						en.name, gen, res.Stats.Evals, res.Stats.Updates, scratchSt.Evals, scratchSt.Updates)
				}
			} else {
				if res.Stats.Evals > scratchSt.Evals {
					return fmt.Errorf("%s gen %d: incremental evals %d exceed scratch %d",
						en.name, gen, res.Stats.Evals, scratchSt.Evals)
				}
			}
			for _, x := range sys.Order() {
				if !l.Eq(res.Values[x], scratch[x]) {
					return fmt.Errorf("%s gen %d: value of %v = %s, scratch = %s",
						en.name, gen, x, l.Format(res.Values[x]), l.Format(scratch[x]))
				}
			}
			if rep := certify.System(l, sys, res.Values, en.e.Init()); rep.Err() != nil {
				return fmt.Errorf("%s gen %d: incremental result does not certify: %w", en.name, gen, rep.Err())
			}
		}
	}
	return nil
}

// CheckGeneratedIncremental generates the system for an eqgen reproduction
// recipe and runs the incremental verdict with editSeed-derived edit batches
// — the shared entry point of the property tests and FuzzIncremental. Errors
// carry both halves of the reproduction recipe.
func CheckGeneratedIncremental(cfg eqgen.Config, editSeed uint64, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		err = checkIncremental(lattice.Ints, g, g.Interval, editSeed, opt, func(u uint64) lattice.Interval {
			lo := int64(u % 32)
			return lattice.Range(lo, lo+int64((u>>8)%64))
		})
	case g.Flat != nil:
		err = checkIncremental(eqgen.FlatL, g, g.Flat, editSeed, opt, func(u uint64) lattice.Flat[int64] {
			return lattice.FlatOf(int64(u % 9))
		})
	case g.Powerset != nil:
		err = checkIncremental(eqgen.PowersetL(), g, g.Powerset, editSeed, opt, func(u uint64) lattice.Set[int] {
			return lattice.NewSet(int(u%16), int((u>>8)%16))
		})
	}
	if err != nil {
		return fmt.Errorf("%s editSeed=%d: %w", g.Shape.Cfg, editSeed, err)
	}
	return nil
}

// checkIncrementalResume is the checkpoint column of the incremental
// verdict: an incremental re-solve interrupted mid-cone must resume to the
// exact result of an uninterrupted incremental run — which in turn matches a
// from-scratch solve of the edited system. Checkpoints round-trip through
// the wire codec, and every other resume switches value store, so a
// checkpoint taken on one store restarts the cone on the other.
func checkIncrementalResume[D any](l lattice.Lattice[D], g eqgen.System, sys *eqn.System[int, D], editSeed uint64, opt Options, codec solver.Codec[int, D]) error {
	opt = opt.defaults()
	init := eqn.ConstBottom[int, D](l)
	cfg := solver.Config{MaxEvals: opt.MaxEvals}

	// One reference engine plus one engine per abort point, per solver, all
	// created and solved before the edit lands so each holds the same
	// pre-edit baseline. abortPoints yields at most 3 budgets.
	type column struct {
		name   string
		cfg    solver.Config
		ref    *incr.Engine[int, D]
		aborts []*incr.Engine[int, D]
	}
	var cols []column
	for _, name := range []string{"srr", "sw", "psw"} {
		c := column{name: name, cfg: cfg}
		if name == "psw" {
			c.cfg.Workers = 2
			c.name = "psw/w=2"
		}
		var err error
		if c.ref, err = incr.New(l, sys, init, name); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			e, err := incr.New(l, sys, init, name)
			if err != nil {
				return err
			}
			c.aborts = append(c.aborts, e)
		}
		cols = append(cols, c)
	}
	for _, c := range cols {
		for _, e := range append([]*incr.Engine[int, D]{c.ref}, c.aborts...) {
			if _, err := e.Solve(c.cfg); err != nil {
				if acceptableAbort(err) {
					return nil // diverged workload: nothing to interrupt
				}
				return fmt.Errorf("%s: initial solve: %w", c.name, err)
			}
		}
	}

	r := &editRNG{s: editSeed ^ 0xbb67ae8584caa73b}
	if len(eqgen.Mutate(g, r.next(), 1+r.intn(4))) == 0 {
		return fmt.Errorf("Mutate produced no edits")
	}

	for _, c := range cols {
		refRes, err := c.ref.Resolve(c.cfg)
		if err != nil {
			if acceptableAbort(err) {
				continue // edited workload diverged for this solver
			}
			return fmt.Errorf("%s: reference resolve: %w", c.name, err)
		}
		if refRes.Stats.Evals < 2 {
			continue
		}
		for bi, budget := range abortPoints(refRes.Stats.Evals) {
			e := c.aborts[bi]
			ac := c.cfg
			ac.MaxEvals = budget
			_, aerr := e.Resolve(ac)
			if aerr == nil {
				return fmt.Errorf("%s: budget %d of %d did not abort", c.name, budget, refRes.Stats.Evals)
			}
			cp, ok := solver.CheckpointOf[int, D](aerr)
			if !ok {
				return fmt.Errorf("%s: abort at budget %d carries no checkpoint: %w", c.name, budget, aerr)
			}
			data, merr := solver.MarshalCheckpoint(cp, codec)
			if merr != nil {
				return fmt.Errorf("%s: marshal at budget %d: %w", c.name, budget, merr)
			}
			if cp, merr = solver.UnmarshalCheckpoint[int, D](data, codec); merr != nil {
				return fmt.Errorf("%s: unmarshal at budget %d: %w", c.name, budget, merr)
			}
			rc := c.cfg
			rc.Resume = cp
			if rc.Workers == 0 && bi%2 == 0 {
				// Cross stores on resume: the checkpoint speaks X-space.
				rc.Core = solver.CoreDense
			}
			got, rerr := e.Resolve(rc)
			if rerr != nil {
				return fmt.Errorf("%s: resume from budget %d failed: %w", c.name, budget, rerr)
			}
			if got.Stats.Evals != refRes.Stats.Evals || got.Stats.Updates != refRes.Stats.Updates {
				return fmt.Errorf("%s: resumed from budget %d with evals/updates %d/%d, uninterrupted %d/%d",
					c.name, budget, got.Stats.Evals, got.Stats.Updates, refRes.Stats.Evals, refRes.Stats.Updates)
			}
			if got.DirtyUnknowns != refRes.DirtyUnknowns || got.ConeStrata != refRes.ConeStrata {
				return fmt.Errorf("%s: resumed cone dirty/strata %d/%d differ from uninterrupted %d/%d",
					c.name, got.DirtyUnknowns, got.ConeStrata, refRes.DirtyUnknowns, refRes.ConeStrata)
			}
			for _, x := range sys.Order() {
				if !l.Eq(got.Values[x], refRes.Values[x]) {
					return fmt.Errorf("%s: resumed from budget %d: value of %v = %s, uninterrupted %s",
						c.name, budget, x, l.Format(got.Values[x]), l.Format(refRes.Values[x]))
				}
			}
			if rep := certify.System(l, sys, got.Values, e.Init()); rep.Err() != nil {
				return fmt.Errorf("%s: resumed result from budget %d does not certify: %w", c.name, budget, rep.Err())
			}
		}
		// The uninterrupted incremental result must itself match scratch.
		scratch, _, serr := solver.Run(c.ref.SolverName(), sys, l, solver.WarrowOp[int](l), c.ref.Init(), c.cfg)
		if serr != nil {
			return fmt.Errorf("%s: scratch control: %w", c.name, serr)
		}
		for _, x := range sys.Order() {
			if !l.Eq(refRes.Values[x], scratch[x]) {
				return fmt.Errorf("%s: incremental value of %v = %s, scratch = %s",
					c.name, x, l.Format(refRes.Values[x]), l.Format(scratch[x]))
			}
		}
	}
	return nil
}

// CheckGeneratedIncrementalResume runs the interrupted-incremental verdict
// on a generated system, wiring in the domain's wire-format codec.
func CheckGeneratedIncrementalResume(cfg eqgen.Config, editSeed uint64, opt Options) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Interval != nil:
		err = checkIncrementalResume(lattice.Ints, g, g.Interval, editSeed, opt, ckptcodec.IntervalCodec())
	case g.Flat != nil:
		err = checkIncrementalResume(eqgen.FlatL, g, g.Flat, editSeed, opt, ckptcodec.FlatCodec())
	case g.Powerset != nil:
		err = checkIncrementalResume(eqgen.PowersetL(), g, g.Powerset, editSeed, opt, ckptcodec.PowersetCodec())
	}
	if err != nil {
		return fmt.Errorf("%s editSeed=%d: %w", g.Shape.Cfg, editSeed, err)
	}
	return nil
}
