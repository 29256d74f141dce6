package diffsolve

import (
	"fmt"

	"warrow/internal/ckptcodec"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/serve"
	"warrow/internal/serve/proto"
	"warrow/internal/solver"
)

// This file is the served-vs-local column of the differential harness: the
// same eqgen workload is solved in-process and through a live eqsolved
// daemon, and the two runs must agree bit-for-bit — same termination
// status, same encoded values, same Evals and Updates — even when the
// served solve was preempted at quantum boundaries and resumed from
// checkpoints along the way. The daemon fixes ⊟ with the diffsolve
// conventions (ConstBottom init, serve.SolveWorkers workers), and every local
// control runs with the same settings, so agreement is exact identity, not
// up-to-post-solution equivalence.

// CheckServed solves the recipe with each named solver locally and through
// the client's daemon, and returns the first disagreement. maxEvals bounds
// both sides identically, so budgeted aborts must match too.
func CheckServed(c *serve.Client, cfg eqgen.Config, solvers []string, maxEvals int) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Flat != nil:
		err = checkServedTyped(c, cfg, g.Flat, eqgen.FlatL, ckptcodec.FlatCodec(), solvers, maxEvals)
	case g.Powerset != nil:
		err = checkServedTyped(c, cfg, g.Powerset, eqgen.PowersetL(), ckptcodec.PowersetCodec(), solvers, maxEvals)
	default:
		err = checkServedTyped(c, cfg, g.Interval, lattice.Ints, ckptcodec.IntervalCodec(), solvers, maxEvals)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", g.Shape.Cfg, err)
	}
	return nil
}

func checkServedTyped[D any](c *serve.Client, cfg eqgen.Config, sys *eqn.System[int, D],
	l lattice.Lattice[D], codec solver.Codec[int, D], solvers []string, maxEvals int) error {

	op := solver.Op[int](solver.Warrow[D](l))
	init := eqn.ConstBottom[int, D](l)
	for _, name := range solvers {
		scfg := solver.Config{MaxEvals: maxEvals, Workers: serve.SolveWorkers}
		sigma, st, lerr := solver.Run(name, sys, l, op, init, scfg)

		resp, derr := c.Do(&proto.Request{Solver: name, Source: proto.SourceGen, Gen: &cfg, MaxEvals: maxEvals})
		if derr != nil {
			return fmt.Errorf("%s: served request died: %w", name, derr)
		}
		if resp.Status == proto.StatusRejected {
			return fmt.Errorf("%s: served request rejected: %s", name, resp.Reason)
		}

		if lerr != nil {
			lrep, ok := solver.ReportOf(lerr)
			if !ok {
				return fmt.Errorf("%s: local run failed structurally: %w", name, lerr)
			}
			if resp.Status != proto.StatusAborted {
				return fmt.Errorf("%s: local aborted (%s) but served %s", name, lrep.Reason, resp.Status)
			}
			if resp.Abort.Reason != lrep.Reason {
				return fmt.Errorf("%s: abort reason served %s != local %s", name, resp.Abort.Reason, lrep.Reason)
			}
			// Aborted runs stop at the same evaluation count on both sides.
			// Updates are compared only for the sequential solvers: PSW's
			// abort-time update count depends on worker interleaving (the
			// same concession Check makes for psw-vs-sw aborts).
			if resp.Stats.Evals != st.Evals {
				return fmt.Errorf("%s: aborted at %d evals served, %d local", name, resp.Stats.Evals, st.Evals)
			}
			if name != "psw" && resp.Stats.Updates != st.Updates {
				return fmt.Errorf("%s: aborted updates served %d != local %d", name, resp.Stats.Updates, st.Updates)
			}
			continue
		}
		if resp.Status != proto.StatusCompleted {
			return fmt.Errorf("%s: local completed but served %s (%v)", name, resp.Status, resp.Abort)
		}
		if resp.Stats.Evals != st.Evals || resp.Stats.Updates != st.Updates {
			return fmt.Errorf("%s: stats served %d/%d != local %d/%d",
				name, resp.Stats.Evals, resp.Stats.Updates, st.Evals, st.Updates)
		}
		if len(resp.Values) != len(sigma) {
			return fmt.Errorf("%s: served %d values, local %d", name, len(resp.Values), len(sigma))
		}
		for _, x := range sys.Order() {
			want := codec.EncodeD(sigma[x])
			if got := resp.Values[codec.EncodeX(x)]; got != want {
				return fmt.Errorf("%s: value of %d served %q != local %q", name, x, got, want)
			}
		}
	}
	return nil
}

// CheckServedResume interrupts a served solve with a small budget, resumes
// it through the client-visible checkpoint handle (Response.Checkpoint, fed
// back via Request.Checkpoint), and requires the stitched-together result to
// be bit-identical to one uninterrupted local run — values, Evals and
// Updates, with the budget cumulative across the interruption.
func CheckServedResume(c *serve.Client, cfg eqgen.Config, name string, interruptAt int) error {
	g := eqgen.New(cfg)
	var err error
	switch {
	case g.Flat != nil:
		err = checkResumeTyped(c, cfg, g.Flat, eqgen.FlatL, ckptcodec.FlatCodec(), name, interruptAt)
	case g.Powerset != nil:
		err = checkResumeTyped(c, cfg, g.Powerset, eqgen.PowersetL(), ckptcodec.PowersetCodec(), name, interruptAt)
	default:
		err = checkResumeTyped(c, cfg, g.Interval, lattice.Ints, ckptcodec.IntervalCodec(), name, interruptAt)
	}
	if err != nil {
		return fmt.Errorf("%s resume: %w", g.Shape.Cfg, err)
	}
	return nil
}

func checkResumeTyped[D any](c *serve.Client, cfg eqgen.Config, sys *eqn.System[int, D],
	l lattice.Lattice[D], codec solver.Codec[int, D], name string, interruptAt int) error {

	first, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceGen, Gen: &cfg, MaxEvals: interruptAt})
	if err != nil {
		return err
	}
	if first.Status != proto.StatusAborted || first.Abort.Reason != solver.AbortBudget {
		return fmt.Errorf("interrupting solve: %s (want a budget abort at %d evals)", first.Status, interruptAt)
	}
	if first.Checkpoint == "" {
		return fmt.Errorf("interrupted solve carries no checkpoint handle")
	}
	second, err := c.Do(&proto.Request{Solver: name, Source: proto.SourceGen, Gen: &cfg,
		Checkpoint: first.Checkpoint})
	if err != nil {
		return err
	}
	if second.Status != proto.StatusCompleted {
		return fmt.Errorf("resumed solve: %s (%v)", second.Status, second.Abort)
	}

	op := solver.Op[int](solver.Warrow[D](l))
	init := eqn.ConstBottom[int, D](l)
	sigma, st, lerr := solver.Run(name, sys, l, op, init, solver.Config{Workers: serve.SolveWorkers})
	if lerr != nil {
		return fmt.Errorf("local control run: %w", lerr)
	}
	if second.Stats.Evals != st.Evals || second.Stats.Updates != st.Updates {
		return fmt.Errorf("stitched stats %d/%d != uninterrupted local %d/%d",
			second.Stats.Evals, second.Stats.Updates, st.Evals, st.Updates)
	}
	for _, x := range sys.Order() {
		want := codec.EncodeD(sigma[x])
		if got := second.Values[codec.EncodeX(x)]; got != want {
			return fmt.Errorf("value of %d after resume %q != local %q", x, got, want)
		}
	}
	return nil
}
