// Package serve implements the eqsolved daemon: a long-running solve
// service multiplexing many concurrent solves over a bounded worker pool,
// with admission control, per-request deadlines and quantum-based
// preempt/resume scheduling on top of the solver library's checkpoint
// machinery.
package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"warrow/internal/chaos"
	"warrow/internal/ckptcodec"
	"warrow/internal/eqdsl"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/serve/proto"
	"warrow/internal/solver"
)

// SolveWorkers is the Config.Workers of every served solve, which only PSW
// and CPW read. The daemon already multiplexes requests across its own
// worker pool, so each solve gets a small fixed pool instead of GOMAXPROCS.
// A local control run with the same setting reproduces a served PSW solve's
// Stats; CPW results are certified rather than bit-pinned, so for CPW the
// fixed size buys bounded goroutine fan-out, not reproducibility.
const SolveWorkers = 2

// outcome is the result of one scheduling slice of a job.
type outcome struct {
	// final: the job reached a terminal state and resp is ready. When
	// false, the job checkpointed at its quantum boundary and must be
	// requeued.
	final bool
	resp  *proto.Response
}

// job is one admitted solve, sliced at quantum boundaries by the scheduler.
// Implementations are not safe for concurrent use; the scheduler runs each
// job on one worker at a time.
type job interface {
	// runSlice advances the solve by up to quantum evaluations (0 = no
	// preemption: run to completion or a client bound). ctx carries the
	// request's effective deadline and the connection's cancellation.
	runSlice(ctx context.Context, quantum int) outcome
}

// solveJob is the typed implementation of job for one (unknown, domain)
// instantiation. Preemption slices the client's evaluation budget: each
// slice runs with MaxEvals = done + quantum, and a budget abort at the
// quantum boundary (below the client's own budget) parks the exact-resume
// checkpoint instead of answering.
type solveJob[X comparable, D any] struct {
	solverName string
	sys        *eqn.System[X, D]
	l          lattice.Lattice[D]
	op         solver.Operator[X, D]
	init       func(X) D
	codec      solver.Codec[X, D]

	// maxEvals is the client's evaluation budget (0 = unbounded) and
	// maxFlips its oscillation bound.
	maxEvals int
	maxFlips int

	// cp is the parked checkpoint between slices (or the client-provided
	// resume handle before the first), and done the cumulative evaluation
	// count it restores.
	cp   *solver.Checkpoint[X, D]
	done int
}

func (j *solveJob[X, D]) runSlice(ctx context.Context, quantum int) outcome {
	cfg := solver.Config{Ctx: ctx, MaxFlips: j.maxFlips, MaxEvals: j.maxEvals, Workers: SolveWorkers}
	finalSlice := true
	if quantum > 0 && solver.ExactResume(j.solverName) {
		if slice := j.done + quantum; j.maxEvals <= 0 || slice < j.maxEvals {
			// Budgets are cumulative across a resume (the checkpoint
			// restores the evaluation count), so the slice bound is an
			// absolute target, not a per-slice delta.
			cfg.MaxEvals = slice
			finalSlice = false
		}
	}
	if j.cp != nil {
		cfg.Resume = j.cp
	}
	sigma, st, err := solver.Run(j.solverName, j.sys, j.l, j.op, j.init, cfg)
	if err == nil {
		values := make(map[string]string, len(sigma))
		for x, d := range sigma {
			values[j.codec.EncodeX(x)] = j.codec.EncodeD(d)
		}
		return outcome{final: true, resp: &proto.Response{
			Status: proto.StatusCompleted,
			Values: values,
			Stats:  &st,
		}}
	}
	rep, ok := solver.ReportOf(err)
	if !ok {
		// Not an abort: a malformed resume handle or another structural
		// failure. The request was accepted, so answer it — as a rejection,
		// since no solving state survived to resume from.
		return outcome{final: true, resp: &proto.Response{
			Status: proto.StatusRejected,
			Reason: err.Error(),
		}}
	}
	cp, hasCp := solver.CheckpointOf[X, D](err)
	if rep.Reason == solver.AbortBudget && !finalSlice && hasCp {
		// The slice bound fired below the client's own budget: park the
		// checkpoint and yield the worker.
		j.cp = cp
		j.done = cp.Evals
		return outcome{final: false}
	}
	resp := &proto.Response{
		Status: proto.StatusAborted,
		Abort:  &rep,
		Stats:  &st,
	}
	if hasCp {
		if data, mErr := solver.MarshalCheckpoint(cp, j.codec); mErr == nil {
			resp.Checkpoint = string(data)
		}
	}
	return outcome{final: true, resp: resp}
}

// buildJob turns a validated request into a typed job: parse or generate
// the system, pick the domain's lattice/init/codec (the same conventions
// the diffsolve harness uses, so served and local runs are bit-identical),
// and decode a resume handle if the client sent one. Any error here is an
// admission-time rejection — nothing ran yet.
func buildJob(req *proto.Request) (job, error) {
	switch req.Source {
	case proto.SourceEq:
		f, err := eqdsl.Parse(req.System)
		if err != nil {
			return nil, err
		}
		if f.Open {
			return nil, errors.New("serve: system is an edit overlay, not solvable on its own")
		}
		switch f.Domain {
		case eqdsl.DomainNatInf:
			sys, err := f.NatSystem()
			if err != nil {
				return nil, err
			}
			return newSolveJob(req, sys, lattice.NatInf,
				func(string) lattice.Nat { return lattice.NatOf(0) }, ckptcodec.NatCodec())
		default:
			sys, err := f.IntervalSystem()
			if err != nil {
				return nil, err
			}
			return newSolveJob(req, sys, lattice.Ints,
				func(string) lattice.Interval { return lattice.EmptyInterval }, ckptcodec.StringIntervalCodec())
		}
	default: // proto.SourceGen, per Validate
		g := eqgen.New(*req.Gen)
		switch {
		case g.Flat != nil:
			l := eqgen.FlatL
			return newSolveJob(req, chaosWrap(g.Flat, req.Chaos), l,
				eqn.ConstBottom[int, lattice.Flat[int64]](l), ckptcodec.FlatCodec())
		case g.Powerset != nil:
			l := eqgen.PowersetL()
			return newSolveJob(req, chaosWrap(g.Powerset, req.Chaos), l,
				eqn.ConstBottom[int, lattice.Set[int]](l), ckptcodec.PowersetCodec())
		default:
			l := lattice.Ints
			return newSolveJob(req, chaosWrap(g.Interval, req.Chaos), l,
				eqn.ConstBottom[int, lattice.Interval](l), ckptcodec.IntervalCodec())
		}
	}
}

// chaosWrap applies the request's fault-injection spec to a generated
// system (nil spec: the system unchanged).
func chaosWrap[X comparable, D any](sys *eqn.System[X, D], spec *chaos.Config) *eqn.System[X, D] {
	if spec == nil {
		return sys
	}
	wrapped, _ := chaos.Wrap(sys, *spec)
	return wrapped
}

// newSolveJob builds the typed job and validates a client-provided resume
// handle against the target system before any solving state exists. The
// operator is the structured ⊟ (solver.WarrowOp), so solves whose domain
// has a raw encoding run on the word store; the rest, and any slice that
// meets a value the words cannot hold, fall back inside the solver exactly
// as local solves do, so both stores answer alike (DESIGN.md §11).
func newSolveJob[X comparable, D any](req *proto.Request, sys *eqn.System[X, D], l lattice.Lattice[D], init func(X) D, codec solver.Codec[X, D]) (job, error) {
	j := &solveJob[X, D]{
		solverName: req.Solver,
		sys:        sys,
		l:          l,
		op:         solver.WarrowOp[X](l),
		init:       init,
		codec:      codec,
		maxEvals:   req.MaxEvals,
		maxFlips:   req.MaxFlips,
	}
	if req.Checkpoint != "" {
		cp, err := solver.UnmarshalCheckpoint([]byte(req.Checkpoint), codec)
		if err != nil {
			return nil, err
		}
		if cp.Solver != req.Solver {
			return nil, fmt.Errorf("serve: checkpoint was captured by solver %q, request names %q", cp.Solver, req.Solver)
		}
		if fp := solver.Fingerprint(sys); cp.SysFP != fp {
			return nil, fmt.Errorf("serve: checkpoint fingerprints a different system (%d != %d)", cp.SysFP, fp)
		}
		j.cp = cp
		j.done = cp.Evals
	}
	return j, nil
}

// effectiveTimeout clamps the client's requested wall-clock bound to the
// server ceiling: the minimum of the two, with 0 (no client bound) meaning
// the ceiling itself. The resulting deadline is carried by the request
// context, so AbortReport.Bound attributes served deadline aborts to "ctx".
func effectiveTimeout(requested, ceiling time.Duration) time.Duration {
	if requested <= 0 || requested > ceiling {
		return ceiling
	}
	return requested
}
