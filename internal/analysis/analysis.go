package analysis

import (
	"context"
	"fmt"
	"sync"
	"time"

	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/points2"
	"warrow/internal/solver"
)

// KeyKind distinguishes the unknowns of the constraint system.
type KeyKind int8

// Key kinds.
const (
	// KStart is the synthetic root unknown: its right-hand side seeds the
	// global initializers and the entry of the entry function, and returns
	// the entry function's exit environment.
	KStart KeyKind = iota
	// KPoint is the environment at (function, context, program point).
	KPoint
	// KGlobal is the flow-insensitive value of one variable (a global, an
	// address-taken local, or an array), stored as a one-binding Env.
	KGlobal
)

// Key identifies an unknown of the analysis constraint system.
type Key struct {
	Kind KeyKind
	Fn   string // KPoint: function name
	Ctx  string // KPoint: calling context
	Node int    // KPoint: CFG node ID
	Var  string // KGlobal: variable ID
}

// String renders the unknown.
func (k Key) String() string {
	switch k.Kind {
	case KStart:
		return "<start>"
	case KGlobal:
		return "glob:" + k.Var
	default:
		if k.Ctx == "" {
			return fmt.Sprintf("%s@%d", k.Fn, k.Node)
		}
		return fmt.Sprintf("%s[%s]@%d", k.Fn, k.Ctx, k.Node)
	}
}

// OpKind selects the fixpoint regime.
type OpKind int

// Fixpoint regimes.
const (
	// OpWarrow solves with the combined operator ⊟ — the paper's
	// contribution: intertwined widening and narrowing in one pass.
	OpWarrow OpKind = iota
	// OpWiden solves with plain widening ∇ and no narrowing — the
	// comparator of Table 1.
	OpWiden
	// OpTwoPhase runs a complete widening iteration followed by a separate
	// narrowing iteration — the classical baseline of Fig. 7. Sound only
	// for monotonic systems (context-insensitive analyses).
	OpTwoPhase
)

// String renders the regime.
func (o OpKind) String() string {
	switch o {
	case OpWarrow:
		return "warrow"
	case OpWiden:
		return "widen"
	case OpTwoPhase:
		return "two-phase"
	default:
		return "?"
	}
}

// Options configures an analysis run.
type Options struct {
	// Entry is the entry function; defaults to "main".
	Entry string
	// Context selects the calling-context policy.
	Context ContextPolicy
	// Op selects the fixpoint regime.
	Op OpKind
	// MaxEvals bounds right-hand-side evaluations (0 = unbounded); runs
	// with FullContext on recursive programs need a budget.
	MaxEvals int
	// Ctx, when non-nil, cancels the underlying solve: the run returns its
	// partial result together with a solver.AbortError (see solver.Config).
	Ctx context.Context
	// Timeout, when positive, bounds the wall-clock duration of the solve.
	Timeout time.Duration
	// MaxFlips, when positive, arms the solver's oscillation watchdog: an
	// unknown that alternates narrow→widen more than MaxFlips times aborts
	// the run with a structured divergence diagnosis instead of burning the
	// whole evaluation budget.
	MaxFlips int
	// Widening selects the interval lattice (e.g. with thresholds);
	// defaults to plain widening.
	Widening *lattice.IntervalLattice
	// DegradeAfter, when positive, replaces ⊟ with the self-terminating
	// ⊟ₖ operator (k = DegradeAfter): each unknown abandons narrowing after
	// k narrow→widen phase switches. This is the paper's Sec. 4 remedy for
	// non-monotonic systems, on which plain ⊟ may oscillate forever —
	// context-sensitive analyses are exactly such systems, since a widened
	// argument can select a different callee context whose exit is
	// transiently ⊥, collapsing and reviving paths in alternation. Only
	// meaningful with Op == OpWarrow.
	DegradeAfter int
	// Localized restricts the accelerated operator to widening points
	// (loop heads) plus the side-effected unknowns — the Bourdoncle
	// discipline. Other program points are updated by plain re-evaluation.
	// Only meaningful with Op == OpWarrow.
	Localized bool
}

// Result is the outcome of an analysis run.
type Result struct {
	CFG  *cfg.Program
	PT   *points2.Result
	EnvL *EnvLattice
	// Values is the solver's assignment. PointEnv, Contexts, Reachable and
	// the reports built on them answer from an index of Values made on
	// their first call; Values must not change after that.
	Values map[Key]Env
	Stats  solver.Stats
	Opts   Options
	sys    eqn.Sides[Key, Env]

	indexOnce sync.Once
	index     *pointIndex
}

// System returns the side-effecting constraint system the run solved, so a
// result can be re-checked independently of the solver that produced it
// (see internal/certify).
func (r *Result) System() eqn.Sides[Key, Env] { return r.sys }

// analyzer holds the static program information the right-hand sides read.
type analyzer struct {
	prog    *cfg.Program
	pt      *points2.Result
	envL    *EnvLattice
	ivl     *lattice.IntervalLattice
	flowIns map[string]bool
	policy  ContextPolicy
	entry   string
}

// retID is the pseudo-variable holding fn's return value in exit
// environments.
func retID(fn *cint.FuncDecl) string { return fn.Name + "::@ret" }

// trackedCell reports whether a variable holds integer values we track
// flow-insensitively (pointer cells carry no interval information).
func intValued(t *cint.Type) bool {
	return t.Kind == cint.TypeInt ||
		(t.Kind == cint.TypeArray && t.Elem.Kind == cint.TypeInt)
}

// newAnalyzer validates options and builds the static analysis state.
func newAnalyzer(prog *cfg.Program, opts *Options) (*analyzer, error) {
	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.Widening == nil {
		opts.Widening = lattice.Ints
	}
	if _, ok := prog.Graphs[opts.Entry]; !ok {
		return nil, fmt.Errorf("analysis: no entry function %q", opts.Entry)
	}
	a := &analyzer{
		prog:    prog,
		pt:      points2.Analyze(prog),
		envL:    NewEnvLattice(opts.Widening),
		ivl:     opts.Widening,
		flowIns: make(map[string]bool),
		policy:  opts.Context,
		entry:   opts.Entry,
	}
	for _, g := range prog.AST.Globals {
		a.flowIns[g.ID] = true
	}
	for _, fn := range prog.AST.Funcs {
		for _, l := range fn.Locals {
			if l.AddrTaken || l.Type.Kind == cint.TypeArray {
				a.flowIns[l.ID] = true
			}
		}
	}
	return a, nil
}

// Band is the priority-band assignment the analysis feeds to
// solver.SLRPlusKeyed (exported for instrumentation tools).
func Band(k Key) int {
	switch {
	case k.Kind == KStart:
		return 2
	case k.Kind == KGlobal:
		return 1
	case k.Kind == KPoint && k.Node == 0:
		return 1
	default:
		return 0
	}
}

// RunWithOperator analyzes the program with a caller-supplied update
// operator — the hook used by instrumentation and ablation tools;
// opts.Op is ignored.
func RunWithOperator(prog *cfg.Program, opts Options, op solver.Operator[Key, Env]) (*Result, error) {
	a, err := newAnalyzer(prog, &opts)
	if err != nil {
		return nil, err
	}
	sys := a.system()
	res, err := solver.SLRPlusKeyed(sys, a.envL, op,
		func(Key) Env { return BotEnv }, Key{Kind: KStart}, Band,
		solverConfig(opts))
	return &Result{
		CFG: prog, PT: a.pt, EnvL: a.envL,
		Values: res.Values, Stats: res.Stats, Opts: opts, sys: sys,
	}, err
}

// Run analyzes the program.
func Run(prog *cfg.Program, opts Options) (*Result, error) {
	a, err := newAnalyzer(prog, &opts)
	if err != nil {
		return nil, err
	}

	sys := a.system()
	init := func(Key) Env { return BotEnv }
	start := Key{Kind: KStart}
	cfgS := solverConfig(opts)
	// Priority bands: side-effected unknowns — flow-insensitive variables
	// AND function-entry unknowns — are scheduled above all other program
	// points, so they are re-evaluated only after the points contributing
	// to them have refreshed their side effects (see solver.SLRPlusKeyed).
	// Without this, the first call site of a function (discovered before
	// the callee's entry, hence keyed above it) feeds the entry with values
	// derived from the callee's own results, and ⊟ oscillates: the entry
	// narrows against the stale contribution, the call site bumps it, and
	// the phases alternate forever. The root tops everything.
	band := Band

	var res solver.Result[Key, Env]
	switch opts.Op {
	case OpWarrow:
		if opts.Localized && opts.DegradeAfter == 0 {
			// Localized acceleration needs ⊟ₖ at the widening points: with
			// plain ⊟ a loop head can narrow forever against stale
			// downstream values (see localizedOp).
			opts.DegradeAfter = 2
		}
		var op solver.Operator[Key, Env]
		if opts.DegradeAfter > 0 {
			op = solver.NewDegrading[Key, Env](a.envL, opts.DegradeAfter)
		} else {
			op = solver.Op[Key](solver.Warrow[Env](a.envL))
		}
		if opts.Localized {
			op = &localizedOp{inner: op, wp: wideningPoints(prog)}
		}
		res, err = solver.SLRPlusKeyed(sys, a.envL, op, init, start, band, cfgS)
	case OpWiden:
		op := solver.Op[Key](solver.Widen[Env](a.envL))
		res, err = solver.SLRPlusKeyed(sys, a.envL, op, init, start, band, cfgS)
	case OpTwoPhase:
		// The classical baseline of Sec. 7: a complete widening phase, then
		// a distinct narrowing phase in which program points may improve
		// but flow-insensitive globals only accumulate — narrowing a global
		// against individual contributions would be unsound (Example 8).
		up := solver.Op[Key](solver.Widen[Env](a.envL))
		down := &phase2Op{l: a.envL}
		res, err = solver.TwoPhaseSidesKeyed(sys, a.envL, init, start, band, up, down, cfgS)
	default:
		return nil, fmt.Errorf("analysis: unknown op %v", opts.Op)
	}
	out := &Result{
		CFG:    prog,
		PT:     a.pt,
		EnvL:   a.envL,
		Values: res.Values,
		Stats:  res.Stats,
		Opts:   opts,
		sys:    sys,
	}
	return out, err
}

// solverConfig translates the run options into the solver's robustness
// bounds.
func solverConfig(opts Options) solver.Config {
	return solver.Config{
		MaxEvals: opts.MaxEvals,
		Ctx:      opts.Ctx,
		Timeout:  opts.Timeout,
		MaxFlips: opts.MaxFlips,
	}
}

// phase2Op is the update operator of the baseline's narrowing phase:
// program points narrow (widen defensively if a non-monotonic right-hand
// side still grows), while flow-insensitive unknowns only join — the
// soundness restriction of Example 8 that the combined operator ⊟ lifts.
type phase2Op struct {
	l *EnvLattice
}

// Apply implements solver.Operator.
func (o *phase2Op) Apply(k Key, old, new Env) Env {
	if k.Kind == KGlobal {
		return o.l.Join(old, new)
	}
	if o.l.Leq(new, old) {
		return o.l.Narrow(old, new)
	}
	return o.l.Widen(old, new)
}

// system builds the side-effecting constraint system.
func (a *analyzer) system() eqn.Sides[Key, Env] {
	return func(k Key) eqn.SideRHS[Key, Env] {
		switch k.Kind {
		case KGlobal:
			return nil // contributions only
		case KStart:
			return a.startRHS()
		default:
			if k.Node == 0 {
				return nil // entry environments arrive as contributions
			}
			return a.pointRHS(k)
		}
	}
}

// batchSides wraps a raw side callback so that multiple contributions to
// the same unknown within one right-hand-side evaluation are joined and
// emitted once, preserving the paper's at-most-one-side-effect-per-unknown
// discipline.
func (a *analyzer) batchSides(side func(Key, Env)) (buffered func(Key, Env), flush func()) {
	buf := make(map[Key]Env)
	var order []Key
	buffered = func(k Key, v Env) {
		old, seen := buf[k]
		if !seen {
			order = append(order, k)
			old = BotEnv
		}
		buf[k] = a.envL.Join(old, v)
	}
	flush = func() {
		for _, k := range order {
			side(k, buf[k])
		}
	}
	return buffered, flush
}

// startRHS seeds globals and the entry function, and returns its exit
// environment.
func (a *analyzer) startRHS() eqn.SideRHS[Key, Env] {
	return func(get func(Key) Env, rawSide func(Key, Env)) Env {
		side, flush := a.batchSides(rawSide)
		defer flush()
		for _, g := range a.prog.AST.Globals {
			if !intValued(g.Type) {
				continue
			}
			v := lattice.Singleton(0) // C zero-initialization
			if g.Init != nil {
				ec := evalCtx{a: a, readFI: func(string) lattice.Interval { return lattice.FullInterval }}
				v = ec.eval(TopEnv, g.Init)
			}
			side(Key{Kind: KGlobal, Var: g.ID}, Binding(g.ID, v))
		}
		g := a.prog.Graphs[a.entry]
		fn := g.Fn
		args := make([]lattice.Interval, len(fn.Params))
		for i := range args {
			args[i] = lattice.FullInterval
		}
		ctx0 := makeContext(a.policy, fn, args)
		entry := TopEnv
		for _, p := range fn.Params {
			if p.Type.Kind == cint.TypeInt && a.flowIns[p.ID] {
				side(Key{Kind: KGlobal, Var: p.ID}, Binding(p.ID, lattice.FullInterval))
			}
		}
		side(Key{Kind: KPoint, Fn: fn.Name, Ctx: ctx0, Node: 0}, entry)
		return get(Key{Kind: KPoint, Fn: fn.Name, Ctx: ctx0, Node: g.Exit.ID})
	}
}

// pointRHS joins the transfer of all in-edges of a program point.
func (a *analyzer) pointRHS(k Key) eqn.SideRHS[Key, Env] {
	g := a.prog.Graphs[k.Fn]
	if g == nil || k.Node < 0 || k.Node >= len(g.Nodes) {
		return nil
	}
	node := g.Nodes[k.Node]
	return func(get func(Key) Env, rawSide func(Key, Env)) Env {
		side, flush := a.batchSides(rawSide)
		defer flush()
		readFI := func(id string) lattice.Interval {
			return get(Key{Kind: KGlobal, Var: id}).Get(id)
		}
		ec := evalCtx{a: a, readFI: readFI}
		out := BotEnv
		for _, e := range node.In {
			pred := get(Key{Kind: KPoint, Fn: k.Fn, Ctx: k.Ctx, Node: e.From.ID})
			out = a.envL.Join(out, a.transfer(e, k.Ctx, pred, ec, get, side))
		}
		return out
	}
}

// transfer applies one CFG edge to the predecessor environment.
func (a *analyzer) transfer(e *cfg.Edge, ctx string, env Env, ec evalCtx, get func(Key) Env, side func(Key, Env)) Env {
	if env.IsBot() {
		return BotEnv
	}
	switch e.Kind {
	case cfg.Nop:
		return env
	case cfg.Decl:
		v := e.Var
		if !intValued(v.Type) {
			return env // pointer declarations carry no interval state
		}
		val := lattice.FullInterval
		if e.Rhs != nil {
			val = ec.eval(env, e.Rhs)
		}
		if a.flowIns[v.ID] {
			if v.Type.Kind == cint.TypeArray && e.Rhs == nil {
				val = lattice.FullInterval // uninitialized local array
			}
			side(Key{Kind: KGlobal, Var: v.ID}, Binding(v.ID, val))
			return env
		}
		return env.Set(v.ID, val)
	case cfg.Assign:
		if e.Rhs.Type().Kind != cint.TypeInt {
			return env // pointer assignment: handled by points-to
		}
		return a.assign(e.Lhs, ec.eval(env, e.Rhs), env, ec, side)
	case cfg.Guard:
		return ec.refine(env, e.Cond, e.Branch)
	case cfg.Assert:
		// Execution only continues past a passing assertion, so the
		// condition may be assumed; Result.Assertions classifies it.
		return ec.refine(env, e.Cond, true)
	case cfg.Ret:
		if e.Rhs != nil && e.Rhs.Type().Kind == cint.TypeInt {
			return env.Set(retID(e.From.Fn), ec.eval(env, e.Rhs))
		}
		return env
	case cfg.Call:
		return a.call(e, env, ec, get, side)
	default:
		panic(fmt.Sprintf("analysis: unhandled edge kind %v", e.Kind))
	}
}

// assign stores val into an lvalue: a strong update for scalar locals, a
// side-effect contribution for flow-insensitive variables and pointer or
// array targets (weak by construction).
func (a *analyzer) assign(lhs cint.Expr, val lattice.Interval, env Env, ec evalCtx, side func(Key, Env)) Env {
	switch l := lhs.(type) {
	case *cint.Ident:
		if a.flowIns[l.Obj.ID] {
			side(Key{Kind: KGlobal, Var: l.Obj.ID}, Binding(l.Obj.ID, val))
			return env
		}
		return env.Set(l.Obj.ID, val)
	case *cint.UnaryExpr: // *p = val
		for _, t := range ec.targets(l.X) {
			side(Key{Kind: KGlobal, Var: t}, Binding(t, val))
		}
		return env
	case *cint.IndexExpr: // a[i] = val
		for _, t := range ec.targets(l.X) {
			side(Key{Kind: KGlobal, Var: t}, Binding(t, val))
		}
		return env
	default:
		panic(fmt.Sprintf("analysis: assign to %T", lhs))
	}
}

// call transfers a call edge: it computes the callee context, contributes
// the entry environment, reads the callee's exit environment, and binds the
// result.
func (a *analyzer) call(e *cfg.Edge, env Env, ec evalCtx, get func(Key) Env, side func(Key, Env)) Env {
	callee := e.Call.Fn
	g := a.prog.Graphs[callee.Name]
	args := make([]lattice.Interval, len(callee.Params))
	for i, p := range callee.Params {
		if p.Type.Kind == cint.TypeInt {
			args[i] = ec.eval(env, e.Call.Args[i])
		}
	}
	ctx := makeContext(a.policy, callee, args)
	entry := TopEnv
	for i, p := range callee.Params {
		if p.Type.Kind != cint.TypeInt {
			continue
		}
		if a.flowIns[p.ID] {
			side(Key{Kind: KGlobal, Var: p.ID}, Binding(p.ID, args[i]))
			continue
		}
		entry = entry.Set(p.ID, args[i])
	}
	if entry.IsBot() {
		return BotEnv // an argument evaluated to ⊥: the call cannot execute
	}
	side(Key{Kind: KPoint, Fn: callee.Name, Ctx: ctx, Node: 0}, entry)
	exitEnv := get(Key{Kind: KPoint, Fn: callee.Name, Ctx: ctx, Node: g.Exit.ID})
	if exitEnv.IsBot() {
		return BotEnv // the callee (for this context) never returns
	}
	if e.Lhs != nil && callee.Ret.Kind == cint.TypeInt {
		return a.assign(e.Lhs, exitEnv.Get(retID(callee)), env, ec, side)
	}
	return env
}
