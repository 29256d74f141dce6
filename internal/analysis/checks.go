package analysis

import (
	"fmt"
	"sort"
	"strings"

	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/lattice"
)

// WarnKind classifies analyzer warnings.
type WarnKind int

// Warning kinds.
const (
	// WarnDivByZero: a / or % whose divisor may be zero.
	WarnDivByZero WarnKind = iota
	// WarnIndexOOB: an array subscript that may fall outside the bounds of
	// every array the base can point to.
	WarnIndexOOB
	// WarnDeadCode: a program point no abstract state reaches, inside a
	// function that is itself reachable.
	WarnDeadCode
)

// String renders the kind.
func (k WarnKind) String() string {
	switch k {
	case WarnDivByZero:
		return "div-by-zero"
	case WarnIndexOOB:
		return "index-out-of-bounds"
	case WarnDeadCode:
		return "dead-code"
	default:
		return "?"
	}
}

// Warning is one analyzer finding.
type Warning struct {
	Kind WarnKind
	Fn   string
	Pos  cint.Pos
	// Definite reports whether the condition holds on every abstract value
	// (e.g. the divisor is exactly [0,0]) rather than possibly.
	Definite bool
	Msg      string
}

// String renders the warning.
func (w Warning) String() string {
	sev := "possible"
	if w.Definite {
		sev = "definite"
	}
	return fmt.Sprintf("%s:%s: %s %s: %s", w.Fn, w.Pos, sev, w.Kind, w.Msg)
}

// checker walks edge expressions against the computed invariants.
type resultChecker struct {
	r        *Result
	ec       evalCtx
	arrayLen map[string]int64 // cell ID -> array length
	warnings []Warning
	fn       string
	env      Env
	pos      cint.Pos
}

// Check inspects every reachable edge of the program for possible runtime
// errors under the computed invariants, plus abstractly-dead code. Findings
// are sorted by position.
func (r *Result) Check() []Warning {
	c := &resultChecker{
		r:        r,
		ec:       r.evalCtx(),
		arrayLen: make(map[string]int64),
	}
	for _, g := range r.CFG.AST.Globals {
		if g.Type.Kind == cint.TypeArray {
			c.arrayLen[g.ID] = g.Type.Len
		}
	}
	for _, fn := range r.CFG.AST.Funcs {
		for _, l := range fn.Locals {
			if l.Type.Kind == cint.TypeArray {
				c.arrayLen[l.ID] = l.Type.Len
			}
		}
	}
	for _, fn := range r.CFG.Order {
		if !r.Reachable(fn) {
			continue
		}
		g := r.CFG.Graphs[fn]
		c.fn = fn
		deadReported := false
		for _, n := range g.Nodes {
			env := r.PointEnv(fn, n.ID)
			if env.IsBot() {
				// Report the first dead point per function: downstream
				// points of the same dead region add no information.
				if !deadReported && n != g.Exit && len(n.In) > 0 && anyLiveGuardlessPred(r, fn, n) {
					c.warnings = append(c.warnings, Warning{
						Kind: WarnDeadCode, Fn: fn, Pos: n.Pos, Definite: true,
						Msg: fmt.Sprintf("point @%d is unreachable", n.ID),
					})
					deadReported = true
				}
				continue
			}
			c.env = env
			for _, e := range n.Out {
				c.pos = e.Pos
				c.edge(e)
			}
		}
	}
	sort.Slice(c.warnings, func(i, j int) bool {
		a, b := c.warnings[i], c.warnings[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
	return c.warnings
}

// anyLiveGuardlessPred reports whether a dead node has a live predecessor
// via a non-guard edge — i.e. it is dead for a reason other than an
// infeasible branch (infeasible branches are normal and not reported).
func anyLiveGuardlessPred(r *Result, fn string, n *cfg.Node) bool {
	for _, e := range n.In {
		if e.Kind == cfg.Guard || e.Kind == cfg.Assert {
			continue
		}
		if !r.PointEnv(fn, e.From.ID).IsBot() {
			return true
		}
	}
	return false
}

// edge checks the expressions an edge evaluates.
func (c *resultChecker) edge(e *cfg.Edge) {
	switch e.Kind {
	case cfg.Decl:
		if e.Rhs != nil {
			c.expr(e.Rhs)
		}
	case cfg.Assign:
		c.expr(e.Rhs)
		c.lvalue(e.Lhs)
	case cfg.Guard, cfg.Assert:
		c.expr(e.Cond)
	case cfg.Call:
		for _, a := range e.Call.Args {
			c.expr(a)
		}
		if e.Lhs != nil {
			c.lvalue(e.Lhs)
		}
	case cfg.Ret:
		if e.Rhs != nil {
			c.expr(e.Rhs)
		}
	}
}

// lvalue checks subscripts on the left-hand side.
func (c *resultChecker) lvalue(e cint.Expr) {
	if ix, ok := e.(*cint.IndexExpr); ok {
		c.index(ix)
	}
}

// expr recursively checks an expression.
func (c *resultChecker) expr(e cint.Expr) {
	switch x := e.(type) {
	case *cint.BinaryExpr:
		c.expr(x.X)
		c.expr(x.Y)
		if x.Op == cint.TokSlash || x.Op == cint.TokPercent {
			d := c.ec.eval(c.env, x.Y)
			if d.IsEmpty() || !d.Contains(0) {
				return
			}
			op := "/"
			if x.Op == cint.TokPercent {
				op = "%"
			}
			_, isZero := d.IsConst()
			c.warnings = append(c.warnings, Warning{
				Kind: WarnDivByZero, Fn: c.fn, Pos: x.Position(), Definite: isZero,
				Msg: fmt.Sprintf("divisor of %s is %s", op, d),
			})
		}
	case *cint.UnaryExpr:
		if x.Op != cint.TokAmp {
			c.expr(x.X)
		}
	case *cint.IndexExpr:
		c.index(x)
	}
}

// index checks a subscript against the lengths of all possible base arrays.
func (c *resultChecker) index(x *cint.IndexExpr) {
	c.expr(x.Idx)
	idx := c.ec.eval(c.env, x.Idx)
	if idx.IsEmpty() {
		return
	}
	// The subscript must fit the smallest array the base may denote.
	minLen := int64(-1)
	for _, cell := range c.ec.targets(x.X) {
		if n, ok := c.arrayLen[cell]; ok && (minLen < 0 || n < minLen) {
			minLen = n
		}
	}
	if minLen < 0 {
		return // base resolves to no known array
	}
	valid := lattice.Range(0, minLen-1)
	if lattice.Ints.Leq(idx, valid) {
		return
	}
	definite := lattice.Ints.Meet(idx, valid).IsEmpty()
	c.warnings = append(c.warnings, Warning{
		Kind: WarnIndexOOB, Fn: c.fn, Pos: x.Position(), Definite: definite,
		Msg: fmt.Sprintf("index %s outside [0,%d]", idx, minLen-1),
	})
}

// WarningReport renders all findings, one per line.
func (r *Result) WarningReport() string {
	ws := r.Check()
	if len(ws) == 0 {
		return "no warnings\n"
	}
	var sb strings.Builder
	for _, w := range ws {
		sb.WriteString(w.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
