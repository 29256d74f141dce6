package analysis

import (
	"fmt"
	"sort"
	"strings"

	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/lattice"
)

// Global returns the flow-insensitive interval computed for a variable ID,
// or the empty interval if the variable was never written (unreachable).
func (r *Result) Global(id string) lattice.Interval {
	return r.Values[Key{Kind: KGlobal, Var: id}].Get(id)
}

// pointIndex groups Values by program point, so that per-point queries do
// not each scan every unknown.
type pointIndex struct {
	envs    map[pointKey]Env    // joined over contexts
	ctxs    map[string][]string // sorted distinct contexts per function
	reach   map[string]bool     // a reachable entry in some context
	flowIns map[string]bool     // variables with a KGlobal unknown
}

// pointKey names a program point independently of its context.
type pointKey struct {
	fn   string
	node int
}

// points returns the result's point index, building it in one pass over
// Values on first use.
func (r *Result) points() *pointIndex {
	r.indexOnce.Do(func() {
		ix := &pointIndex{
			envs:    make(map[pointKey]Env),
			ctxs:    make(map[string][]string),
			reach:   make(map[string]bool),
			flowIns: make(map[string]bool),
		}
		type fnCtx struct{ fn, ctx string }
		seen := make(map[fnCtx]bool)
		for k, v := range r.Values {
			switch k.Kind {
			case KGlobal:
				ix.flowIns[k.Var] = true
			case KPoint:
				if k.Node == 0 && !v.IsBot() {
					ix.reach[k.Fn] = true
				}
				if c := (fnCtx{k.Fn, k.Ctx}); !seen[c] {
					seen[c] = true
					ix.ctxs[k.Fn] = append(ix.ctxs[k.Fn], k.Ctx)
				}
				p := pointKey{k.Fn, k.Node}
				if e, ok := ix.envs[p]; ok {
					v = r.EnvL.Join(e, v)
				}
				ix.envs[p] = v
			}
		}
		for _, cs := range ix.ctxs {
			sort.Strings(cs)
		}
		r.index = ix
	})
	return r.index
}

// PointEnv returns the environment at a program point, joined over all
// contexts in which the function was analyzed.
func (r *Result) PointEnv(fn string, node int) Env {
	if e, ok := r.points().envs[pointKey{fn, node}]; ok {
		return e
	}
	return BotEnv
}

// Contexts returns the distinct contexts in which fn was analyzed, sorted.
func (r *Result) Contexts(fn string) []string {
	return append([]string{}, r.points().ctxs[fn]...)
}

// Reachable reports whether fn was analyzed in any context with a reachable
// entry.
func (r *Result) Reachable(fn string) bool { return r.points().reach[fn] }

// NumUnknowns returns the number of unknowns the solver encountered.
func (r *Result) NumUnknowns() int { return len(r.Values) }

// ReturnValue returns the interval of fn's return value joined over all
// contexts.
func (r *Result) ReturnValue(fn string) lattice.Interval {
	g := r.CFG.Graphs[fn]
	if g == nil {
		return lattice.EmptyInterval
	}
	env := r.PointEnv(fn, g.Exit.ID)
	return env.Get(g.Fn.Name + "::@ret")
}

// Report renders all per-point invariants of a function (merged over
// contexts) plus the globals, for the CLI and the examples.
func (r *Result) Report() string {
	var sb strings.Builder
	var globals []string
	for k := range r.Values {
		if k.Kind == KGlobal {
			globals = append(globals, k.Var)
		}
	}
	sort.Strings(globals)
	if len(globals) > 0 {
		sb.WriteString("flow-insensitive variables:\n")
		for _, id := range globals {
			fmt.Fprintf(&sb, "  %-24s %s\n", id, r.Global(id))
		}
	}
	for _, name := range r.CFG.Order {
		if !r.Reachable(name) {
			fmt.Fprintf(&sb, "%s: unreachable\n", name)
			continue
		}
		ctxs := r.Contexts(name)
		fmt.Fprintf(&sb, "%s (%d context(s)):\n", name, len(ctxs))
		g := r.CFG.Graphs[name]
		for _, n := range g.Nodes {
			env := r.PointEnv(name, n.ID)
			fmt.Fprintf(&sb, "  @%-3d %s\n", n.ID, env)
		}
	}
	return sb.String()
}

// AssertStatus classifies an assertion.
type AssertStatus int

// Assertion classifications.
const (
	// AssertProved: the condition holds on every abstract state reaching it.
	AssertProved AssertStatus = iota
	// AssertFailed: the condition is false on every abstract state reaching
	// it (and the point is reachable) — the assertion always aborts.
	AssertFailed
	// AssertUnknown: the analysis cannot decide.
	AssertUnknown
	// AssertUnreachable: no abstract state reaches the assertion.
	AssertUnreachable
)

// String renders the status.
func (s AssertStatus) String() string {
	switch s {
	case AssertProved:
		return "proved"
	case AssertFailed:
		return "failed"
	case AssertUnknown:
		return "unknown"
	default:
		return "unreachable"
	}
}

// Assertion is the verdict for one assert statement.
type Assertion struct {
	Fn     string
	Pos    cint.Pos
	Cond   cint.Expr
	Status AssertStatus
}

// Assertions classifies every assert statement of the program against the
// computed invariants (merged over contexts).
func (r *Result) Assertions() []Assertion {
	var out []Assertion
	ec := r.evalCtx()
	for _, fn := range r.CFG.Order {
		g := r.CFG.Graphs[fn]
		for _, n := range g.Nodes {
			for _, e := range n.Out {
				if e.Kind != cfg.Assert {
					continue
				}
				env := r.PointEnv(fn, e.From.ID)
				a := Assertion{Fn: fn, Pos: e.Pos, Cond: e.Cond}
				switch {
				case env.IsBot():
					a.Status = AssertUnreachable
				default:
					switch ec.truth(env, e.Cond) {
					case lattice.TriTrue:
						a.Status = AssertProved
					case lattice.TriFalse:
						a.Status = AssertFailed
					default:
						a.Status = AssertUnknown
					}
				}
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Col < out[j].Pos.Col
	})
	return out
}

// evalCtx returns an evaluation context over the computed invariants: the
// variables with a flow-insensitive unknown read their computed values.
func (r *Result) evalCtx() evalCtx {
	a := &analyzer{pt: r.PT, envL: r.EnvL, ivl: r.EnvL.Iv, flowIns: r.points().flowIns}
	return evalCtx{a: a, readFI: func(id string) lattice.Interval { return r.Global(id) }}
}

// AssertionReport renders the verdicts, one per line.
func (r *Result) AssertionReport() string {
	as := r.Assertions()
	if len(as) == 0 {
		return ""
	}
	var sb strings.Builder
	proved := 0
	for _, a := range as {
		if a.Status == AssertProved {
			proved++
		}
		fmt.Fprintf(&sb, "  %s:%-8s %-12s assert(%s)\n", a.Fn, a.Pos, a.Status, a.Cond)
	}
	fmt.Fprintf(&sb, "assertions: %d/%d proved\n", proved, len(as))
	return sb.String()
}
