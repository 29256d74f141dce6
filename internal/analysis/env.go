// Package analysis implements the paper's evaluation analysis for mini-C:
// an interval analysis of integer variables in which local variables are
// analyzed context-sensitively (with a configurable notion of calling
// context) while globals — together with address-taken locals and arrays —
// are treated flow-insensitively through the side-effecting constraint
// systems of Sec. 6, on top of a flow-insensitive points-to analysis.
//
// The constraint system has one Env-valued unknown per (function, context,
// program point) plus one unknown per flow-insensitive variable. Function
// entry environments and global values are propagated purely by side
// effects, following Apinis, Seidl and Vojdani's "Side-Effecting Constraint
// Systems" formulation, so the system can be solved locally by SLR⁺ with
// any update operator: ⊟ (the paper's contribution), plain widening (the
// Table 1 comparator), or the classical two-phase baseline (the Fig. 7
// comparator).
package analysis

import (
	"strings"

	"warrow/internal/lattice"
)

// Env is an abstract environment: the interval values of the scalar,
// non-address-taken locals in scope, or ⊥ for unreachable program points.
// Variables without a binding are unconstrained (⊤ = [-∞,+∞]); bindings
// equal to ⊤ are never stored, so environments stay small and canonical.
// Env values are immutable: every operation that changes a binding builds
// a fresh slice and never writes into the receiver's.
type Env struct {
	bot  bool
	vars []binding // sorted by id, ids unique
}

// binding is one variable's interval in an Env.
type binding struct {
	id string
	v  lattice.Interval
}

// BotEnv is the unreachable environment.
var BotEnv = Env{bot: true}

// TopEnv is the reachable environment with no constraints.
var TopEnv = Env{}

// IsBot reports whether the environment is unreachable.
func (e Env) IsBot() bool { return e.bot }

// find returns the position of id's binding, or the position at which it
// would be inserted, and whether id is bound.
func (e Env) find(id string) (int, bool) {
	lo, hi := 0, len(e.vars)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.vars[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(e.vars) && e.vars[lo].id == id
}

// Get returns the interval of id, or ⊤ if unbound. Get on ⊥ returns the
// empty interval.
func (e Env) Get(id string) lattice.Interval {
	if e.bot {
		return lattice.EmptyInterval
	}
	if i, ok := e.find(id); ok {
		return e.vars[i].v
	}
	return lattice.FullInterval
}

// Set returns a copy of e with id bound to v. Binding the empty interval
// collapses the environment to ⊥ (no concrete state assigns an impossible
// value); binding ⊤ removes the entry.
func (e Env) Set(id string, v lattice.Interval) Env {
	if e.bot {
		return e
	}
	if v.IsEmpty() {
		return BotEnv
	}
	i, had := e.find(id)
	var vars []binding
	switch {
	case lattice.Ints.Eq(v, lattice.FullInterval):
		if !had {
			return e
		}
		vars = make([]binding, 0, len(e.vars)-1)
		vars = append(vars, e.vars[:i]...)
		vars = append(vars, e.vars[i+1:]...)
	case had:
		vars = make([]binding, len(e.vars))
		copy(vars, e.vars)
		vars[i].v = v
	default:
		vars = make([]binding, 0, len(e.vars)+1)
		vars = append(vars, e.vars[:i]...)
		vars = append(vars, binding{id, v})
		vars = append(vars, e.vars[i:]...)
	}
	return Env{vars: vars}
}

// Binding returns an environment with the single binding id ↦ v; used for
// side-effect contributions to flow-insensitive unknowns.
func Binding(id string, v lattice.Interval) Env {
	return TopEnv.Set(id, v)
}

// Len returns the number of explicit bindings.
func (e Env) Len() int { return len(e.vars) }

// Ids returns the bound variable IDs, sorted.
func (e Env) Ids() []string {
	out := make([]string, len(e.vars))
	for i, b := range e.vars {
		out[i] = b.id
	}
	return out
}

// String renders the environment deterministically.
func (e Env) String() string {
	if e.bot {
		return "⊥"
	}
	if len(e.vars) == 0 {
		return "⊤"
	}
	parts := make([]string, len(e.vars))
	for i, b := range e.vars {
		parts[i] = b.id + "=" + b.v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// EnvLattice is the lattice of abstract environments: the bottom-lifted
// pointwise lift of an interval lattice, with absent bindings read as ⊤.
type EnvLattice struct {
	// Iv is the interval lattice used for variable values; its widening
	// (plain or threshold-based) determines the analysis's acceleration.
	Iv *lattice.IntervalLattice
}

// NewEnvLattice returns an environment lattice over the given interval
// lattice.
func NewEnvLattice(iv *lattice.IntervalLattice) *EnvLattice {
	return &EnvLattice{Iv: iv}
}

// Bottom returns the unreachable environment.
func (*EnvLattice) Bottom() Env { return BotEnv }

// Top returns the unconstrained environment.
func (*EnvLattice) Top() Env { return TopEnv }

// Leq reports the pointwise order with ⊥ below everything.
func (l *EnvLattice) Leq(a, b Env) bool {
	if a.bot {
		return true
	}
	if b.bot {
		return false
	}
	i := 0
	for _, bb := range b.vars {
		for i < len(a.vars) && a.vars[i].id < bb.id {
			i++
		}
		av := lattice.FullInterval
		if i < len(a.vars) && a.vars[i].id == bb.id {
			av = a.vars[i].v
		}
		if !l.Iv.Leq(av, bb.v) {
			return false
		}
	}
	return true
}

// Eq reports environment equality. Both sides are sorted and hold no ⊤
// binding, so equal environments agree binding by binding.
func (l *EnvLattice) Eq(a, b Env) bool {
	if a.bot || b.bot {
		return a.bot == b.bot
	}
	if len(a.vars) != len(b.vars) {
		return false
	}
	for i, ab := range a.vars {
		if ab.id != b.vars[i].id || !l.Iv.Eq(ab.v, b.vars[i].v) {
			return false
		}
	}
	return true
}

// combine merges two reachable environments pointwise with op in one pass
// over both sorted binding lists, dropping ⊤ results; an empty component
// collapses the result to ⊥. onlyCommon restricts the result to ids bound
// in both (correct for operations where op(x, ⊤) = ⊤, i.e. Join and
// Widen).
func (l *EnvLattice) combine(a, b Env, op func(x, y lattice.Interval) lattice.Interval, onlyCommon bool) Env {
	n := len(a.vars) + len(b.vars)
	if onlyCommon {
		n = min(len(a.vars), len(b.vars))
	}
	vars := make([]binding, 0, n)
	i, j := 0, 0
	for i < len(a.vars) || j < len(b.vars) {
		var id string
		x, y := lattice.FullInterval, lattice.FullInterval
		both := false
		switch {
		case j == len(b.vars) || i < len(a.vars) && a.vars[i].id < b.vars[j].id:
			id, x = a.vars[i].id, a.vars[i].v
			i++
		case i == len(a.vars) || b.vars[j].id < a.vars[i].id:
			id, y = b.vars[j].id, b.vars[j].v
			j++
		default:
			id, x, y, both = a.vars[i].id, a.vars[i].v, b.vars[j].v, true
			i++
			j++
		}
		if onlyCommon && !both {
			continue
		}
		v := op(x, y)
		if v.IsEmpty() {
			return BotEnv
		}
		if !l.Iv.Eq(v, lattice.FullInterval) {
			vars = append(vars, binding{id, v})
		}
	}
	return Env{vars: vars}
}

// Join joins pointwise; ⊥ is neutral.
func (l *EnvLattice) Join(a, b Env) Env {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	return l.combine(a, b, l.Iv.Join, true)
}

// Meet meets pointwise; an empty component collapses to ⊥.
func (l *EnvLattice) Meet(a, b Env) Env {
	if a.bot || b.bot {
		return BotEnv
	}
	return l.combine(a, b, l.Iv.Meet, false)
}

// Widen widens pointwise; ⊥ is neutral.
func (l *EnvLattice) Widen(a, b Env) Env {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	return l.combine(a, b, l.Iv.Widen, true)
}

// Narrow narrows pointwise; requires b ⊑ a.
func (l *EnvLattice) Narrow(a, b Env) Env {
	if a.bot || b.bot {
		return b
	}
	return l.combine(a, b, l.Iv.Narrow, false)
}

// Format renders an environment.
func (*EnvLattice) Format(a Env) string { return a.String() }
