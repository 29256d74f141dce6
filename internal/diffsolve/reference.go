// Reference transcriptions of Figs. 1–4 over hash maps: the oracle the
// compiled global solvers are compared against. Each is the paper's
// pseudo-code plus an evaluation budget and the solvers' work record (Evals,
// Updates, Rounds, MaxQueue, counted by their rules), with no watchdog, eval
// guard, retry, checkpoint or resume. They read only Order, RHS and Infl.
package diffsolve

import (
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// reference is one reference solve: its inputs, the assignment, the work
// record, and whether the budget ran out before the solve stabilized.
type reference[X comparable, D any] struct {
	sys     *eqn.System[X, D]
	l       lattice.Lattice[D]
	op      solver.Operator[X, D]
	init    func(X) D
	budget  int
	sigma   map[X]D
	st      solver.Stats
	aborted bool
}

// newReference starts a solve from σ₀ = init; maxEvals ≤ 0 is unbounded.
func newReference[X comparable, D any](sys *eqn.System[X, D], l lattice.Lattice[D], op solver.Operator[X, D], init func(X) D, maxEvals int) *reference[X, D] {
	r := &reference[X, D]{sys: sys, l: l, op: op, init: init, budget: maxEvals, sigma: make(map[X]D)}
	for _, x := range sys.Order() {
		r.sigma[x] = init(x)
	}
	return r
}

// spent reports whether the budget is used up. Asked before every evaluation,
// as the solvers do, so a run needing no more completes on an exact budget.
func (r *reference[X, D]) spent() bool {
	r.aborted = r.budget > 0 && r.st.Evals >= r.budget
	return r.aborted
}

// update performs σ[x] ← σ[x] ⊞ fₓ(σ) and reports whether σ[x] changed.
func (r *reference[X, D]) update(x X) bool {
	r.st.Evals++
	v := r.op.Apply(x, r.sigma[x], r.sys.RHS(x)(func(y X) D {
		if v, ok := r.sigma[y]; ok {
			return v
		}
		return r.init(y)
	}))
	if r.l.Eq(r.sigma[x], v) {
		return false
	}
	r.sigma[x] = v
	r.st.Updates++
	return true
}

// rr is Fig. 1. A sweep cut short by the budget still counts as a round if
// it evaluated anything.
func (r *reference[X, D]) rr() *reference[X, D] {
	for {
		dirty, evaled := false, false
		for _, x := range r.sys.Order() {
			if r.spent() {
				break
			}
			evaled = true
			dirty = r.update(x) || dirty
		}
		if evaled || !r.aborted {
			r.st.Rounds++
		}
		if r.aborted || !dirty {
			return r
		}
	}
}

// w is Fig. 2: a LIFO worklist with x₁ on top initially; a change pushes
// infl(x) in reverse, so its first entry, x itself, ends on top.
func (r *reference[X, D]) w() *reference[X, D] {
	order, infl := r.sys.Order(), r.sys.Infl()
	var stack []X
	queued := make(map[X]bool)
	for i := len(order) - 1; i >= 0; i-- {
		stack, queued[order[i]] = append(stack, order[i]), true
	}
	r.st.MaxQueue = len(stack)
	for len(stack) > 0 && !r.spent() {
		x := stack[len(stack)-1]
		stack, queued[x] = stack[:len(stack)-1], false
		if r.update(x) {
			for i := len(infl[x]) - 1; i >= 0; i-- {
				if y := infl[x][i]; !queued[y] {
					stack, queued[y] = append(stack, y), true
				}
			}
			r.st.MaxQueue = max(r.st.MaxQueue, len(stack))
		}
	}
	return r
}

// srr is Fig. 3: solve(i) re-solves x₁…xᵢ₋₁ and updates xᵢ until it is stable.
func (r *reference[X, D]) srr() *reference[X, D] {
	order := r.sys.Order()
	var solve func(i int)
	solve = func(i int) {
		for i > 0 {
			solve(i - 1)
			if r.aborted || r.spent() || !r.update(order[i-1]) {
				return
			}
		}
	}
	solve(len(order))
	return r
}

// sw is Fig. 4: the least queued unknown in the linear order is extracted
// first; a change queues infl(x), which lists x itself first.
func (r *reference[X, D]) sw() *reference[X, D] {
	order, infl := r.sys.Order(), r.sys.Infl()
	pos := make(map[X]int, len(order))
	queued := make([]bool, len(order)) // by position
	for i, x := range order {
		pos[x], queued[i] = i, true
	}
	size, low := len(order), 0 // low bounds the least queued position
	r.st.MaxQueue = size
	for size > 0 && !r.spent() {
		for !queued[low] {
			low++
		}
		x := order[low]
		queued[low], size = false, size-1
		if r.update(x) {
			for _, y := range infl[x] {
				if i := pos[y]; !queued[i] {
					queued[i], size, low = true, size+1, min(low, i)
				}
			}
			r.st.MaxQueue = max(r.st.MaxQueue, size)
		}
	}
	return r
}
