// CPW giant-SCC experiment: the workload the chaotic intra-stratum solver
// exists for, and the certified rows cmd/bench -cpw persists.
//
// GiantSCCSystem links chains of loop unknowns head-to-tail into one ring,
// so the entire system condenses to a single strongly connected component.
// PSW's stratified scheduler sees one stratum and degenerates to sequential
// SW; CPW's sharded workers are the only source of parallelism. CPWSpeedup
// records that split — PSW alongside CPW at several pool sizes, every CPW
// result gated through internal/certify (CPW is certified, never
// bit-pinned) — as evaluation and update counts.
package experiments

import (
	"fmt"

	"warrow/internal/certify"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

// GiantSCCSystem builds a constraint system of chains counting chains of
// length unknowns each, joined into a single ring: the head of chain c
// reads the tail of chain c-1 (mod chains), so every unknown reaches every
// other and the dependence graph is one giant SCC. Unknowns are the ints
// 0..chains*length-1 in definition order, which keeps the system eligible
// for the dense and unboxed execution cores. The iteration profile is the
// paper's: ⊟ widens the circulating interval to [0,+inf] and then narrows
// it back below the ring bound through the per-chain guards. fan adds that
// many extra intra-ring reads per unknown — value-neutral (meet-capped) but
// real dependence edges, so chaotic workers collide on shared unknowns the
// way a dense real analysis would. work adds rounds of value-neutral
// interval arithmetic per evaluation, emulating transfer-function cost.
func GiantSCCSystem(chains, length, fan, work int) *eqn.System[int, lattice.Interval] {
	l := lattice.Ints
	one := lattice.Singleton(1)
	heavy := func(v lattice.Interval) lattice.Interval {
		sink := v
		for i := 0; i < work; i++ {
			sink = sink.Add(one)
		}
		return l.Join(v, l.Meet(sink, v))
	}
	n := chains * length
	// capped folds extra reads into v without changing it: Meet(w, v) ⊑ v,
	// so the join is a no-op on values and a real edge in the graph.
	capped := func(get func(int) lattice.Interval, v lattice.Interval, i int) lattice.Interval {
		for k := 1; k <= fan; k++ {
			v = l.Join(v, l.Meet(get((i+k*7)%n), v))
		}
		return v
	}
	sys := eqn.NewSystem[int, lattice.Interval]()
	bound := lattice.Singleton(int64(4 * n))
	for c := 0; c < chains; c++ {
		base := c * length
		// Head: reads the tail of the previous chain in the ring.
		prevTail := ((c+chains-1)%chains)*length + (length - 1)
		head := base
		deps := ringDeps(head, []int{prevTail}, fan, n)
		sys.Define(head, deps, func(get func(int) lattice.Interval) lattice.Interval {
			v := heavy(l.Join(lattice.Singleton(0), get(prevTail).Add(one)))
			return capped(get, v, head)
		})
		for p := 1; p < length; p++ {
			i := base + p
			prev := i - 1
			deps := ringDeps(i, []int{prev}, fan, n)
			if p == 1 {
				// Guard: the chain's narrowing handle, restricting the
				// circulated interval below the ring bound.
				sys.Define(i, deps, func(get func(int) lattice.Interval) lattice.Interval {
					return capped(get, heavy(get(prev).RestrictLt(bound)), i)
				})
				continue
			}
			sys.Define(i, deps, func(get func(int) lattice.Interval) lattice.Interval {
				return capped(get, heavy(get(prev).Add(one)), i)
			})
		}
	}
	return sys
}

// ringDeps lists an unknown's declared dependences: its structural reads
// plus the fan extra intra-ring edges capped reads walk.
func ringDeps(i int, structural []int, fan, n int) []int {
	deps := append([]int(nil), structural...)
	for k := 1; k <= fan; k++ {
		deps = append(deps, (i+k*7)%n)
	}
	return deps
}

// GiantFraction returns the fraction of unknowns in the largest strongly
// connected component of sys's dependence graph — the honesty stamp of the
// giant-SCC benchmark envelopes (a "giant SCC" claim is checkable, not
// asserted). Computed with a local iterative Tarjan over DepGraph.
func GiantFraction[X comparable, D any](sys *eqn.System[X, D]) float64 {
	adj := sys.DepGraph()
	n := len(adj)
	if n == 0 {
		return 0
	}
	comp := make([]int, n)
	low := make([]int, n)
	num := make([]int, n)
	onStack := make([]bool, n)
	for i := range num {
		num[i] = -1
	}
	stack := make([]int, 0, n)
	type frame struct{ v, ei int }
	var frames []frame
	counter, ncomp := 0, 0
	for root := 0; root < n; root++ {
		if num[root] >= 0 {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		num[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if num[w] < 0 {
					num[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && num[w] < low[v] {
					low[v] = num[w]
				}
				continue
			}
			if low[v] == num[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	sizes := make([]int, ncomp)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return float64(best) / float64(n)
}

// CPWSpeedup runs PSW once (its stratified scheduler finds nothing to
// parallelize in a single-SCC system) and CPW at the given worker counts on
// GiantSCCSystem(chains, length, fan, work) and reports each run's counts.
// Every CPW result is certified as a post-solution before its row is
// reported — the solver's claim is certified, not bit-identical, so there
// is no value comparison across runs, and at two or more workers its counts
// vary from run to run. The returned fraction is GiantFraction of the
// system, for the benchmark envelope's giant_scc stamp.
func CPWSpeedup(chains, length, fan, work int, workerCounts []int) ([]PerfRow, float64, error) {
	l := lattice.Ints
	sys := GiantSCCSystem(chains, length, fan, work)
	init := eqn.ConstBottom[int, lattice.Interval](l)
	op := func() solver.Operator[int, lattice.Interval] {
		return solver.WarrowOp[int, lattice.Interval](l)
	}
	name := fmt.Sprintf("giant(%dx%d,fan=%d,work=%d)", chains, length, fan, work)
	frac := GiantFraction(sys)

	// PSW clamps its pool to the stratum count, so on the ring's single
	// stratum every worker count is the one-worker run.
	_, st, err := solver.PSW(sys, l, op(), init, solver.Config{Workers: 1, Timeout: SolveTimeout})
	if err != nil {
		return nil, frac, fmt.Errorf("%s: PSW: %w", name, err)
	}
	rows := []PerfRow{{
		Name: name, Solver: "psw", Workers: st.Workers,
		Evals: st.Evals, Updates: st.Updates, Unknowns: st.Unknowns,
	}}
	for _, w := range workerCounts {
		sigma, st, err := solver.CPW(sys, l, op(), init, solver.Config{Workers: w, Timeout: SolveTimeout})
		if err != nil {
			return rows, frac, fmt.Errorf("%s: CPW workers=%d: %w", name, w, err)
		}
		if rep := certify.System(l, sys, sigma, init); rep.Err() != nil {
			return rows, frac, fmt.Errorf("%s: CPW workers=%d: %w", name, w, rep.Err())
		}
		rows = append(rows, PerfRow{
			Name: name, Solver: "cpw", Workers: st.Workers,
			Evals: st.Evals, Updates: st.Updates, Unknowns: st.Unknowns,
		})
	}
	return rows, frac, nil
}

// CPWGenRow solves one eqgen interval recipe with CPW, certifies the
// result, and returns its perf row plus the recipe's measured giant-SCC
// fraction — the generator-backed row of the -cpw suite, tying the
// benchmark to the same recipe format the differential harness and the
// serving tier consume (and exercising eqgen's GiantSCC knob end to end).
func CPWGenRow(cfg eqgen.Config, workers int) (PerfRow, float64, error) {
	g := eqgen.New(cfg)
	l := lattice.Ints
	sys := g.Interval
	if sys == nil {
		return PerfRow{}, 0, fmt.Errorf("cpw: recipe %s is not an interval system", g.Shape.Cfg)
	}
	name := fmt.Sprintf("eqgen(%s)", g.Shape.Cfg)
	frac := GiantFraction(sys)
	init := eqn.ConstBottom[int, lattice.Interval](l)
	sigma, st, err := solver.CPW(sys, l, solver.WarrowOp[int, lattice.Interval](l), init,
		solver.Config{Workers: workers, MaxEvals: 2_000_000, Timeout: SolveTimeout})
	if err != nil {
		return PerfRow{}, frac, fmt.Errorf("%s: CPW workers=%d: %w", name, workers, err)
	}
	if rep := certify.System(l, sys, sigma, init); rep.Err() != nil {
		return PerfRow{}, frac, fmt.Errorf("%s: CPW workers=%d: %w", name, workers, rep.Err())
	}
	return PerfRow{
		Name: name, Solver: "cpw", Workers: st.Workers,
		Evals: st.Evals, Updates: st.Updates, Unknowns: st.Unknowns,
	}, frac, nil
}
