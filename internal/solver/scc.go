package solver

// Strongly connected components and scheduling strata of a static
// dependence graph, the decomposition behind the parallel solver PSW.
//
// The graph is given in index space (see eqn.System.DepGraph): vertex i is
// the i-th unknown of the linear order, and an edge i → j means the
// right-hand side of i may read j. Condensing the graph into SCCs yields a
// DAG; PSW solves whole components to stabilization and lets incomparable
// components run concurrently.

// tarjanSCC condenses the graph into strongly connected components using an
// iterative Tarjan traversal (the systems reach hundreds of thousands of
// unknowns, so recursion depth must not scale with graph size). It returns
// the component id of every vertex and the number of components. Ids number
// the components in reverse topological order of the condensation: for every
// edge i → j with comp[i] ≠ comp[j], comp[j] < comp[i] — so processing
// components in increasing id order visits every dependence before its
// reader.
func tarjanSCC(adj [][]int) (comp []int, ncomp int) {
	n := len(adj)
	comp = make([]int, n)
	low := make([]int, n)
	num := make([]int, n)
	onStack := make([]bool, n)
	for i := range comp {
		comp[i] = -1
		num[i] = -1
	}
	stack := make([]int, 0, n)
	// The DFS frame keeps the vertex and the index of the next out-edge to
	// explore, replacing the recursive call stack.
	type frame struct{ v, ei int }
	var frames []frame
	counter := 0
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
			// v is fully explored: pop its component if it is a root.
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
	return comp, ncomp
}

// sccDepths returns, per component, its depth in the condensation DAG: 1
// for components without cross-component dependences, otherwise one more
// than the deepest component they read. Component ids are in reverse
// topological order (tarjanSCC), so a single increasing sweep suffices.
func sccDepths(adj [][]int, comp []int, ncomp int) []int {
	depth := make([]int, ncomp)
	for c := range depth {
		depth[c] = 1
	}
	// Visit vertices grouped by component in increasing id order.
	byComp := make([][]int, ncomp)
	for v, c := range comp {
		byComp[c] = append(byComp[c], v)
	}
	for c := 0; c < ncomp; c++ {
		for _, v := range byComp[c] {
			for _, w := range adj[v] {
				if d := comp[w]; d != c && depth[d]+1 > depth[c] {
					depth[c] = depth[d] + 1
				}
			}
		}
	}
	return depth
}

// stratum is a contiguous interval [lo, hi] of the linear order that PSW
// solves as one sequential unit.
type stratum struct{ lo, hi int }

// stratify partitions the index line 0..n-1 into the minimal contiguous
// intervals such that no dependence crosses a boundary forwards: for every
// edge i → j, either j < lo(i)'s stratum start (a backward read of an
// earlier stratum) or j lies in the same stratum as i. The graph is given
// by its influence rows (eqn.InflCSR, eqn.InflOf): row j, at
// dat[off[j]:off[j+1]], lists j itself, then the unknowns that read j.
//
// Every SCC ends up inside a single stratum (a cycle over indices induces a
// chain of forward edges covering its whole index span), so strata are
// unions of SCCs. When the linear order is topologically consistent with
// the condensation — as for Bourdoncle/WTO orders — each stratum is exactly
// one SCC; for arbitrary definition orders, forward cross-SCC reads coarsen
// strata until sequential-equivalence holds (see psw.go for why this makes
// PSW bit-identical to SW).
func stratify(off, dat []int32) []stratum {
	n := len(off) - 1
	// reach[i] is the furthest unknown i reads, or i itself: every row
	// lists its own unknown.
	reach := make([]int32, n)
	for j := 0; j < n; j++ {
		for _, i := range dat[off[j]:off[j+1]] {
			reach[i] = max(reach[i], int32(j))
		}
	}
	// The first pass counts the strata, leaving each one's end at
	// reach[start], which it has already read; the second fills them in.
	count := 0
	for start := 0; start < n; count++ {
		end := start
		for i := start; i <= end; i++ {
			end = max(end, int(reach[i]))
		}
		reach[start] = int32(end)
		start = end + 1
	}
	out := make([]stratum, count)
	for k, start := 0, 0; k < count; k++ {
		out[k] = stratum{start, int(reach[start])}
		start = out[k].hi + 1
	}
	return out
}
