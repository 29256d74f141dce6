package solver

// Strongly connected components and scheduling strata of a static
// dependence graph, the decomposition behind the parallel solver PSW.
//
// The graph is given in index space (see eqn.System.DepGraph): vertex i is
// the i-th unknown of the linear order, and an edge i → j means the
// right-hand side of i may read j. Condensing the graph into SCCs yields a
// DAG; PSW solves whole components to stabilization and lets incomparable
// components run concurrently.

import "math"

// tarjan is an iterative Tarjan traversal over the subgraph of adj induced
// by a node set (the systems reach hundreds of thousands of unknowns, so
// recursion depth must not scale with graph size). Its scratch is sized to
// the graph once and reused by every call.
type tarjan struct {
	adj [][]int
	// num[v] is -1 for a member of the current node set not visited yet,
	// v's visit number while v is on the stack, and idle otherwise.
	num, low []int32
	stack    []int32
	// A frame keeps a vertex and the index of its next out-edge to
	// explore, replacing the recursive call stack.
	frames []tarjanFrame
}

// idle marks a vertex outside the current node set or in a component
// already emitted. It exceeds every visit number, so an edge to such a
// vertex neither starts a visit nor lowers a low-link, and a call leaves
// every vertex idle again.
const idle = math.MaxInt32

type tarjanFrame struct {
	v  int32
	ei int
}

func newTarjan(adj [][]int) tarjan {
	n := len(adj)
	nl := make([]int32, 2*n)
	for i := range nl[:n] {
		nl[i] = idle
	}
	return tarjan{adj: adj, num: nl[:n], low: nl[n:], stack: make([]int32, 0, n)}
}

// sccs condenses the subgraph induced by nodes, trying roots in the order
// of nodes and edges in the order of adj. It calls emit with every
// component in emission order, which is reverse topological order of the
// condensation: every component comes before its readers. The slice emit
// receives is scratch, valid only during the call.
func (t *tarjan) sccs(nodes []int32, emit func(comp []int32)) {
	for _, v := range nodes {
		t.num[v] = -1
	}
	var counter int32
	push := func(v int32) {
		t.num[v], t.low[v] = counter, counter
		counter++
		t.stack = append(t.stack, v)
		t.frames = append(t.frames, tarjanFrame{v, 0})
	}
	for _, root := range nodes {
		if t.num[root] != -1 {
			continue
		}
		push(root)
		for len(t.frames) > 0 {
			f := &t.frames[len(t.frames)-1]
			v := f.v
			if f.ei < len(t.adj[v]) {
				u := t.adj[v][f.ei]
				f.ei++
				if nu := t.num[u]; nu < 0 {
					push(int32(u))
				} else if nu < t.low[v] {
					t.low[v] = nu
				}
				continue
			}
			// v is fully explored: pop its component if it is a root.
			if t.low[v] == t.num[v] {
				k := len(t.stack) - 1
				for t.stack[k] != v {
					k--
				}
				emit(t.stack[k:])
				for _, u := range t.stack[k:] {
					t.num[u] = idle
				}
				t.stack = t.stack[:k]
			}
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) > 0 {
				p := t.frames[len(t.frames)-1].v
				t.low[p] = min(t.low[p], t.low[v])
			}
		}
	}
}

// allNodes lists the vertices 0..n-1.
func allNodes(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// tarjanSCC condenses the graph into strongly connected components. It
// returns the component id of every vertex and the number of components.
// Ids number the components in the order the traversal emits them, reverse
// topological order of the condensation: for every edge i → j with
// comp[i] ≠ comp[j], comp[j] < comp[i] — so processing components in
// increasing id order visits every dependence before its reader.
func tarjanSCC(adj [][]int) (comp []int, ncomp int) {
	comp = make([]int, len(adj))
	t := newTarjan(adj)
	t.sccs(allNodes(len(adj)), func(c []int32) {
		for _, v := range c {
			comp[v] = ncomp
		}
		ncomp++
	})
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
