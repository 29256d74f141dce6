package solver

import (
	"slices"
	"sync"
	"sync/atomic"

	"warrow/internal/eqn"
)

// Dirty-cone computation for the incremental re-solve engine (internal/incr):
// given the static dependence graph and the unknowns whose equations (or
// initial values) changed, which part of a finished solution can an edit
// actually reach, and at what granularity can the rest be reused verbatim?
//
// The answer is stratum-granular. The downstream closure of the edited
// unknowns over the influence relation (the transitive readers) is the set
// of unknowns whose values may change — everything outside it has no
// dependence path to an edit, so its self-contained dynamics replays exactly
// and its previous finals remain correct. But reusing *individual* clean
// unknowns inside a stratum that also contains dirty ones would break
// bit-identity with a from-scratch solve: during scratch iteration, dirty
// members of the stratum read their clean stratum-mates' *intermediate*
// values, not their finals. Rounding the cone up to whole strata of
// stratify's decomposition restores exactness: a stratum is re-solved as one
// closed unit from the initial assignment, with every earlier stratum —
// clean or already re-solved — pinned at final values (see DESIGN.md §12 for
// why this makes SRR/SW/PSW re-solves bit-identical, and why no rounding
// discipline can do the same for RR and W).

// Stratum is a contiguous interval [Lo, Hi] of the linear order with no
// dependence crossing its boundary forwards — the exported form of the
// scheduling unit PSW and the dirty-cone computation share.
type Stratum struct{ Lo, Hi int }

// Decomposition is the shape-derived structure of a static dependence graph
// that every stratum-aware consumer reads: the readers relation (the reverse
// of the graph) in CSR form, stratify's strata with the stratum of every
// unknown, the count of Tarjan's components with their size and depth
// histograms, and the DAG of dependences between strata. DecompositionOf
// memoizes it on the System, so the incremental engine's cone and the
// parallel solvers' schedules pay the O(n + e) build once per shape rather
// than once per call. The strata come from the influence rows alone. The
// component part and the stratum DAG are built on first use, from the
// dependence graph — PSW and CPW report the components, and only PSW
// schedules by the DAG — so Cone never pays for either, nor for the
// graph. A Decomposition is read-only once built and safe for concurrent
// use.
type Decomposition struct {
	// graph returns the dependence graph in index space that the rows
	// were built from (eqn.System.DepGraph).
	graph func() [][]int
	// rOff/rDat are the influence rows (eqn.InflCSR): j itself, then the
	// unknowns whose right-hand sides may read j, ascending, at
	// rDat[rOff[j]:rOff[j+1]].
	rOff, rDat []int32
	strata     []stratum
	stratumOf  []int32

	sccOnce sync.Once
	scc     sccSummary

	dagOnce sync.Once
	dag     stratumDAG

	// scratch is the marking state Cone reuses across calls; a Cone that
	// finds it taken by a concurrent call allocates its own.
	scratch atomic.Pointer[coneScratch]
}

// sccSummary is the component part of a Decomposition: what PSW and CPW
// report of tarjanSCC's components. The component ids themselves are not
// kept; no consumer reads them.
type sccSummary struct {
	ncomp       int
	size, depth Hist
}

// stratumDAG is the dependence DAG over a decomposition's strata, in CSR
// form: preds[s] counts the distinct other strata that stratum s reads, all
// of them earlier, and the strata that read s are
// succDat[succOff[s]:succOff[s+1]], each once, ascending.
type stratumDAG struct {
	preds            []int32
	succOff, succDat []int32
}

// succs returns the strata that read stratum s.
func (g *stratumDAG) succs(s int) []int32 { return g.succDat[g.succOff[s]:g.succOff[s+1]] }

// coneScratch marks visited unknowns and dirty strata with an epoch stamp,
// so a cone never clears (or allocates) anything proportional to n.
type coneScratch struct {
	epoch uint32
	mark  []uint32 // mark[i] == epoch: i is a transitive reader of a seed
	smark []uint32 // smark[s] == epoch: stratum s is dirty
	queue []int32
	hit   []int32 // dirty strata
}

func newDecomposition(graph func() [][]int, rOff, rDat []int32) *Decomposition {
	d := &Decomposition{
		graph:     graph,
		rOff:      rOff,
		rDat:      rDat,
		strata:    stratify(rOff, rDat),
		stratumOf: make([]int32, len(rOff)-1),
	}
	for si, s := range d.strata {
		for i := s.lo; i <= s.hi; i++ {
			d.stratumOf[i] = int32(si)
		}
	}
	return d
}

// decompKey is the ShapeMemo slot the decomposition lives under.
const decompKey = "solver.decomposition"

// decompMemo stores a Decomposition in a System's shape memo. The
// decomposition depends only on the dependence lists, so PatchRHS is
// deliberately a no-op: a same-dependences Redefine keeps it alive, while a
// dependence change or a Define drops it for a rebuild on next use.
type decompMemo[X comparable, D any] struct{ *Decomposition }

// PatchRHS implements eqn.RHSPatcher; see decompMemo.
func (decompMemo[X, D]) PatchRHS(int, eqn.RHS[X, D], eqn.RawRHS[X]) {}

// DecompositionOf returns the memoized decomposition of the system's
// dependence graph (eqn.System.DepGraph), reading the influence rows of the
// system's eqn.InflCSR. The system's own memo of the graph is dropped
// whenever this one is, so the graph stays the one the rows describe.
func DecompositionOf[X comparable, D any](sys *eqn.System[X, D]) *Decomposition {
	return sys.ShapeMemo(decompKey, func() any {
		n := sys.Len()
		c := sys.InflCSR()
		return decompMemo[X, D]{newDecomposition(sys.DepGraph, c.Off[:n+1], c.Dat[:c.Off[n]])}
	}).(decompMemo[X, D]).Decomposition
}

// unmemoized builds the decomposition of a bare dependence graph.
func unmemoized(adj [][]int) *Decomposition {
	off, dat := eqn.InflOf(adj)
	return newDecomposition(func() [][]int { return adj }, off, dat)
}

// Stratify partitions the index line 0..n-1 of a static dependence graph
// (eqn.System.DepGraph) into the minimal contiguous intervals such that no
// dependence crosses a boundary forwards. Every strongly connected component
// lies inside a single stratum, and processing strata left to right visits
// every dependence before its reader. It builds an unmemoized decomposition;
// DecompositionOf(sys).Strata() is the memoized form.
func Stratify(adj [][]int) []Stratum { return unmemoized(adj).Strata() }

// DirtyCone is Decomposition.Cone over an unmemoized decomposition of adj,
// into a fresh slice.
func DirtyCone(adj [][]int, seeds []int) (members []int, dirtyStrata int) {
	return unmemoized(adj).Cone(nil, seeds)
}

// NumStrata returns the number of strata.
func (d *Decomposition) NumStrata() int { return len(d.strata) }

// Strata returns the strata in index order (see Stratify).
func (d *Decomposition) Strata() []Stratum {
	out := make([]Stratum, len(d.strata))
	for i, s := range d.strata {
		out[i] = Stratum{s.lo, s.hi}
	}
	return out
}

// Cone computes which unknowns an edit batch can affect: the downstream
// closure of the seed indices over the influence relation (the reverse of
// the dependence graph), rounded up to whole strata. It returns the member
// indices in increasing order, in buf's storage when it has room (buf's
// contents are overwritten), and the number of dirty strata. Unknowns
// outside the returned set have no dependence path to any seed; their
// previous finals are exact for any solver. The cost is proportional to the
// closure's edges plus the rounded cone, not to the whole graph.
func (d *Decomposition) Cone(buf, seeds []int) (members []int, dirtyStrata int) {
	n := len(d.stratumOf)
	if n == 0 || len(seeds) == 0 {
		return buf[:0], 0
	}
	sc := d.scratch.Swap(nil)
	if sc == nil {
		sc = &coneScratch{mark: make([]uint32, n), smark: make([]uint32, len(d.strata))}
	}
	defer d.scratch.Store(sc)
	sc.epoch++
	if sc.epoch == 0 {
		// The stamp wrapped: marks from 2³² cones ago would alias it.
		clear(sc.mark)
		clear(sc.smark)
		sc.epoch = 1
	}
	ep := sc.epoch
	queue, hit := sc.queue[:0], sc.hit[:0]
	for _, s := range seeds {
		if s >= 0 && s < n && sc.mark[s] != ep {
			sc.mark[s] = ep
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if si := d.stratumOf[j]; sc.smark[si] != ep {
			sc.smark[si] = ep
			hit = append(hit, si)
		}
		for _, i := range d.rDat[d.rOff[j]:d.rOff[j+1]] {
			if sc.mark[i] != ep {
				sc.mark[i] = ep
				queue = append(queue, i)
			}
		}
	}
	sc.queue, sc.hit = queue, hit
	if len(hit) == 0 {
		return buf[:0], 0
	}
	// Round up to whole strata. No re-closure is needed: a reader of any
	// stratum member lives in the same or a later stratum, and the rounded-in
	// clean members reproduce their previous finals (their dependences are
	// all clean), so readers of theirs in later strata stay clean.
	slices.Sort(hit)
	size := 0
	for _, si := range hit {
		size += d.strata[si].hi - d.strata[si].lo + 1
	}
	members = slices.Grow(buf[:0], size)
	for _, si := range hit {
		for i := d.strata[si].lo; i <= d.strata[si].hi; i++ {
			members = append(members, i)
		}
	}
	return members, len(hit)
}

// observe records the decomposition's component and stratum statistics in
// st (PSW and CPW report them), building the component part on first use.
func (d *Decomposition) observe(st *Stats) {
	d.sccOnce.Do(func() {
		s := &d.scc
		adj := d.graph()
		var comp []int
		comp, s.ncomp = tarjanSCC(adj)
		sizes := make([]int, s.ncomp)
		for _, c := range comp {
			sizes[c]++
		}
		for _, sz := range sizes {
			s.size.Observe(sz)
		}
		for _, dp := range sccDepths(adj, comp, s.ncomp) {
			s.depth.Observe(dp)
		}
	})
	st.SCCs, st.Strata = d.scc.ncomp, len(d.strata)
	st.SCCSize, st.SCCDepth = d.scc.size, d.scc.depth
}

// stratumDAG returns the dependence DAG between the strata, building it on
// first use.
func (d *Decomposition) stratumDAG() *stratumDAG {
	d.dagOnce.Do(func() {
		ns := len(d.strata)
		g := &d.dag
		g.preds = make([]int32, ns)
		g.succOff = make([]int32, ns+1)
		// seen[t] == s+1: stratum s already counted its edge from t. The
		// first pass counts the edges, the second fills the rows; strata are
		// visited in ascending order, so each row comes out ascending.
		seen := make([]int32, ns)
		adj := d.graph()
		edges := func(visit func(from, to int32)) {
			clear(seen)
			for si, s := range d.strata {
				for i := s.lo; i <= s.hi; i++ {
					for _, j := range adj[i] {
						if t := d.stratumOf[j]; int(t) != si && seen[t] != int32(si)+1 {
							seen[t] = int32(si) + 1
							visit(t, int32(si))
						}
					}
				}
			}
		}
		edges(func(from, to int32) {
			g.preds[to]++
			g.succOff[from+1]++
		})
		for s := 0; s < ns; s++ {
			g.succOff[s+1] += g.succOff[s]
		}
		g.succDat = make([]int32, g.succOff[ns])
		next := slices.Clone(g.succOff[:ns])
		edges(func(from, to int32) {
			g.succDat[next[from]] = to
			next[from]++
		})
	})
	return &d.dag
}
