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
// unknown, and the count of Tarjan's components with their size and depth
// histograms. DecompositionOf memoizes it on the System, so the incremental
// engine's cone and the parallel solvers' schedules pay the O(n + e) build
// once per shape rather than once per call. The component part is built on
// first use: only PSW and CPW report it. A Decomposition is read-only once
// built and safe for concurrent use.
type Decomposition struct {
	adj [][]int
	// rOff/rDat are the readers CSR: the unknowns whose right-hand sides may
	// read j are rDat[rOff[j]:rOff[j+1]], in ascending order.
	rOff, rDat []int32
	strata     []stratum
	stratumOf  []int32

	sccOnce sync.Once
	scc     sccSummary

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

// coneScratch marks visited unknowns and dirty strata with an epoch stamp,
// so a cone never clears (or allocates) anything proportional to n.
type coneScratch struct {
	epoch uint32
	mark  []uint32 // mark[i] == epoch: i is a transitive reader of a seed
	smark []uint32 // smark[s] == epoch: stratum s is dirty
	queue []int32
	hit   []int32 // dirty strata
}

func newDecomposition(adj [][]int) *Decomposition {
	n := len(adj)
	d := &Decomposition{
		adj:       adj,
		rOff:      make([]int32, n+1),
		strata:    stratify(adj),
		stratumOf: make([]int32, n),
	}
	for _, row := range adj {
		for _, j := range row {
			d.rOff[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		d.rOff[j+1] += d.rOff[j]
	}
	d.rDat = make([]int32, d.rOff[n])
	next := slices.Clone(d.rOff[:n])
	for i, row := range adj {
		for _, j := range row {
			d.rDat[next[j]] = int32(i)
			next[j]++
		}
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
// dependence graph (eqn.System.DepGraph).
func DecompositionOf[X comparable, D any](sys *eqn.System[X, D]) *Decomposition {
	return sys.ShapeMemo(decompKey, func() any {
		return decompMemo[X, D]{newDecomposition(sys.DepGraph())}
	}).(decompMemo[X, D]).Decomposition
}

// Stratify partitions the index line 0..n-1 of a static dependence graph
// (eqn.System.DepGraph) into the minimal contiguous intervals such that no
// dependence crosses a boundary forwards. Every strongly connected component
// lies inside a single stratum, and processing strata left to right visits
// every dependence before its reader. It builds an unmemoized decomposition;
// DecompositionOf(sys).Strata() is the memoized form.
func Stratify(adj [][]int) []Stratum { return newDecomposition(adj).Strata() }

// DirtyCone is Decomposition.Cone over an unmemoized decomposition of adj.
func DirtyCone(adj [][]int, seeds []int) (members []int, dirtyStrata int) {
	return newDecomposition(adj).Cone(seeds)
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
// indices in increasing order and the number of dirty strata. Unknowns
// outside the returned set have no dependence path to any seed; their
// previous finals are exact for any solver. The cost is proportional to the
// closure's edges plus the rounded cone, not to the whole graph.
func (d *Decomposition) Cone(seeds []int) (members []int, dirtyStrata int) {
	n := len(d.stratumOf)
	if n == 0 || len(seeds) == 0 {
		return nil, 0
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
		return nil, 0
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
	members = make([]int, 0, size)
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
		var comp []int
		comp, s.ncomp = tarjanSCC(d.adj)
		sizes := make([]int, s.ncomp)
		for _, c := range comp {
			sizes[c]++
		}
		for _, sz := range sizes {
			s.size.Observe(sz)
		}
		for _, dp := range sccDepths(d.adj, comp, s.ncomp) {
			s.depth.Observe(dp)
		}
	})
	st.SCCs, st.Strata = d.scc.ncomp, len(d.strata)
	st.SCCSize, st.SCCDepth = d.scc.size, d.scc.depth
}
