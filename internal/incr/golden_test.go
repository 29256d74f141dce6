package incr

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warrow/internal/ckptcodec"
	"warrow/internal/eqgen"
	"warrow/internal/eqn"
	"warrow/internal/lattice"
	"warrow/internal/solver"
)

var update = flag.Bool("update", false, "rewrite testdata/resolve_golden.txt from the current engine")

const resolveGolden = "testdata/resolve_golden.txt"

// goldenEngine is one column of TestResolveGolden: a solver and the
// configuration every Resolve of it runs under.
type goldenEngine struct {
	name    string
	solver  string
	workers int
}

var goldenEngines = []goldenEngine{
	{"srr", "srr", 0},
	{"sw", "sw", 0},
	{"psw/w=1", "psw", 1},
	{"psw/w=2", "psw", 2},
}

// goldenEdits is the number of eqgen.Mutate batches each domain's engines
// absorb; every batch is followed by its undo. The batch of generation
// goldenAbortGen has a cone of 20–27 unknowns in every domain; it is the
// one re-solved on budget.
const (
	goldenEdits    = 4
	goldenAbortGen = 2
)

// TestResolveGolden pins what each Resolve reports, per domain, for SRR,
// SW and PSW at one and two workers over a seeded chain of eqgen.Mutate
// batches and their undos: the Stats without WallNs, the cone accounting
// and a digest of the merged values. For one batch it also pins a budget
// abort mid-cone at three budgets (SRR, SW and PSW at one worker;
// where PSW at two workers stops depends on the schedule): the abort
// report's counts and the checkpoint's wire bytes. Any change to how the
// engine solves a cone shows up here as a diff; run with -update only
// when such a change is intended.
func TestResolveGolden(t *testing.T) {
	var sb strings.Builder
	for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
		g := eqgen.New(eqgen.Config{Seed: 23 + uint64(dom), Dom: dom, N: 96})
		fmt.Fprintf(&sb, "system %s\n", g.Shape.Cfg)
		switch {
		case g.Interval != nil:
			goldenDomain(t, &sb, lattice.Ints, g, g.Interval, eqgen.IntervalRHS, ckptcodec.IntervalCodec())
		case g.Flat != nil:
			goldenDomain(t, &sb, eqgen.FlatL, g, g.Flat, eqgen.FlatRHS, ckptcodec.FlatCodec())
		case g.Powerset != nil:
			goldenDomain(t, &sb, eqgen.PowersetL(), g, g.Powerset, eqgen.PowersetRHS, ckptcodec.PowersetCodec())
		}
	}

	got := sb.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(resolveGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resolveGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resolveGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			if bad++; bad == 20 {
				t.Fatal("too many differing lines")
			}
		}
	}
}

// goldenDomain writes one domain's section of the golden file.
func goldenDomain[D any](t *testing.T, sb *strings.Builder, l lattice.Lattice[D], g eqgen.System, sys *eqn.System[int, D],
	build func(eqgen.Spec) (eqn.RHS[int, D], eqn.RawRHS[int]), codec solver.Codec[int, D]) {
	t.Helper()
	init := eqn.ConstBottom[int, D](l)
	cfgOf := func(ge goldenEngine) solver.Config { return solver.Config{Workers: ge.workers} }
	mk := func(ge goldenEngine) *Engine[int, D] {
		e, err := New(l, sys, init, ge.solver)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Solve(cfgOf(ge)); err != nil {
			t.Fatalf("%s: initial solve: %v", ge.name, err)
		}
		return e
	}
	engines := make([]*Engine[int, D], len(goldenEngines))
	for k, ge := range goldenEngines {
		engines[k] = mk(ge)
	}
	// Three more engines per sequential column take the budget aborts. They
	// re-solve every batch before the aborted one unbudgeted.
	aborts := make([][]*Engine[int, D], 3)
	for k := range aborts {
		for range 3 {
			aborts[k] = append(aborts[k], mk(goldenEngines[k]))
		}
	}

	resolveAll := func(label string) []solver.Stats {
		var out []solver.Stats
		for k, ge := range goldenEngines {
			res, err := engines[k].Resolve(cfgOf(ge))
			if err != nil {
				t.Fatalf("%s %s: %v", ge.name, label, err)
			}
			st := res.Stats
			st.WallNs = 0
			js, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(sb, "%s %s dirty=%d reused=%d strata=%d values=%s stats=%s\n",
				label, ge.name, res.DirtyUnknowns, res.ReusedUnknowns, res.ConeStrata, valuesDigest(l, sys, res.Values), js)
			out = append(out, res.Stats)
		}
		return out
	}

	keepUp := func() {
		for k, col := range aborts {
			for _, e := range col {
				if _, err := e.Resolve(cfgOf(goldenEngines[k])); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for gen := 0; gen < goldenEdits; gen++ {
		edited := eqgen.Mutate(g, 0x5eed+uint64(gen), 1+gen%3)
		ref := resolveAll(fmt.Sprintf("edit%d%v", gen, edited))
		switch {
		case gen < goldenAbortGen:
			keepUp()
		case gen == goldenAbortGen:
			for k, col := range aborts {
				total := ref[k].Evals
				for bi, budget := range []int{total / 4, total / 2, 3 * total / 4} {
					goldenAbort(t, sb, col[bi], goldenEngines[k], budget, codec)
				}
			}
		}
		for _, x := range edited {
			sp := g.Shape.SpecOf(x)
			rhs, raw := build(sp)
			sys.RedefineRaw(x, sp.Deps, rhs, raw)
		}
		resolveAll(fmt.Sprintf("undo%d", gen))
		if gen < goldenAbortGen {
			keepUp()
		}
	}
}

// goldenAbort re-solves the pending batch on budget and writes the abort
// report's counts and the checkpoint's wire bytes.
func goldenAbort[D any](t *testing.T, sb *strings.Builder, e *Engine[int, D], ge goldenEngine, budget int, codec solver.Codec[int, D]) {
	t.Helper()
	_, err := e.Resolve(solver.Config{Workers: ge.workers, MaxEvals: budget})
	rep, ok := solver.ReportOf(err)
	if !ok {
		t.Fatalf("%s at budget %d: want an abort, got %v", ge.name, budget, err)
	}
	fmt.Fprintf(sb, "abort %s budget=%d reason=%s evals=%d widens=%d narrows=%d flips=%v\n",
		ge.name, budget, rep.Reason, rep.Evals, rep.Widens, rep.Narrows, rep.FlipHist)
	for _, h := range rep.Hottest {
		fmt.Fprintf(sb, "hot %s updates=%d flips=%d\n", h.Unknown, h.Updates, h.Flips)
	}
	cp, ok := solver.CheckpointOf[int, D](err)
	if !ok {
		t.Fatalf("%s at budget %d: the abort carries no checkpoint", ge.name, budget)
	}
	data, err := solver.MarshalCheckpoint(cp, codec)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(data)
}

// valuesDigest hashes the rendered assignment in linear order with FNV-64a.
func valuesDigest[D any](l lattice.Lattice[D], sys *eqn.System[int, D], vals map[int]D) string {
	h := fnv.New64a()
	for _, x := range sys.Order() {
		fmt.Fprintf(h, "%d=%s\n", x, l.Format(vals[x]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
