package analysis

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"warrow/internal/cfg"
	"warrow/internal/cint"
	"warrow/internal/solver"
	"warrow/internal/synth"
	"warrow/internal/wcet"
)

var update = flag.Bool("update", false, "rewrite testdata/slrplus_golden.txt from the current solver")

const slrPlusGolden = "testdata/slrplus_golden.txt"

// goldenOp is one analysis of the Fig. 7 / Table 1 set.
type goldenOp struct {
	name string
	src  string
	opts Options
}

// goldenOps lists every WCET kernel under ⊟ and two-phase, then 470.lbm and
// 429.mcf context-insensitive under ∇ and ⊟, and 470.lbm under
// BucketContext with ⊟₂ — the 69 analyses of the Fig. 7 benchmark
// workload.
func goldenOps() []goldenOp {
	var ops []goldenOp
	for _, k := range wcet.All() {
		ops = append(ops,
			goldenOp{k.Name + "/warrow", k.Src, Options{Context: NoContext, Op: OpWarrow, MaxEvals: 20_000_000}},
			goldenOp{k.Name + "/two-phase", k.Src, Options{Context: NoContext, Op: OpTwoPhase, MaxEvals: 20_000_000}})
	}
	for _, p := range synth.SpecSuite() {
		if p.Name != "470.lbm" && p.Name != "429.mcf" {
			continue
		}
		ops = append(ops,
			goldenOp{p.Name + "/widen", p.Src, Options{Context: NoContext, Op: OpWiden, MaxEvals: 100_000_000}},
			goldenOp{p.Name + "/warrow", p.Src, Options{Context: NoContext, Op: OpWarrow, MaxEvals: 100_000_000}})
		if p.Name == "470.lbm" {
			ops = append(ops, goldenOp{p.Name + "/warrow2-ctx", p.Src, Options{
				Context: BucketContext, Op: OpWarrow, DegradeAfter: 2, MaxEvals: 100_000_000}})
		}
	}
	return ops
}

// digest hashes rows, one per line, with FNV-64a.
func digest(rows []string) string {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// valuesDigest hashes every Key=Env rendering in sorted key order.
func valuesDigest(vals map[Key]Env) string {
	rows := make([]string, 0, len(vals))
	for k, v := range vals {
		rows = append(rows, k.String()+"="+v.String())
	}
	sort.Strings(rows)
	return digest(rows)
}

func analyzeSrc(t *testing.T, name, src string, opts Options) (*Result, error) {
	t.Helper()
	ast, err := cint.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return Run(cfg.Build(ast), opts)
}

// TestSLRPlusGolden pins SLR⁺'s iteration on the paper's own path: the
// Stats counts and a digest of the values of every Fig. 7 and Table 1
// analysis, and the abort report and checkpoint key order of a budget
// abort. Any change to the local solvers' scheduling, numbering or
// side-effect accounting shows up here as a diff; run with -update only
// when such a change is intended.
func TestSLRPlusGolden(t *testing.T) {
	var sb strings.Builder
	for _, o := range goldenOps() {
		res, err := analyzeSrc(t, o.name, o.src, o.opts)
		if err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		st := res.Stats
		fmt.Fprintf(&sb, "%s evals=%d updates=%d maxqueue=%d unknowns=%d values=%s\n",
			o.name, st.Evals, st.Updates, st.MaxQueue, st.Unknowns, valuesDigest(res.Values))
	}

	// A budget abort of 470.lbm under ⊟: the hottest unknowns and the
	// checkpoint's discovery order.
	for _, p := range synth.SpecSuite() {
		if p.Name != "470.lbm" {
			continue
		}
		_, err := analyzeSrc(t, p.Name, p.Src, Options{Context: NoContext, Op: OpWarrow, MaxEvals: 1000})
		rep, ok := solver.ReportOf(err)
		if !ok || rep.Reason != solver.AbortBudget {
			t.Fatalf("470.lbm at MaxEvals 1000: want a budget abort, got %v", err)
		}
		fmt.Fprintf(&sb, "abort 470.lbm/warrow evals=%d widens=%d narrows=%d\n", rep.Evals, rep.Widens, rep.Narrows)
		for _, h := range rep.Hottest {
			fmt.Fprintf(&sb, "hot %s updates=%d flips=%d\n", h.Unknown, h.Updates, h.Flips)
		}
		cp, ok := solver.CheckpointOf[Key, Env](err)
		if !ok {
			t.Fatal("budget abort carries no checkpoint")
		}
		keys := make([]string, len(cp.Sigma))
		vals := make([]string, len(cp.Sigma))
		for i, e := range cp.Sigma {
			keys[i] = e.X.String()
			vals[i] = e.X.String() + "=" + e.V.String()
		}
		fmt.Fprintf(&sb, "checkpoint evals=%d updates=%d maxqueue=%d sigma=%d order=%s values=%s\n",
			cp.Evals, cp.Updates, cp.MaxQueue, len(cp.Sigma), digest(keys), digest(vals))
	}

	got := sb.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(slrPlusGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(slrPlusGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(slrPlusGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
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
		}
	}
}
