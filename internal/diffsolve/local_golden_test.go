package diffsolve

import (
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

var update = flag.Bool("update", false, "rewrite testdata/local_golden.txt and testdata/global_golden.txt from the current solvers")

const localGolden = "testdata/local_golden.txt"

// TestLocalGolden pins what SLR and SLR⁺ report on generated systems: for
// seeds 1–20, N = 16, 128 and 512 and the three domains (non-monotonic at
// density 0.2), each solver queries the last unknown with the oscillation
// watchdog at 3 flips under three evaluation budgets, and a third of the
// runs also emit periodic checkpoints. Per run and solver a line holds the
// Stats, a digest of the values, the abort report without its wall time,
// and digests of the abort checkpoint's and the periodic checkpoints' wire
// bytes. SLR⁺ runs the system as side-effecting with no side effects. Any
// change to how either solver iterates shows up here as a diff; run with
// -update only when such a change is intended.
func TestLocalGolden(t *testing.T) {
	var sb strings.Builder
	run := 0
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range []int{16, 128, 512} {
			for _, dom := range []eqgen.Domain{eqgen.Interval, eqgen.Flat, eqgen.Powerset} {
				g := eqgen.New(eqgen.Config{Seed: seed, Dom: dom, N: n, NonMonoDensity: 0.2})
				fmt.Fprintf(&sb, "system %s\n", g.Shape.Cfg)
				switch {
				case g.Interval != nil:
					localGoldenRuns(t, &sb, &run, lattice.Ints, g.Interval, ckptcodec.IntervalCodec())
				case g.Flat != nil:
					localGoldenRuns(t, &sb, &run, eqgen.FlatL, g.Flat, ckptcodec.FlatCodec())
				case g.Powerset != nil:
					localGoldenRuns(t, &sb, &run, eqgen.PowersetL(), g.Powerset, ckptcodec.PowersetCodec())
				}
			}
		}
	}

	checkGolden(t, localGolden, sb.String())
}

// checkGolden compares a golden test's output with its testdata file, or
// with -update rewrites the file.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
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
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
			if bad++; bad == 20 {
				t.Fatal("too many differing lines")
			}
		}
	}
}

// localGoldenRuns writes one system's lines, one per budget and solver.
// run numbers the (system, budget) runs; every third one also emits a
// periodic checkpoint every 25 evaluations.
func localGoldenRuns[D any](t *testing.T, sb *strings.Builder, run *int, l lattice.Lattice[D], sys *eqn.System[int, D], codec solver.Codec[int, D]) {
	t.Helper()
	init := eqn.ConstBottom[int, D](l)
	op := solver.Op[int](solver.Warrow[D](l))
	query := sys.Order()[sys.Len()-1]
	for _, budget := range []int{20_000, 37, 500} {
		every := 0
		if *run%3 == 0 {
			every = 25
		}
		*run++
		for _, name := range []string{"slr", "slr+"} {
			periodic, ph := 0, fnv.New64a()
			cfg := solver.Config{MaxEvals: budget, MaxFlips: 3, CheckpointEvery: every}
			if every > 0 {
				cfg.CheckpointSink = func(cp any) {
					data, err := solver.MarshalCheckpoint(cp.(*solver.Checkpoint[int, D]), codec)
					if err != nil {
						t.Fatal(err)
					}
					periodic++
					ph.Write(data)
				}
			}
			var res solver.Result[int, D]
			var err error
			if name == "slr" {
				res, err = solver.SLR(sys.AsPure(), l, op, init, query, cfg)
			} else {
				res, err = solver.SLRPlus(sys.AsPure().AsSides(), l, op, init, query, cfg)
			}
			st := res.Stats
			fmt.Fprintf(sb, "%s budget=%d every=%d evals=%d retries=%d updates=%d unknowns=%d maxq=%d values=%s",
				name, budget, every, st.Evals, st.Retries, st.Updates, st.Unknowns, st.MaxQueue, valuesDigest(l, sys, res.Values))
			if st != (solver.Stats{Evals: st.Evals, Retries: st.Retries, Updates: st.Updates, Unknowns: st.Unknowns, MaxQueue: st.MaxQueue}) {
				t.Fatalf("%s: a local solver set a Stats field outside the golden line: %+v", name, st)
			}
			if err != nil {
				rep, ok := solver.ReportOf(err)
				if !ok {
					t.Fatalf("%s budget %d: unclassified error: %v", name, budget, err)
				}
				fmt.Fprintf(sb, " abort=%s@%d widens=%d narrows=%d flips=%v hot=", rep.Reason, rep.Evals, rep.Widens, rep.Narrows, trimHist(rep.FlipHist))
				for _, h := range rep.Hottest {
					fmt.Fprintf(sb, "%s/%d/%d,", h.Unknown, h.Updates, h.Flips)
				}
				cp, ok := solver.CheckpointOf[int, D](err)
				if !ok {
					t.Fatalf("%s budget %d: the abort carries no checkpoint", name, budget)
				}
				data, merr := solver.MarshalCheckpoint(cp, codec)
				if merr != nil {
					t.Fatal(merr)
				}
				h := fnv.New64a()
				h.Write(data)
				fmt.Fprintf(sb, " ckpt=%016x", h.Sum64())
			}
			if every > 0 {
				fmt.Fprintf(sb, " periodic=%d/%016x", periodic, ph.Sum64())
			}
			sb.WriteByte('\n')
		}
	}
}

// trimHist drops a histogram's empty tail buckets.
func trimHist(h solver.Hist) []int {
	n := len(h)
	for n > 0 && h[n-1] == 0 {
		n--
	}
	return h[:n]
}

// valuesDigest hashes an assignment, partial or whole, in linear order
// with FNV-64a.
func valuesDigest[D any](l lattice.Lattice[D], sys *eqn.System[int, D], vals map[int]D) string {
	h := fnv.New64a()
	for _, x := range sys.Order() {
		if v, ok := vals[x]; ok {
			fmt.Fprintf(h, "%d=%s\n", x, l.Format(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
