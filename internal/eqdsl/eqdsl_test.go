package eqdsl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"warrow/internal/lattice"
	"warrow/internal/solver"
)

const example1 = `
# Example 1 of the paper: RR with ⊟ diverges, SRR terminates.
domain natinf
x1 = x2
x2 = x3 + 1
x3 = x1
`

const example2 = `
domain natinf
x1 = min(x1 + 1, x2 + 1)
x2 = min(x2 + 1, x1 + 1)
`

const loopSystem = `
# Constraint system of: i = 0; while (i < 100) i = i + 1;
domain interval
h = join([0,0], b + [1,1])
b = meet(h, [-inf,99])
e = meet(h, [100,inf])
`

func TestParseExample1(t *testing.T) {
	f, err := Parse(example1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Domain != DomainNatInf || len(f.Order) != 3 || f.Order[0] != "x1" {
		t.Fatalf("parsed: %+v", f)
	}
}

func TestSolveExample1(t *testing.T) {
	f, err := Parse(example1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.NatSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.NatInf
	op := solver.Op[string](solver.Warrow[lattice.Nat](l))
	zero := func(string) lattice.Nat { return lattice.NatOf(0) }

	// RR diverges, SRR terminates — the paper's Examples 1 and 3, now
	// loaded from the text artifact.
	_, _, err = solver.RR(sys, l, op, zero, solver.Config{MaxEvals: 10000})
	if !errors.Is(err, solver.ErrEvalBudget) {
		t.Fatalf("RR should diverge: %v", err)
	}
	sigma, _, err := solver.SRR(sys, l, op, zero, solver.Config{MaxEvals: 10000})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range f.Order {
		if !sigma[x].IsInf() {
			t.Errorf("σ[%s] = %s, want ∞", x, sigma[x])
		}
	}
}

func TestSolveExample2(t *testing.T) {
	f, err := Parse(example2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.NatSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.NatInf
	op := solver.Op[string](solver.Warrow[lattice.Nat](l))
	zero := func(string) lattice.Nat { return lattice.NatOf(0) }
	_, _, err = solver.W(sys, l, op, zero, solver.Config{MaxEvals: 10000})
	if !errors.Is(err, solver.ErrEvalBudget) {
		t.Fatalf("W should diverge: %v", err)
	}
	sigma, _, err := solver.SW(sys, l, op, zero, solver.Config{MaxEvals: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !sigma["x1"].IsInf() || !sigma["x2"].IsInf() {
		t.Errorf("σ = %v", sigma)
	}
}

func TestSolveLoopSystem(t *testing.T) {
	f, err := Parse(loopSystem)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.Ints
	op := solver.Op[string](solver.Warrow[lattice.Interval](l))
	bot := func(string) lattice.Interval { return lattice.EmptyInterval }
	sigma, _, err := solver.SW(sys, l, op, bot, solver.Config{MaxEvals: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Eq(sigma["h"], lattice.Range(0, 100)) {
		t.Errorf("h = %s, want [0,100]", sigma["h"])
	}
	if !l.Eq(sigma["e"], lattice.Singleton(100)) {
		t.Errorf("e = %s, want [100,100]", sigma["e"])
	}
}

func TestParseNegativeAndArith(t *testing.T) {
	f, err := Parse(`
domain interval
a = [-5,5] * [2,2] - 3
b = a + -2
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.Ints
	op := solver.Op[string](solver.Replace[lattice.Interval]())
	bot := func(string) lattice.Interval { return lattice.EmptyInterval }
	sigma, _, err := solver.SRR(sys, l, op, bot, solver.Config{MaxEvals: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Eq(sigma["a"], lattice.Range(-13, 7)) {
		t.Errorf("a = %s, want [-13,7]", sigma["a"])
	}
	if !l.Eq(sigma["b"], lattice.Range(-15, 5)) {
		t.Errorf("b = %s, want [-15,5]", sigma["b"])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`x = 1`, "domain"},
		{`domain foo`, "unknown domain"},
		{`domain natinf`, "no equations"},
		{`domain natinf` + "\nx = y", "undefined unknown"},
		{`domain natinf` + "\nx = 1\nx = 2", "duplicate"},
		{`domain natinf` + "\nx = x - 1", "subtraction"},
		{`domain natinf` + "\nx = x * 2", "multiplication"},
		{`domain natinf` + "\nx = -1", "negative"},
		{`domain natinf` + "\nx = [0,1]", "interval literal"},
		{`domain interval` + "\nx = (x", "expected"},
		{`domain interval` + "\nx = x 3", "trailing"},
		{`domain interval` + "\nbad name = 1", "bad unknown name"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %v, want substring %q", c.src, err, c.want)
		}
	}
}

// TestOpenOverlay: the `open` directive and ParseOverlay both admit
// references to unknowns the file does not define; a closed Parse of the
// same equations rejects them, and `open` after the first equation is an
// ordinary (bad) equation line, not a directive.
func TestOpenOverlay(t *testing.T) {
	const body = "b = meet(h, [-inf,49])\n"
	for _, src := range []string{
		"domain interval\nopen\n" + body,
		"domain interval\n" + body, // closed text, opened by ParseOverlay
	} {
		f, err := ParseOverlay(src)
		if err != nil {
			t.Fatalf("ParseOverlay(%q): %v", src, err)
		}
		if !f.Open {
			t.Errorf("ParseOverlay(%q): Open = false", src)
		}
	}
	f, err := Parse("domain interval\nopen\n" + body)
	if err != nil {
		t.Fatalf("Parse with open directive: %v", err)
	}
	if !f.Open {
		t.Error("open directive did not set File.Open")
	}
	if _, err := Parse("domain interval\n" + body); err == nil ||
		!strings.Contains(err.Error(), "undefined unknown") {
		t.Errorf("closed Parse of overlay body: err = %v, want undefined unknown", err)
	}
	if _, err := Parse("domain interval\nx = 1\nopen\n"); err == nil ||
		!strings.Contains(err.Error(), "expected") {
		t.Errorf("open after first equation: err = %v, want parse error", err)
	}
}

func TestComments(t *testing.T) {
	f, err := Parse("# header\ndomain natinf # trailing\nx = 1 # eol\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Order) != 1 {
		t.Fatalf("order: %v", f.Order)
	}
}

// TestCompiledRawInterval: the fused raw form IntervalSystem attaches
// computes exactly the boxed right-hand side on random assignments, and
// expressions the raw layer cannot express (multiplication, sentinel-range
// literals) are left boxed-only.
func TestCompiledRawInterval(t *testing.T) {
	// r is right-nested past the evaluator's stack array, so its program
	// runs on a heap stack.
	deep := "b"
	for i := 0; i < 2*ivStackPairs; i++ {
		deep = fmt.Sprintf("[%d,%d] - join(h, %s)", i, i+3, deep)
	}
	src := `domain interval
h = join([0,0], b + [1,1])
b = meet(h, [-inf,99])
e = meet(h, [100,inf])
d = h - join(b, [2,5])
r = ` + deep + "\n"
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	raw := lattice.AsRaw[lattice.Interval](lattice.Ints)
	names := sys.Order()
	samples := []lattice.Interval{
		lattice.EmptyInterval, lattice.FullInterval,
		lattice.Range(0, 0), lattice.Range(-7, 99), lattice.Range(100, 250),
		lattice.NewInterval(lattice.NegInf, lattice.Fin(5)),
		lattice.NewInterval(lattice.Fin(-3), lattice.PosInf),
	}
	rng := uint64(0x9e3779b97f4a7c15)
	pick := func() lattice.Interval {
		rng = rng*6364136223846793005 + 1442695040888963407
		return samples[rng>>33%uint64(len(samples))]
	}
	for round := 0; round < 200; round++ {
		vals := make(map[string]lattice.Interval, len(names))
		words := make(map[string][]uint64, len(names))
		for _, x := range names {
			v := pick()
			vals[x] = v
			w := make([]uint64, 2)
			raw.RawEncode(w, v)
			words[x] = w
		}
		get := func(y string) lattice.Interval { return vals[y] }
		getRaw := func(y string) []uint64 { return words[y] }
		dst, want := make([]uint64, 2), make([]uint64, 2)
		for _, x := range names {
			rf := sys.RawRHSOf(x)
			if rf == nil {
				t.Fatalf("%s: no raw RHS attached", x)
			}
			rf(getRaw, dst)
			raw.RawEncode(want, sys.RHS(x)(get))
			if dst[0] != want[0] || dst[1] != want[1] {
				t.Fatalf("round %d %s: raw %v boxed %v", round, x, dst, want)
			}
		}
	}

	// Multiplication and sentinel-colliding literals have no raw form.
	f2, err := Parse("domain interval\na = [1,2] * [3,4]\nb = [9223372036854775807,inf]\nc = a + b\n")
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := f2.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []string{"a", "b"} {
		if sys2.RawRHSOf(x) != nil {
			t.Errorf("%s: expected boxed-only RHS", x)
		}
	}
	if sys2.RawRHSOf("c") == nil {
		t.Errorf("c: pure variable sum should compile to a raw form")
	}
}

// TestParseDepthBound: a definition may nest MaxDepth levels deep — as
// parenthesis pairs around a leaf or as an operator chain — and one level
// more is a parse error naming the line, not a stack overflow in the
// parser or in a tree walker.
func TestParseDepthBound(t *testing.T) {
	parens := func(k int) string { return strings.Repeat("(", k) + "x" + strings.Repeat(")", k) }
	chain := func(k int) string { return "x" + strings.Repeat(" + 1", k) }
	for name, expr := range map[string]func(int) string{"parens": parens, "chain": chain} {
		src := func(k int) string { return "domain natinf\nx = 0\ny = " + expr(k) + "\n" }
		f, err := Parse(src(MaxDepth))
		if err != nil {
			t.Fatalf("%s at the bound: %v", name, err)
		}
		sys, err := f.NatSystem()
		if err != nil {
			t.Fatal(err)
		}
		want := lattice.NatOf(0)
		if name == "chain" {
			want = lattice.NatOf(MaxDepth)
		}
		if got := sys.RHS("y")(func(string) lattice.Nat { return lattice.NatOf(0) }); !lattice.NatInf.Eq(got, want) {
			t.Fatalf("%s at the bound evaluates to %v, want %v", name, got, want)
		}
		if _, err := Parse(src(MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "line 3: expression nested deeper") {
			t.Fatalf("%s past the bound: err = %v, want a depth error on line 3", name, err)
		}
	}
}

// TestConcurrentUnboxedSolves runs SW on the unboxed core over one parsed
// interval system from four goroutines at once: the fused evaluators share
// no scratch, so under -race the solves neither race nor disagree.
func TestConcurrentUnboxedSolves(t *testing.T) {
	var b strings.Builder
	b.WriteString("domain interval\n")
	const n = 32
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "x%d = meet(join([0,0], x%d + [1,1]), [-inf,%d]) - (x%d - join(x%d, [1,2]))\n",
			i, (i+n-1)%n, 50+i, (i+3)%n, (i+5)%n)
	}
	f, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.IntervalSystem()
	if err != nil {
		t.Fatal(err)
	}
	l := lattice.Ints
	solve := func() (map[string]lattice.Interval, error) {
		sigma, _, err := solver.SW(sys, l, solver.WarrowOp[string](l),
			func(string) lattice.Interval { return lattice.EmptyInterval },
			solver.Config{Core: solver.CoreUnboxed, MaxEvals: 1_000_000})
		return sigma, err
	}
	want, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5 && errs[g] == nil; rep++ {
				got, err := solve()
				if err != nil {
					errs[g] = err
					return
				}
				for _, x := range f.Order {
					if !l.Eq(got[x], want[x]) {
						errs[g] = fmt.Errorf("%s = %s, want %s", x, l.Format(got[x]), l.Format(want[x]))
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
