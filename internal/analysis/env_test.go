package analysis

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"warrow/internal/lattice"
)

func randEnv(r *rand.Rand) Env {
	if r.Intn(8) == 0 {
		return BotEnv
	}
	e := TopEnv
	vars := []string{"x", "y", "z"}
	for _, v := range vars {
		switch r.Intn(4) {
		case 0: // unbound (⊤)
		case 1:
			lo := int64(r.Intn(21) - 10)
			hi := lo + int64(r.Intn(10))
			e = e.Set(v, lattice.Range(lo, hi))
		case 2:
			e = e.Set(v, lattice.AtLeast(int64(r.Intn(11)-5)))
		case 3:
			e = e.Set(v, lattice.AtMost(int64(r.Intn(11)-5)))
		}
	}
	return e
}

// TestEnvLatticeLaws: the environment lattice satisfies the lattice and
// widening/narrowing laws on random samples (property-based CheckLaws).
func TestEnvLatticeLaws(t *testing.T) {
	l := NewEnvLattice(lattice.Ints)
	r := rand.New(rand.NewSource(11))
	samples := []Env{BotEnv, TopEnv}
	for i := 0; i < 20; i++ {
		samples = append(samples, randEnv(r))
	}
	if err := lattice.CheckLaws[Env](l, samples); err != nil {
		t.Fatal(err)
	}
}

func TestEnvBasics(t *testing.T) {
	e := TopEnv.Set("x", lattice.Range(1, 2))
	if e.IsBot() || e.Len() != 1 {
		t.Fatal("Set")
	}
	if !lattice.Ints.Eq(e.Get("x"), lattice.Range(1, 2)) {
		t.Fatal("Get")
	}
	if !lattice.Ints.Eq(e.Get("unbound"), lattice.FullInterval) {
		t.Fatal("unbound reads as ⊤")
	}
	// Binding ⊤ removes the entry.
	e2 := e.Set("x", lattice.FullInterval)
	if e2.Len() != 0 {
		t.Fatalf("binding ⊤ should drop the entry: %s", e2)
	}
	// Binding ⊥ collapses to the unreachable environment.
	e3 := e.Set("y", lattice.EmptyInterval)
	if !e3.IsBot() {
		t.Fatalf("binding ⊥ should collapse: %s", e3)
	}
	// Bot is sticky.
	if !BotEnv.Set("x", lattice.Singleton(1)).IsBot() {
		t.Fatal("Set on ⊥")
	}
	if !BotEnv.Get("x").IsEmpty() {
		t.Fatal("Get on ⊥")
	}
}

func TestEnvImmutability(t *testing.T) {
	e := TopEnv.Set("x", lattice.Range(1, 2))
	_ = e.Set("x", lattice.Singleton(9))
	_ = e.Set("y", lattice.Singleton(3))
	if !lattice.Ints.Eq(e.Get("x"), lattice.Range(1, 2)) || e.Len() != 1 {
		t.Fatal("Set mutated the receiver")
	}
}

func TestEnvJoinDropsOneSidedBindings(t *testing.T) {
	l := NewEnvLattice(lattice.Ints)
	a := TopEnv.Set("x", lattice.Range(0, 1))
	b := TopEnv.Set("y", lattice.Range(5, 6))
	j := l.Join(a, b)
	// x is ⊤ in b and y is ⊤ in a, so the join constrains nothing.
	if j.Len() != 0 {
		t.Fatalf("join = %s, want ⊤", j)
	}
	// ⊥ is neutral.
	if !l.Eq(l.Join(BotEnv, a), a) || !l.Eq(l.Join(a, BotEnv), a) {
		t.Fatal("⊥ not neutral for join")
	}
}

func TestEnvWidenNarrow(t *testing.T) {
	l := NewEnvLattice(lattice.Ints)
	a := TopEnv.Set("x", lattice.Range(0, 10))
	b := TopEnv.Set("x", lattice.Range(0, 11))
	w := l.Widen(a, b)
	if !lattice.Ints.Eq(w.Get("x"), lattice.NewInterval(lattice.Fin(0), lattice.PosInf)) {
		t.Fatalf("widen = %s", w)
	}
	n := l.Narrow(w, b)
	if !lattice.Ints.Eq(n.Get("x"), lattice.Range(0, 11)) {
		t.Fatalf("narrow = %s", n)
	}
	// Narrowing can introduce bindings absent in a (a reads them as ⊤).
	n2 := l.Narrow(TopEnv, b)
	if !lattice.Ints.Eq(n2.Get("x"), lattice.Range(0, 11)) {
		t.Fatalf("narrow from ⊤ = %s", n2)
	}
}

func TestEnvStringDeterministic(t *testing.T) {
	e := TopEnv.Set("b", lattice.Singleton(2)).Set("a", lattice.Singleton(1))
	if got := e.String(); got != "{a=[1,1], b=[2,2]}" {
		t.Fatalf("String = %q", got)
	}
	if BotEnv.String() != "⊥" || TopEnv.String() != "⊤" {
		t.Fatal("extremal strings")
	}
}

func TestBindingHelper(t *testing.T) {
	b := Binding("g", lattice.Range(0, 3))
	if b.Len() != 1 || !lattice.Ints.Eq(b.Get("g"), lattice.Range(0, 3)) {
		t.Fatalf("Binding = %s", b)
	}
	if Binding("g", lattice.FullInterval).Len() != 0 {
		t.Fatal("Binding of ⊤ should be empty")
	}
	if !Binding("g", lattice.EmptyInterval).IsBot() {
		t.Fatal("Binding of ⊥ should be ⊥")
	}
}

func TestKeyString(t *testing.T) {
	cases := []struct {
		k    Key
		want string
	}{
		{Key{Kind: KStart}, "<start>"},
		{Key{Kind: KGlobal, Var: "g"}, "glob:g"},
		{Key{Kind: KPoint, Fn: "f", Node: 3}, "f@3"},
		{Key{Kind: KPoint, Fn: "f", Ctx: "b:small..small", Node: 3}, "f[b:small..small]@3"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Key%v = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestContextPolicies(t *testing.T) {
	src := `int f(int a, int b) { return a + b; } int main() { int r; r = f(1, 2); return r; }`
	res := run(t, src, Options{Context: FullContext, Op: OpWarrow})
	ctxs := res.Contexts("f")
	if len(ctxs) != 1 || !strings.Contains(ctxs[0], "a:[1,1]") {
		t.Errorf("full contexts: %v", ctxs)
	}
	res = run(t, src, Options{Context: BucketContext, Op: OpWarrow})
	ctxs = res.Contexts("f")
	if len(ctxs) != 1 || !strings.Contains(ctxs[0], "small") {
		t.Errorf("bucket contexts: %v", ctxs)
	}
	res = run(t, src, Options{Context: NoContext, Op: OpWarrow})
	if ctxs = res.Contexts("f"); len(ctxs) != 1 || ctxs[0] != "" {
		t.Errorf("no-context contexts: %v", ctxs)
	}
}

// mapEnv is the map-based environment that Env's sorted binding slice
// replaced, transcribed as a test oracle: the same canonical form (no ⊤
// binding, a separate ⊥ flag) over a map.
type mapEnv struct {
	bot  bool
	vars map[string]lattice.Interval
}

func (e mapEnv) get(id string) lattice.Interval {
	if e.bot {
		return lattice.EmptyInterval
	}
	if v, ok := e.vars[id]; ok {
		return v
	}
	return lattice.FullInterval
}

func (e mapEnv) set(id string, v lattice.Interval) mapEnv {
	if e.bot {
		return e
	}
	if v.IsEmpty() {
		return mapEnv{bot: true}
	}
	vars := make(map[string]lattice.Interval, len(e.vars)+1)
	for k, val := range e.vars {
		vars[k] = val
	}
	if lattice.Ints.Eq(v, lattice.FullInterval) {
		delete(vars, id)
	} else {
		vars[id] = v
	}
	return mapEnv{vars: vars}
}

func (e mapEnv) ids() []string {
	out := make([]string, 0, len(e.vars))
	for k := range e.vars {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (e mapEnv) String() string {
	if e.bot {
		return "⊥"
	}
	if len(e.vars) == 0 {
		return "⊤"
	}
	parts := make([]string, 0, len(e.vars))
	for _, id := range e.ids() {
		parts = append(parts, id+"="+e.vars[id].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func mapLeq(iv *lattice.IntervalLattice, a, b mapEnv) bool {
	if a.bot {
		return true
	}
	if b.bot {
		return false
	}
	for id, bv := range b.vars {
		if !iv.Leq(a.get(id), bv) {
			return false
		}
	}
	return true
}

func mapEq(iv *lattice.IntervalLattice, a, b mapEnv) bool {
	if a.bot || b.bot {
		return a.bot == b.bot
	}
	if len(a.vars) != len(b.vars) {
		return false
	}
	for id, av := range a.vars {
		bv, ok := b.vars[id]
		if !ok || !iv.Eq(av, bv) {
			return false
		}
	}
	return true
}

// mapCombine is the oracle for Join (onlyCommon, ⊥ neutral), Meet and
// Narrow (⊥ absorbing; Narrow returns b when either side is ⊥) and Widen.
func mapCombine(iv *lattice.IntervalLattice, a, b mapEnv, op func(x, y lattice.Interval) lattice.Interval, onlyCommon bool) mapEnv {
	vars := make(map[string]lattice.Interval)
	keep := func(id string, v lattice.Interval) bool {
		if v.IsEmpty() {
			return false
		}
		if !iv.Eq(v, lattice.FullInterval) {
			vars[id] = v
		}
		return true
	}
	for id, av := range a.vars {
		bv, inB := b.vars[id]
		if onlyCommon && !inB {
			continue
		}
		if !inB {
			bv = lattice.FullInterval
		}
		if !keep(id, op(av, bv)) {
			return mapEnv{bot: true}
		}
	}
	for id, bv := range b.vars {
		if _, inA := a.vars[id]; inA || onlyCommon {
			continue
		}
		if !keep(id, op(lattice.FullInterval, bv)) {
			return mapEnv{bot: true}
		}
	}
	return mapEnv{vars: vars}
}

// envOpsIDs share prefixes, so that a binding search comparing prefixes
// instead of whole ids would misplace them.
var envOpsIDs = []string{"f::i", "f::ij", "f::", "g", "f::@ret", "h"}

// envBytes reads a fuzz input one byte at a time, yielding zeros once it
// runs out.
type envBytes []byte

func (b *envBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// interval decodes an interval, reaching ⊤, ⊥, singletons, half-lines and
// bounds on either side of the threshold lattice's thresholds.
func (b *envBytes) interval() lattice.Interval {
	kind, lo, w := b.next()%16, int64(b.next()%25-12), int64(b.next()%6)
	switch {
	case kind == 0:
		return lattice.EmptyInterval
	case kind < 4:
		return lattice.FullInterval
	case kind < 6:
		return lattice.AtLeast(lo)
	case kind < 8:
		return lattice.AtMost(lo)
	case kind < 10:
		return lattice.Singleton(lo)
	default:
		return lattice.Range(lo, lo+w)
	}
}

// env decodes the same environment in both representations, by the same
// sequence of Set calls.
func (b *envBytes) env() (Env, mapEnv) {
	e, m := TopEnv, mapEnv{}
	if b.next()%8 == 0 {
		e, m = BotEnv, mapEnv{bot: true}
	}
	for n := b.next() % 7; n > 0; n-- {
		id, v := envOpsIDs[b.next()%len(envOpsIDs)], b.interval()
		e, m = e.Set(id, v), m.set(id, v)
	}
	return e, m
}

// checkEnvOps decodes two environments from data and checks every Env and
// EnvLattice operation on them against the map oracle, on the plain
// interval lattice or, for an odd first byte, a threshold lattice.
func checkEnvOps(t testing.TB, data []byte) {
	t.Helper()
	in := envBytes(data)
	iv := lattice.Ints
	if in.next()%2 == 1 {
		iv = lattice.NewIntervalLattice(-10, 0, 10)
	}
	l := NewEnvLattice(iv)
	a, ma := in.env()
	b, mb := in.env()
	aStr, bStr := a.String(), b.String()
	envs, maps := []Env{a, b}, []mapEnv{ma, mb}
	same := func(what string, got Env, want mapEnv) {
		t.Helper()
		if got.String() != want.String() || got.IsBot() != want.bot || got.Len() != len(want.vars) ||
			strings.Join(got.Ids(), ",") != strings.Join(want.ids(), ",") {
			t.Fatalf("%s: got %s (len %d, ids %v), oracle %s", what, got, got.Len(), got.Ids(), want)
		}
		for _, id := range envOpsIDs {
			if g, w := got.Get(id), want.get(id); !iv.Eq(g, w) {
				t.Fatalf("%s: Get(%s) = %s, oracle %s", what, id, g, w)
			}
		}
		envs, maps = append(envs, got), append(maps, want)
	}
	same("a", a, ma)
	same("b", b, mb)
	id, v := envOpsIDs[in.next()%len(envOpsIDs)], in.interval()
	same("a.Set("+id+", "+v.String()+")", a.Set(id, v), ma.set(id, v))
	same("Join", l.Join(a, b), mapJoin(iv, ma, mb))
	same("Meet", l.Meet(a, b), mapMeet(iv, ma, mb))
	same("Widen", l.Widen(a, b), mapWiden(iv, ma, mb))
	if mapLeq(iv, mb, ma) {
		same("Narrow", l.Narrow(a, b), mapNarrow(iv, ma, mb))
	}
	same("Narrow(a, a⊓b)", l.Narrow(a, l.Meet(a, b)), mapNarrow(iv, ma, mapMeet(iv, ma, mb)))
	for i, x := range envs {
		for j, y := range envs {
			if l.Leq(x, y) != mapLeq(iv, maps[i], maps[j]) || l.Eq(x, y) != mapEq(iv, maps[i], maps[j]) {
				t.Fatalf("Leq/Eq(%s, %s) disagree with the oracle", x, y)
			}
		}
	}
	if a.String() != aStr || b.String() != bStr {
		t.Fatalf("operations changed their operands: %s, %s became %s, %s", aStr, bStr, a, b)
	}
}

func mapJoin(iv *lattice.IntervalLattice, a, b mapEnv) mapEnv {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	return mapCombine(iv, a, b, iv.Join, true)
}

func mapMeet(iv *lattice.IntervalLattice, a, b mapEnv) mapEnv {
	if a.bot || b.bot {
		return mapEnv{bot: true}
	}
	return mapCombine(iv, a, b, iv.Meet, false)
}

func mapWiden(iv *lattice.IntervalLattice, a, b mapEnv) mapEnv {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	return mapCombine(iv, a, b, iv.Widen, true)
}

func mapNarrow(iv *lattice.IntervalLattice, a, b mapEnv) mapEnv {
	if a.bot || b.bot {
		return b
	}
	return mapCombine(iv, a, b, iv.Narrow, false)
}

// TestEnvMatchesMapOracle compares the sorted-slice Env with the map
// oracle on random environments.
func TestEnvMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	data := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		r.Read(data)
		checkEnvOps(t, data)
	}
}

// FuzzEnvOps is TestEnvMatchesMapOracle driven by the fuzzer; its seed
// corpus is testdata/fuzz/FuzzEnvOps.
func FuzzEnvOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkEnvOps(t, data) })
}

// TestEnvAllocs pins the allocations of the hot operations: reads allocate
// nothing, and every operation that builds an environment allocates its
// binding slice and nothing else.
func TestEnvAllocs(t *testing.T) {
	l := NewEnvLattice(lattice.Ints)
	a := TopEnv.Set("f::i", lattice.Range(0, 10)).Set("f::j", lattice.Range(1, 2)).Set("g", lattice.AtLeast(0))
	b := TopEnv.Set("f::i", lattice.Range(0, 11)).Set("f::j", lattice.Range(1, 2)).Set("h", lattice.AtMost(3))
	w := l.Widen(a, b)
	var env Env
	var ok bool
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Get", 0, func() { ok = a.Get("f::j").IsEmpty() }},
		{"Leq", 0, func() { ok = l.Leq(a, b) }},
		{"Eq", 0, func() { ok = l.Eq(a, b) }},
		{"Set", 1, func() { env = a.Set("f::k", lattice.Singleton(1)) }},
		{"Join", 1, func() { env = l.Join(a, b) }},
		{"Meet", 1, func() { env = l.Meet(a, b) }},
		{"Widen", 1, func() { env = l.Widen(a, b) }},
		{"Narrow", 1, func() { env = l.Narrow(w, a) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
	_, _ = env, ok
}
